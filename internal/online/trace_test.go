package online_test

import (
	"testing"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/online"
)

// TestRunEmitsRoundSpans checks the per-round span structure: one
// online.run root under the supplied parent, and capture/decode/walk spans
// per round all parented under it — plus result parity with an untraced run,
// and Result timing equal to the span durations.
func TestRunEmitsRoundSpans(t *testing.T) {
	truth := []byte("the-secret!")
	run := func(j *obs.Journal, parent obs.SpanContext) online.Result {
		dec := &fakeDecoder{revealAt: 4000, trueRank: 7, truth: truth}
		res, err := online.Run(online.Config{
			Decoder:       dec,
			Oracle:        &fakeOracle{truth: truth},
			Cadence:       online.Cadence{First: 1000},
			MaxCandidates: 16,
			Budget:        1 << 20,
			Feed:          online.FeedFunc(func(target uint64) error { dec.observed = target; return nil }),
			Tracer:        j,
			TraceParent:   parent,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil, obs.SpanContext{})
	j := obs.NewJournal("test", 128)
	parent := obs.SpanContext{Trace: 0x1234, Span: 0x5678}
	traced := run(j, parent)

	if string(plain.Plaintext) != string(traced.Plaintext) ||
		plain.Rank != traced.Rank || plain.Observed != traced.Observed ||
		plain.Rounds != traced.Rounds || plain.Checks != traced.Checks {
		t.Fatalf("tracing changed the result: %+v vs %+v", plain, traced)
	}

	byName := map[string][]obs.Record{}
	for _, r := range j.Snapshot() {
		byName[r.Name] = append(byName[r.Name], r)
		if r.Trace != uint64(parent.Trace) {
			t.Fatalf("span %s escaped the parent trace: %x", r.Name, r.Trace)
		}
	}
	// 3 rounds: capture to 1000/2000/4000, decode+walk each.
	for name, want := range map[string]int{
		"online.run": 1, "online.capture": 3, "online.decode": 3, "online.walk": 3,
	} {
		if got := len(byName[name]); got != want {
			t.Fatalf("%s spans = %d, want %d (journal: %v)", name, got, want, byName)
		}
	}
	// The spans are the stage clock: Result's phase times are exactly the
	// summed span durations, and Elapsed is the run span's.
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, r := range byName[name] {
			d += time.Duration(r.Dur)
		}
		return d
	}
	for _, c := range []struct {
		name string
		got  time.Duration
	}{
		{"online.capture", traced.CaptureTime},
		{"online.decode", traced.DecodeTime},
		{"online.walk", traced.OracleTime},
		{"online.run", traced.Elapsed},
	} {
		if want := sum(c.name); c.got != want {
			t.Fatalf("%s: result time %v, span durations sum to %v", c.name, c.got, want)
		}
	}
	runRec := byName["online.run"][0]
	if runRec.Parent != uint64(parent.Span) {
		t.Fatalf("online.run parent = %x, want %x", runRec.Parent, parent.Span)
	}
	for _, name := range []string{"online.capture", "online.decode", "online.walk"} {
		for _, r := range byName[name] {
			if r.Parent != runRec.Span {
				t.Fatalf("%s not parented under online.run", name)
			}
		}
	}
	// The winning round's attrs carry the success shape.
	attrs := map[string]string{}
	for _, a := range runRec.Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["rank"] != "7" || attrs["observed"] != "4000" {
		t.Fatalf("online.run attrs = %v, want rank=7 observed=4000", attrs)
	}
}
