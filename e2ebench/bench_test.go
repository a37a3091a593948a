package main

import (
	"io"
	"testing"

	"rc4break/internal/service"
)

func TestMedianAndMean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Errorf("median or mean of nothing is not 0")
	}
}

func TestRate(t *testing.T) {
	if got := rate(30, 12); got != 2.5 {
		t.Errorf("rate(30, 12) = %v, want 2.5", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
}

// checkerFixture is a two-job pass and an identical reference.
func checkerFixture() (*bench, *pass, *pass) {
	jobs := func() *pass {
		return &pass{
			outs: []outcome{
				{Victim: 0, Attack: "cookie", Mode: "model", Success: true, Plaintext: []byte("abc123"),
					Rank: 4, Observed: 1 << 30, Rounds: 4, Checks: 24438, Evidence: [32]byte{1}},
				{Victim: 1, Attack: "tkip", Mode: "model", Success: true, Plaintext: []byte{9, 9},
					Rank: 1, Observed: 1 << 20, Rounds: 1, Checks: 1, Evidence: [32]byte{2}},
			},
			ok: []bool{false, false},
		}
	}
	return &bench{failed: make(map[int]string)}, jobs(), jobs()
}

func TestCheckerRejectsTamperedOutcome(t *testing.T) {
	for name, tamper := range map[string]func(o *outcome){
		"evidence":  func(o *outcome) { o.Evidence[31] ^= 1 },
		"rank":      func(o *outcome) { o.Rank++ },
		"checks":    func(o *outcome) { o.Checks-- },
		"plaintext": func(o *outcome) { o.Plaintext = []byte("abc124") },
		"success":   func(o *outcome) { o.Success = false },
	} {
		b, got, want := checkerFixture()
		b.checkSame(got, want, "reference")
		if len(b.failed) != 0 {
			t.Fatalf("%s: identical outcomes failed: %v", name, b.failed)
		}
		before := digest(got.outs)
		tamper(&got.outs[0])
		b.checkSame(got, want, "reference")
		if _, ok := b.failed[0]; !ok || len(b.failed) != 1 {
			t.Errorf("%s: tampered job not rejected exactly once: %v", name, b.failed)
		}
		if digest(got.outs) == before {
			t.Errorf("%s: outcome digest did not change", name)
		}
	}

	b, p, _ := checkerFixture()
	specs := []service.JobSpec{{Attack: "cookie", Secret: "abc124"}, {Attack: "tkip"}}
	b.checkRecovered(p, specs)
	if _, ok := b.failed[0]; !ok || p.ok[0] {
		t.Errorf("cookie recovered as %q against secret %q was accepted", p.outs[0].Plaintext, specs[0].Secret)
	}
	if !p.ok[1] {
		t.Errorf("confirmed tkip job not counted as a success")
	}
}

// TestSmoke runs every workload, untraced and traced, at the smallest
// size: outputs must check, and every reported metric must be present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := execute(options{workload: w.name, seed: defaultSeed, seconds: 1, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}
