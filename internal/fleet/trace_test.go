package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/online"
)

// TestFleetOneTraceAcrossProcesses pins the cross-process propagation
// property: a traced coordinator plus traced workers produce, in the
// coordinator's journal alone, a single trace whose spans carry both the
// coordinator's and the workers' proc labels — with worker collect spans
// parented under the coordinator's lane spans — and the Chrome export of
// that journal renders them as separate process groups. It also checks the
// observe hooks that feed fleetd's histograms fire for every phase.
func TestFleetOneTraceAcrossProcesses(t *testing.T) {
	const secret = "C00kie8+"
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}
	pool := newCookieAttack(t, cfg)
	job := fleet.JobSpec{
		Attack:      "cookie",
		Mode:        "model",
		Seed:        5,
		Budget:      4 << 10,
		LaneRecords: 1 << 10,
		Fingerprint: pool.Fingerprint(),
	}

	journal := obs.NewJournal("coordinator", 1024)
	var mu sync.Mutex
	hookDurs := map[string][]int64{}
	hook := func(name string) func(time.Duration) {
		return func(d time.Duration) {
			if d < 0 {
				t.Errorf("%s observed negative duration %v", name, d)
			}
			mu.Lock()
			hookDurs[name] = append(hookDurs[name], int64(d))
			mu.Unlock()
		}
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Job:                  job,
		Pool:                 &fleet.CookiePool{Attack: pool},
		Oracle:               &netsim.CookieServer{Secret: []byte(secret)},
		Cadence:              online.Cadence{First: 2 << 10},
		MaxCandidates:        8,
		LeaseTTL:             time.Minute,
		Tracer:               journal,
		ObserveLaneRoundtrip: hook("roundtrip"),
		ObserveIngest:        hook("ingest"),
		ObserveDecode:        hook("decode"),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(l)

	var wg sync.WaitGroup
	for _, id := range []string{"worker-a", "worker-b"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &fleet.Worker{
				Addr:        l.Addr().String(),
				ID:          id,
				Attack:      "cookie",
				Fingerprint: job.Fingerprint,
				Collect:     cookieCollect(cfg, secret),
				MaxWait:     20 * time.Millisecond,
				Tracer:      obs.NewJournal(id, 256),
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	// A toy budget cannot rank the real cookie into an 8-deep list; the run
	// ends by budget exhaustion, which exercises every span path.
	if _, err := coord.Run(context.Background()); !errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	coord.Close()

	recs := journal.Snapshot()
	var traceID uint64
	byName := map[string][]obs.Record{}
	procs := map[string]bool{}
	spanByID := map[uint64]obs.Record{}
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
		procs[r.Proc] = true
		spanByID[r.Span] = r
		if traceID == 0 {
			traceID = r.Trace
		}
		if r.Trace != traceID {
			t.Fatalf("span %s (proc %s) under trace %x, want the single trace %x", r.Name, r.Proc, r.Trace, traceID)
		}
	}
	for _, proc := range []string{"coordinator", "worker-a", "worker-b"} {
		if !procs[proc] {
			t.Fatalf("journal has procs %v, missing %q", procs, proc)
		}
	}
	if len(byName["fleet.lane"]) != int(job.Lanes()) {
		t.Fatalf("%d fleet.lane spans, want %d", len(byName["fleet.lane"]), job.Lanes())
	}
	if len(byName["fleet.collect"]) != int(job.Lanes()) {
		t.Fatalf("%d fleet.collect spans, want %d", len(byName["fleet.collect"]), job.Lanes())
	}
	for _, name := range []string{"fleet.run", "fleet.join", "fleet.ingest", "fleet.merge", "fleet.decode", "online.run", "online.decode", "online.walk"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %s spans in journal (have %v)", name, byName)
		}
	}
	// Every worker collect span is parented under a coordinator lane span —
	// the lease's trace fields crossed the process boundary.
	for _, cs := range byName["fleet.collect"] {
		parent, ok := spanByID[cs.Parent]
		if !ok || parent.Name != "fleet.lane" {
			t.Fatalf("fleet.collect parent %x is %q, want a fleet.lane span", cs.Parent, parent.Name)
		}
	}

	// The Chrome export renders coordinator and workers as distinct
	// process groups in one loadable document.
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"coordinator"`, `"worker-a"`, `"worker-b"`, `"traceEvents"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("chrome export missing %s", want)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(hookDurs["roundtrip"]) != int(job.Lanes()) || len(hookDurs["ingest"]) != int(job.Lanes()) || len(hookDurs["decode"]) == 0 {
		t.Fatalf("observe hooks fired %v, want %d roundtrips, %d ingests, >0 decodes", hookDurs, job.Lanes(), job.Lanes())
	}
	// The spans are the stage clock: each hook received exactly its span's
	// duration.
	spanDurs := func(name, outcome string) []int64 {
		var ds []int64
		for _, r := range byName[name] {
			got := ""
			for _, a := range r.Attrs {
				if a.Key == "outcome" {
					got = a.Value()
				}
			}
			if got == outcome {
				ds = append(ds, r.Dur)
			}
		}
		sort.Slice(ds, func(i, k int) bool { return ds[i] < ds[k] })
		return ds
	}
	for hook, span := range map[string][]int64{
		"roundtrip": spanDurs("fleet.lane", "uploaded"),
		"ingest":    spanDurs("fleet.ingest", ""),
		"decode":    spanDurs("fleet.decode", ""),
	} {
		got := hookDurs[hook]
		sort.Slice(got, func(i, k int) bool { return got[i] < got[k] })
		if !reflect.DeepEqual(got, span) {
			t.Fatalf("%s hook durations %v, span durations %v", hook, got, span)
		}
	}
}
