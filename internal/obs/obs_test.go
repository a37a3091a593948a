package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestNilJournalTimesButRecordsNothing pins the disabled-journal contract:
// Start still returns a span that times its stage (End returns the elapsed
// time once, then 0), but it has no context, attributes go nowhere, and the
// nil journal itself holds nothing. A nil *Span — the free path StartSpan
// takes without a journal — has only no-op methods.
func TestNilJournalTimesButRecordsNothing(t *testing.T) {
	var j *Journal
	s := j.Start(SpanContext{Trace: 1, Span: 2}, "timer", Str("k", "v"))
	if s == nil {
		t.Fatalf("nil journal Start returned a nil span; it must still time")
	}
	s.SetAttrs(Int("x", 1))
	s.SetTrack(3)
	if s.Context() != (SpanContext{}) {
		t.Fatalf("timing-only span context = %+v, want zero", s.Context())
	}
	if d := s.End(); d < 0 {
		t.Fatalf("timing-only span End = %v, want >= 0", d)
	}
	if d := s.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	if j.Snapshot() != nil || j.Drain() != nil {
		t.Fatalf("nil journal snapshot/drain returned records")
	}
	j.Fold([]Record{{Name: "x"}})
	if rec, drop := j.Stats(); rec != 0 || drop != 0 {
		t.Fatalf("nil journal stats = %d,%d", rec, drop)
	}
	if j.Proc() != "" {
		t.Fatalf("nil journal proc = %q", j.Proc())
	}

	var nilSpan *Span
	nilSpan.SetAttrs(Int("x", 1))
	nilSpan.SetTrack(3)
	if got := nilSpan.End(); got != 0 {
		t.Fatalf("nil span End = %v, want 0", got)
	}
	if nilSpan.Context() != (SpanContext{}) {
		t.Fatalf("nil span context reported valid")
	}
}

func TestSpanParentLinksAndTraceReuse(t *testing.T) {
	j := NewJournal("test", 16)
	root := j.Start(SpanContext{}, "root")
	rctx := root.Context()
	if rctx.Trace == 0 || rctx.Span == 0 {
		t.Fatalf("root context invalid")
	}
	child := j.Start(rctx, "child")
	cctx := child.Context()
	if cctx.Trace != rctx.Trace {
		t.Fatalf("child trace %x != root trace %x", cctx.Trace, rctx.Trace)
	}
	if cctx.Span == rctx.Span {
		t.Fatalf("child reused root span ID")
	}
	child.End()
	root.End()

	recs := j.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["root"].Parent != 0 {
		t.Fatalf("root has parent %x", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].Span {
		t.Fatalf("child parent %x != root span %x", byName["child"].Parent, byName["root"].Span)
	}

	// Trace-only parent (cross-process propagation with no span half) roots
	// a new span in the existing trace.
	foreign := j.Start(SpanContext{Trace: rctx.Trace}, "foreign")
	if got := foreign.Context().Trace; got != rctx.Trace {
		t.Fatalf("foreign trace %x, want %x", got, rctx.Trace)
	}
	foreign.End()
	last := j.Snapshot()[2]
	if last.Parent != 0 {
		t.Fatalf("trace-only parent produced parent link %x", last.Parent)
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	j := NewJournal("test", 4)
	for i := 0; i < 10; i++ {
		j.Start(SpanContext{}, fmt.Sprintf("s%d", i)).End()
	}
	recs := j.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		want := fmt.Sprintf("s%d", 6+i)
		if r.Name != want {
			t.Fatalf("record %d = %q, want %q (oldest-first order)", i, r.Name, want)
		}
	}
	rec, drop := j.Stats()
	if rec != 10 || drop != 6 {
		t.Fatalf("stats = %d recorded, %d dropped; want 10, 6", rec, drop)
	}
}

func TestDrainClearsAndFoldPreservesProc(t *testing.T) {
	j := NewJournal("worker-1", 8)
	j.Start(SpanContext{}, "a").End()
	j.Start(SpanContext{}, "b").End()
	out := j.Drain()
	if len(out) != 2 {
		t.Fatalf("drain returned %d records, want 2", len(out))
	}
	if len(j.Snapshot()) != 0 {
		t.Fatalf("journal not empty after drain")
	}

	coord := NewJournal("coordinator", 8)
	coord.Start(SpanContext{}, "lease").End()
	coord.Fold(out)
	recs := coord.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records after fold, want 3", len(recs))
	}
	procs := map[string]int{}
	for _, r := range recs {
		procs[r.Proc]++
	}
	if procs["worker-1"] != 2 || procs["coordinator"] != 1 {
		t.Fatalf("proc labels after fold = %v", procs)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	j := NewJournal("test", 8)
	s := j.Start(SpanContext{}, "once")
	if d := s.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	if d := s.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	if n := len(j.Snapshot()); n != 1 {
		t.Fatalf("double End produced %d records", n)
	}
}

func TestContextPropagation(t *testing.T) {
	j := NewJournal("proc", 16)
	ctx := NewContext(context.Background(), j)

	ctx1, parent := StartSpan(ctx, "outer", Int("n", 7))
	_, child := StartSpan(ctx1, "inner")
	if child.Context().Trace != parent.Context().Trace {
		t.Fatalf("inner span escaped outer trace")
	}
	child.End()
	parent.End()

	byName := map[string]Record{}
	for _, r := range j.Snapshot() {
		byName[r.Name] = r
	}
	if byName["inner"].Parent != byName["outer"].Span {
		t.Fatalf("ctx child not parented to outer span")
	}

	// Journal-less context: StartSpan returns the same ctx and a nil span.
	plain := context.Background()
	ctx2, s := StartSpan(plain, "off")
	if s != nil || ctx2 != plain {
		t.Fatalf("disabled StartSpan allocated (%v, %v)", ctx2, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, s := StartSpan(plain, "off")
		s.End()
	}); n != 0 {
		t.Fatalf("disabled StartSpan+End allocates %v times", n)
	}

	// WithParent injects an out-of-band position (RPC envelope shape).
	remote := SpanContext{Trace: 0xabc, Span: 0xdef}
	_, s2 := StartSpan(WithParent(ctx, remote), "rpc")
	if got := s2.Context().Trace; got != remote.Trace {
		t.Fatalf("WithParent trace %x, want %x", got, remote.Trace)
	}
	s2.End()
	recs := j.Snapshot()
	last := recs[len(recs)-1]
	if last.Parent != uint64(remote.Span) {
		t.Fatalf("WithParent parent %x, want %x", last.Parent, remote.Span)
	}
}

func TestNDJSONExport(t *testing.T) {
	j := NewJournal("proc", 16)
	s := j.Start(SpanContext{}, "op", Str("mode", "tls"), Int("keys", 4096), U64("lane", 9), F64("frac", 0.5))
	s.SetTrack(2)
	s.End()

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, j.Snapshot()); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		attrs := m["attrs"].(map[string]any)
		if attrs["mode"] != "tls" || attrs["keys"] != "4096" || attrs["lane"] != "9" || attrs["frac"] != "0.5" {
			t.Fatalf("attrs rendered wrong: %v", attrs)
		}
		if len(m["trace"].(string)) != 16 || len(m["span"].(string)) != 16 {
			t.Fatalf("IDs not fixed-width hex: %v", m)
		}
		if m["track"].(float64) != 2 {
			t.Fatalf("track = %v", m["track"])
		}
	}
	if lines != 1 {
		t.Fatalf("got %d NDJSON lines, want 1", lines)
	}
}

func TestChromeExport(t *testing.T) {
	coord := NewJournal("coordinator", 16)
	root := coord.Start(SpanContext{}, "fleet.run")
	worker := NewJournal("worker-0", 16)
	ws := worker.Start(root.Context(), "fleet.collect")
	ws.SetTrack(3)
	ws.End()
	coord.Fold(worker.Drain())
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, coord.Snapshot()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}

	var meta, complete int
	pidByProc := map[string]int{}
	var traces []string
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "process_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
			pidByProc[ev.Args["name"]] = ev.PID
		case "X":
			complete++
			traces = append(traces, ev.Args["trace"])
			if ev.Name == "fleet.collect" && ev.TID != 3 {
				t.Fatalf("collect tid = %d, want 3", ev.TID)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 2", meta, complete)
	}
	if pidByProc["coordinator"] == pidByProc["worker-0"] {
		t.Fatalf("coordinator and worker share pid %d", pidByProc["coordinator"])
	}
	for _, tr := range traces[1:] {
		if tr != traces[0] {
			t.Fatalf("coordinator and worker spans under different traces: %v", traces)
		}
	}
}

func TestDebugHandlers(t *testing.T) {
	j := NewJournal("daemon", 16)
	j.Start(SpanContext{}, "op").End()
	mux := http.NewServeMux()
	MountDebug(mux, j)

	for _, path := range []string{"/debug/trace", "/debug/trace/chrome", "/debug/pprof/"} {
		req := httptest.NewRequest("GET", path, nil)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rr.Code)
		}
		if rr.Body.Len() == 0 {
			t.Fatalf("GET %s returned empty body", path)
		}
	}

	req := httptest.NewRequest("GET", "/debug/trace", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if !strings.Contains(rr.Body.String(), `"name":"op"`) {
		t.Fatalf("trace endpoint missing span: %s", rr.Body.String())
	}
}

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatalf("zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %x after %d draws", id, i)
		}
		seen[id] = true
	}
}
