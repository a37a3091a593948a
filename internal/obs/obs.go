// Package obs is the repository's zero-dependency tracing layer: spans with
// 64-bit trace/span IDs, parent links and typed attributes, recorded into a
// fixed-capacity ring journal and exported as NDJSON or Chrome trace-event
// JSON (chrome://tracing / Perfetto loadable). The attacks are long-running
// pipelines — capture → evidence fold → decode rounds → candidate walk — and
// the feasibility argument is all about where the time goes; spans attach
// that timing to the shard/lane/round structure the engine, fleet and attack
// service actually execute.
//
// Span contexts propagate across process boundaries: the fleet lane-lease
// RPC carries the coordinator's lane-span context, workers parent their
// collect spans under it and piggyback the finished records on the evidence
// upload, so a whole coordinator/worker fleet renders as one flame graph
// under one trace ID. The service job spec carries an optional trace ID the
// same way.
//
// A span is also the stage clock. Span.End returns the elapsed time, and
// the online runtime, the job server and the fleet coordinator feed their
// result timing and latency histograms from it, so each stage reads the
// clock once at its start and once at its end. Journal.Start therefore has
// two modes:
//
//   - On a journal, the span is timed and recorded.
//   - On a nil journal (tracing off), the span is timed but records
//     nothing: its Context is zero and SetAttrs/SetTrack do nothing. It
//     costs one small allocation and two clock reads per stage.
//
// The per-shard hot path uses StartSpan instead, which stays free when the
// context carries no journal: it returns a nil span with no allocation, no
// clock read and no lock, and every method on a nil span is a no-op.
// dataset's BenchmarkEngineTracedVsUntraced pins that cost. Tracing never
// feeds evidence, candidate ranks, or persisted attack state: spans carry
// wall-clock timing only, and every output of an instrumented run is
// bitwise-identical with tracing on or off.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace tree — potentially spanning a coordinator
// and many workers, or a service job submitted by an external client.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// SpanContext is the propagatable position in a trace tree: enough to
// parent a child span, small enough to ride in an RPC envelope.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// AttrKind discriminates Attr payloads.
type AttrKind uint8

// Attr value kinds. Values are stored raw and rendered only at export, so
// building an Attr never formats.
const (
	KindStr AttrKind = iota
	KindInt
	KindUint
	KindFloat
)

// Attr is one key/value span attribute. Fields are exported so records
// piggyback through the gob-based fleet RPC unchanged.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Num  uint64 // int64 / uint64 / float64-bits payload per Kind
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Kind: KindStr, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: KindInt, Num: uint64(v)} }

// U64 builds an unsigned attribute.
func U64(k string, v uint64) Attr { return Attr{Key: k, Kind: KindUint, Num: v} }

// F64 builds a float attribute.
func F64(k string, v float64) Attr {
	return Attr{Key: k, Kind: KindFloat, Num: floatBits(v)}
}

// Value renders the attribute's value as a string (export time only).
func (a Attr) Value() string {
	switch a.Kind {
	case KindInt:
		return strconv.FormatInt(int64(a.Num), 10)
	case KindUint:
		return strconv.FormatUint(a.Num, 10)
	case KindFloat:
		return strconv.FormatFloat(floatFromBits(a.Num), 'g', -1, 64)
	}
	return a.Str
}

// Record is one completed span as it sits in the ring journal. All fields
// are exported: records cross the fleet RPC inside the Evidence message and
// must gob-encode.
type Record struct {
	Trace  uint64
	Span   uint64
	Parent uint64 // zero for root spans
	Name   string
	Proc   string // the journal's process/component label
	Track  int64  // rendering track (Chrome tid): shard, lane or job index
	Start  int64  // wall-clock start, unix nanoseconds
	Dur    int64  // nanoseconds
	Attrs  []Attr
}

// Journal is a fixed-capacity ring of completed spans. All methods are safe
// for concurrent use. A nil journal is the disabled state: it records
// nothing, and its Start returns a span that only times.
type Journal struct {
	proc string

	mu      sync.Mutex
	buf     []Record
	total   uint64 // records ever appended; buf index = (total-1) % cap
	dropped uint64
}

// DefaultCapacity is the journal ring size when NewJournal is given zero.
const DefaultCapacity = 1 << 14

// NewJournal returns a journal labelled with proc (the process/component
// name exported with every record) holding at most capacity completed spans;
// capacity <= 0 selects DefaultCapacity.
func NewJournal(proc string, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{proc: proc, buf: make([]Record, 0, capacity)}
}

// Proc returns the journal's process label ("" for nil).
func (j *Journal) Proc() string {
	if j == nil {
		return ""
	}
	return j.proc
}

// Start opens a span under parent. An invalid parent starts a new root
// trace; a parent with only the Trace half set (no span) roots the span in
// that existing trace — the shape cross-process propagation produces when
// only a trace ID was carried. On a nil journal the span only times: its
// End returns the elapsed time and records nothing.
func (j *Journal) Start(parent SpanContext, name string, attrs ...Attr) *Span {
	if j == nil {
		return &Span{start: time.Now()}
	}
	trace := parent.Trace
	if trace == 0 {
		trace = TraceID(newID())
	}
	s := &Span{
		j:     j,
		start: time.Now(),
		rec: Record{
			Trace:  uint64(trace),
			Span:   newID(),
			Parent: uint64(parent.Span),
			Name:   name,
			Proc:   j.proc,
			Attrs:  attrs,
		},
	}
	s.rec.Start = s.start.UnixNano()
	return s
}

// append records one completed span, overwriting the oldest when full.
func (j *Journal) append(rec Record) {
	j.mu.Lock()
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, rec)
	} else {
		j.buf[j.total%uint64(cap(j.buf))] = rec
		j.dropped++
	}
	j.total++
	j.mu.Unlock()
}

// Fold appends foreign records — spans a worker shipped alongside its lane
// upload — into the ring as-is, preserving their Proc labels.
func (j *Journal) Fold(recs []Record) {
	if j == nil || len(recs) == 0 {
		return
	}
	for _, r := range recs {
		j.append(r)
	}
}

// Snapshot copies the journal's records, oldest first.
func (j *Journal) Snapshot() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.copyLocked()
}

// Drain copies the journal's records, oldest first, and clears the ring —
// the worker-side handoff before piggybacking records on an upload.
func (j *Journal) Drain() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.copyLocked()
	j.buf = j.buf[:0]
	j.total = 0
	return out
}

func (j *Journal) copyLocked() []Record {
	out := make([]Record, 0, len(j.buf))
	if len(j.buf) == cap(j.buf) && j.total > uint64(len(j.buf)) {
		head := j.total % uint64(cap(j.buf))
		out = append(out, j.buf[head:]...)
		out = append(out, j.buf[:head]...)
	} else {
		out = append(out, j.buf...)
	}
	return out
}

// Stats reports how many spans were ever recorded and how many the ring has
// overwritten.
func (j *Journal) Stats() (recorded, dropped uint64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total, j.dropped
}

// Span is one in-flight operation. Methods are safe on a nil receiver (the
// free disabled path StartSpan returns) but not for concurrent use on the
// same span. A span with no journal (from a nil Journal's Start) only times.
type Span struct {
	j     *Journal // nil: timing only, nothing is recorded
	start time.Time
	done  bool
	rec   Record
}

// Context returns the span's propagatable context (zero for nil or a
// timing-only span).
func (s *Span) Context() SpanContext {
	if s == nil || s.j == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: TraceID(s.rec.Trace), Span: SpanID(s.rec.Span)}
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || s.j == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// SetTrack assigns the span's rendering track — the Chrome trace-event tid,
// used to lay concurrent siblings (shards, lanes, jobs) on separate rows.
func (s *Span) SetTrack(t int64) {
	if s == nil || s.j == nil {
		return
	}
	s.rec.Track = t
}

// Age reports the time since the span started without ending it — zero for
// nil. The fleet coordinator expires a lane lease once its span's age
// reaches the lease TTL, so the lease clock is the span's one clock read.
func (s *Span) Age() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// End completes the span, appends it to its journal (if any), and returns
// its elapsed wall-clock time — zero for nil or on a second End. That
// duration is the stage's one timing: callers feed result fields and
// latency histograms from it without reading the clock again.
func (s *Span) End() time.Duration {
	if s == nil || s.done {
		return 0
	}
	s.done = true
	d := time.Since(s.start)
	if s.j != nil {
		s.rec.Dur = int64(d)
		s.j.append(s.rec)
	}
	return d
}

// idState drives span/trace ID generation: a per-process random base mixed
// with an atomic counter through splitmix64, so IDs are unique within a
// process and collide across processes with probability ~2^-64 per pair.
var idState struct {
	base uint64
	ctr  atomic.Uint64
}

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness within the process still holds
		// via the counter.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	idState.base = binary.LittleEndian.Uint64(b[:])
}

// newID returns a nonzero 64-bit ID.
func newID() uint64 {
	for {
		x := idState.base + idState.ctr.Add(1)
		// splitmix64 finalizer.
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
