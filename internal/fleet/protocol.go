// Package fleet turns the single-machine attacks into a coordinated,
// fault-tolerant capture/decode fleet — the layer the paper's collection
// campaigns actually need (§3.2 ran ~80 machines; §5.4/§6.3 are multi-hour
// captures). One coordinator owns the evidence pool and the closed decode
// loop; many workers capture disjoint lanes of the observation stream and
// stream their evidence back.
//
// The design leans entirely on guarantees the lower layers already provide:
//
//   - Lanes. The observation budget is cut into fixed-size lanes, the
//     fleet sibling of dataset.Config.Lane's disjoint key lanes; the
//     coordinator alone tracks which are merged, staged or leased. Each
//     lane has one stream identity (snapshot.StreamInfo with the Lane field
//     set) and its evidence is a pure function of (job, lane), so a lane
//     can be captured by any worker, at any time, any number of times —
//     always producing the same bytes.
//
//   - Leases. A worker holds a lane only until its lease TTL expires; a
//     worker that dies mid-lane simply lets the lease lapse, and the
//     coordinator re-leases the lane to the next worker that asks. A dead
//     worker that rejoins starts from its last acked state by construction:
//     acked lanes are done, everything else was never its responsibility.
//
//   - Wire format. Every control message is one internal/snapshot
//     envelope (length-prefixed, kind-tagged, CRC-checksummed) of at
//     most maxCtrlBytes. A lane upload is two frames: an Evidence header
//     envelope naming the lane, then the attack's own snapshot envelope —
//     the exact bytes a -checkpoint file would hold — written verbatim and
//     read raw under the exact lane bound maxLaneBytes. Its checksum is
//     computed once by the worker's WriteSnapshot and verified once by the
//     coordinator's pool, through the same fingerprint and stream checks
//     the offline -merge path applies. A duplicate lane upload (a
//     re-leased lane's original owner waking up late) is rejected at the
//     RPC layer the same way -merge rejects a duplicated shard.
//
//   - Ordering. Evidence merges are float-accumulating, so the coordinator
//     merges lanes strictly in lane order (uploads arriving early stage in
//     memory until their predecessors land) and only up to the current
//     decode target. Between decode rounds the pool is frozen. Together
//     these make a fleet run bitwise-identical to a single process
//     capturing the same lanes — the property TestFleetMatchesSingleProcess
//     pins.
//
// The coordinator drives online.Run over the merged pool through the
// runtime's pluggable Feed, so decode cadence, the reject cache,
// checkpointing, and early stop all behave exactly as in a single-process
// online run; the moment a candidate is oracle-confirmed, every subsequent
// worker RPC answers "stop".
package fleet

import (
	"fmt"
	"io"
	"time"

	"rc4break/internal/cookieattack"
	"rc4break/internal/obs"
	"rc4break/internal/snapshot"
)

// Message kinds — the envelope kind strings of the coordinator/worker RPC.
// Each request expects exactly one reply; Stop is a valid reply to any
// request once the run has finished.
const (
	kindHello        = "rc4break.fleet.hello.v1"
	kindWelcome      = "rc4break.fleet.welcome.v1"
	kindLeaseRequest = "rc4break.fleet.lease-request.v1"
	kindLease        = "rc4break.fleet.lease.v1"
	kindWait         = "rc4break.fleet.wait.v1"
	kindStop         = "rc4break.fleet.stop.v1"
	kindEvidence     = "rc4break.fleet.evidence.v2"
	kindAck          = "rc4break.fleet.ack.v1"
	kindRelease      = "rc4break.fleet.release.v1"
)

// JobSpec describes the capture job a coordinator is running; it is sent to
// every worker in the Welcome reply so workers reconstruct the exact same
// collection locally from their own flags plus the job parameters.
type JobSpec struct {
	// Attack is "cookie" or "tkip".
	Attack string
	// Mode is the collection mode workers must run ("model" or "exact").
	Mode string
	// Seed is the job's base seed; lane streams derive from it
	// (cliutil.LaneSeed for model mode, absolute stream offsets for exact
	// mode).
	Seed int64
	// Budget is the total observation budget across all lanes.
	Budget uint64
	// LaneRecords is the observation count of each lane (the final lane is
	// clamped to the budget).
	LaneRecords uint64
	// Fingerprint identifies the attack configuration (cookie request
	// layout / TKIP model) every worker must share; a worker whose local
	// fingerprint differs is turned away at Hello.
	Fingerprint [16]byte
}

// Lanes returns the job's lane count: Budget/LaneRecords rounded up.
func (j JobSpec) Lanes() uint64 {
	return (j.Budget + j.LaneRecords - 1) / j.LaneRecords
}

// LaneExtent returns the absolute observation offset and length of a lane.
func (j JobSpec) LaneExtent(lane uint64) (start, records uint64) {
	start = lane * j.LaneRecords
	records = j.LaneRecords
	if start+records > j.Budget {
		records = j.Budget - start
	}
	return start, records
}

// LaneStream is the canonical stream identity of one lane: the job's mode
// and base seed plus the lane index. Workers stamp lane snapshots with it
// and the coordinator rejects any upload whose identity differs from the
// lane's — or repeats one already merged.
func (j JobSpec) LaneStream(lane uint64) snapshot.StreamInfo {
	return snapshot.StreamInfo{Mode: j.Mode, Seed: j.Seed, Lane: lane}
}

// Hello opens a worker session.
type Hello struct {
	Worker string
	// Fingerprint is the worker's locally constructed attack fingerprint;
	// it must match the job's.
	Fingerprint [16]byte
}

// Welcome accepts a worker and hands it the job parameters.
type Welcome struct {
	Job JobSpec
}

// LeaseRequest asks for the next capture lane.
type LeaseRequest struct {
	Worker string
}

// Lease grants one lane until TTL elapses. Start/Records are the lane's
// absolute extent; Stream is the identity the lane snapshot must carry.
type Lease struct {
	Lane    uint64
	Start   uint64
	Records uint64
	Stream  snapshot.StreamInfo
	TTL     time.Duration
	// Trace/Span carry the coordinator's lane-span context so the worker's
	// collect spans parent under it and the whole fleet renders as one
	// flame graph. Zero when the coordinator runs untraced; tracing fields
	// never influence capture or evidence.
	Trace uint64
	Span  uint64
}

// Wait tells a worker no lane is currently available (all leased or done,
// but the run is not finished — an expired lease may still come back); ask
// again after After.
type Wait struct {
	After time.Duration
}

// Stop tells a worker the run is over.
type Stop struct {
	Reason string
}

// Release gives a leased lane back early: a worker whose collect loop
// failed says so instead of silently holding the lane until the TTL
// expires. Best-effort — a worker that dies outright never sends it, and
// the TTL remains the backstop.
type Release struct {
	Worker string
	Lane   uint64
}

// Evidence heads one lane upload: the lane identity the coordinator
// validates against the lease it issued. The lane's snapshot envelope
// follows it as a second frame (writeEvidence). Spans piggybacks the
// worker's drained trace journal on the upload it already makes — the
// coordinator folds them into its own journal, so one /debug/trace scrape
// on the coordinator shows the whole fleet. Spans never feed validation or
// the evidence pool.
type Evidence struct {
	Worker  string
	Lane    uint64
	Stream  snapshot.StreamInfo
	Records uint64
	Spans   []obs.Record
}

// Ack is the coordinator's receipt for an Evidence upload — the worker's
// durable checkpoint: once a lane is acked the worker never has to think
// about it again.
type Ack struct {
	Lane uint64
	// OK is false when the upload was rejected (duplicate lane, stream
	// mismatch, malformed snapshot); Err carries the reason. A rejected
	// duplicate is not fatal to the worker — the lane is already covered.
	OK  bool
	Err string
	// Merged is the contiguous observation count merged into the pool so
	// far (the coordinator's progress counter).
	Merged uint64
	// Stop tells the worker the run has finished.
	Stop bool
}

// maxLaneBytes bounds one lane's snapshot envelope, the largest legal
// upload: a cookie lane of cookieattack.MaxCookieLen+1 chain links × 65,536
// cells, each an 8-byte digraph count (the widest column cell) plus an
// 8-byte ABSAB weight, behind at most the envelope's framing and a column
// header. For the paper's 16-character cookie that is 17 × 65,536 × 16 B
// ≈ 17 MiB; measured lanes of 2^27 records use 4-byte counts, 13.4 MB. A
// TKIP lane is at most 256 classes × 12 positions × 256 counts × 8 B
// ≈ 6 MiB.
const maxLaneBytes = snapshot.MaxFraming + 4 + snapshot.MaxColumnHeader +
	(cookieattack.MaxCookieLen+1)<<16*(8+8)

// maxCtrlBytes bounds every other wire message — Hello, LeaseRequest,
// Release, the Evidence header with its piggybacked spans, and the
// coordinator's replies: readMsg refuses a longer envelope from its head,
// so a peer cannot make either side buffer more.
const maxCtrlBytes = 4 << 20

// writeMsg sends one protocol message as a snapshot envelope.
func writeMsg(w io.Writer, kind string, v any) error {
	payload, err := snapshot.EncodeGob(v)
	return writeReply(w, wireReply{kind: kind, payload: payload, err: err})
}

// wireReply is one pre-encoded reply envelope: the payload was gob-encoded
// at a statically typed call site (see reply), so by the time a handler
// returns, the message type is already pinned and checked.
type wireReply struct {
	kind    string
	payload []byte
	err     error // encoding failure, surfaced at the write site
}

// reply encodes a typed protocol message into a wireReply. The type
// parameter keeps the payload's concrete type visible at every call site —
// the hook the rc4gob pass uses to verify each reply message against the
// schema manifest instead of losing it behind an `any` dispatch.
func reply[M any](kind string, v M) wireReply {
	payload, err := snapshot.EncodeGob(v)
	return wireReply{kind: kind, payload: payload, err: err}
}

// writeReply sends one pre-encoded envelope, refusing one the peer's
// readMsg would refuse.
func writeReply(w io.Writer, r wireReply) error {
	if r.err != nil {
		return r.err
	}
	// Envelope framing: magic, version, kind length, kind, payload length,
	// payload, CRC.
	if n := snapshot.MagicLen + 4 + 4 + len(r.kind) + 8 + len(r.payload) + 8; n > maxCtrlBytes {
		return fmt.Errorf("fleet: %d-byte %s message exceeds the %d-byte wire bound", n, r.kind, maxCtrlBytes)
	}
	return snapshot.Write(w, r.kind, r.payload)
}

// readMsg reads one control envelope of at most maxCtrlBytes and returns
// its kind and raw payload; the caller dispatches on kind and decodes with
// snapshot.DecodeGob. A longer envelope is refused from its head.
func readMsg(r io.Reader) (string, []byte, error) {
	env, err := snapshot.ReadFrame(r, maxCtrlBytes)
	if err != nil {
		return "", nil, err
	}
	return snapshot.Parse(env)
}

// writeEvidence sends one lane upload: the Evidence header, then the
// lane's snapshot envelope verbatim, already checksummed by the attack's
// WriteSnapshot.
func writeEvidence(w io.Writer, ev Evidence, snap []byte) error {
	if len(snap) > maxLaneBytes {
		return fmt.Errorf("fleet: %d-byte lane snapshot exceeds the %d-byte lane bound", len(snap), maxLaneBytes)
	}
	if err := writeMsg(w, kindEvidence, ev); err != nil {
		return err
	}
	_, err := w.Write(snap)
	return err
}

// readExpect reads one message that must be of the given kind, decoding it
// into v. A Stop reply is surfaced as ErrStopped so callers can shut down
// cleanly from any state.
func readExpect(r io.Reader, kind string, v any) error {
	got, payload, err := readMsg(r)
	if err != nil {
		return err
	}
	if got == kindStop {
		var st Stop
		if err := snapshot.DecodeGob(payload, &st); err != nil {
			return err
		}
		return &StoppedError{Reason: st.Reason}
	}
	if got != kind {
		return fmt.Errorf("fleet: protocol error: got %q, want %q", got, kind)
	}
	return snapshot.DecodeGob(payload, v)
}

// StoppedError reports that the coordinator declared the run over.
type StoppedError struct {
	Reason string
}

func (e *StoppedError) Error() string { return "fleet: run stopped: " + e.Reason }
