// Package service is the multi-tenant control plane over the online attack
// runtime: a long-running job server that accepts attack configurations
// (cookie or TKIP, model or exact capture), multiplexes many concurrent
// online.Run loops over bounded compute capacity, and persists every job
// through a content-addressed snapshot store so a restart resumes the whole
// fleet of jobs byte-identically.
//
// The layer's invariant is *scheduler transparency*: a job's evidence
// bytes, success rank, round count and oracle checks are a pure function of
// its JobSpec, never of what else the service was running, how slots were
// interleaved, or how often the process was killed and restarted. The
// mechanism is the same one the fleet layer uses — capture advances in
// absolute granules (multiples of the spec's CaptureChunk plus the absolute
// decode points), each granule's simulation RNG derives from
// cliutil.ContinuationSeed at the granule start, and exact-mode streams
// fast-forward via the victims' O(1) Skip — so any suspension point the
// scheduler or a crash can produce is a point an uninterrupted run also
// passes through. SoloRun is the reference implementation of that pure
// function; the load acceptance test pins the service against it.
package service

import (
	"errors"
	"fmt"
	"strconv"

	"rc4break/internal/obs"
	"rc4break/internal/online"
)

// Job states. A job is "queued" from admission until its first scheduler
// slot, "running" while the online loop holds or contends for slots,
// "suspended" after a graceful drain checkpointed it mid-run, and
// terminally "done" (the online loop finished — successfully or by budget
// exhaustion, see JobResult.Success) or "failed" (a runtime error).
// Queued, running and suspended jobs all resume after a restart.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSuspended = "suspended"
	StateDone      = "done"
	StateFailed    = "failed"
)

// JobStates lists every state in lifecycle order — the metrics endpoint
// exposes one jobs-by-state gauge per entry.
var JobStates = []string{StateQueued, StateRunning, StateSuspended, StateDone, StateFailed}

// Admission and lifecycle errors surfaced by Submit; the HTTP layer maps
// them to status codes (400 for a bad spec, 429 for admission limits, 503
// for draining).
var (
	ErrBadSpec    = errors.New("service: invalid job spec")
	ErrDraining   = errors.New("service: draining, not accepting jobs")
	ErrTenantBusy = errors.New("service: tenant active-job limit reached")
	ErrQueueFull  = errors.New("service: active-job capacity reached")
	ErrNotFound   = errors.New("service: no such job")
	ErrNotDone    = errors.New("service: job has not finished")
)

// badSpec is Submit's error for a spec Normalize refused: it reads as the
// refusal and matches ErrBadSpec.
type badSpec struct{ error }

func (badSpec) Is(target error) bool { return target == ErrBadSpec }

// JobSpec is the submitted attack configuration — the complete identity of
// a job's capture stream and decode schedule. Everything a job produces is
// a pure function of this struct, so two jobs with equal specs produce
// bitwise-equal evidence (and therefore share one evidence blob in the
// content-addressed store).
type JobSpec struct {
	// Attack is "cookie" (§6 HTTPS cookie recovery) or "tkip" (§5 Michael
	// MIC key recovery).
	Attack string `json:"attack"`
	// Mode is "model" (simulated sufficient statistics) or "exact" (the
	// full per-record capture path). Defaults to "model".
	Mode string `json:"mode,omitempty"`
	// Seed identifies the victim's capture stream. Exact-mode TKIP ignores
	// it (that stream is the demo session's TSC sequence).
	Seed int64 `json:"seed,omitempty"`
	// Secret is the cookie attack's target cookie value; its length sets
	// the unknown span. Unused by TKIP.
	Secret string `json:"secret,omitempty"`
	// Budget caps total observations (records or frames).
	Budget uint64 `json:"budget,omitempty"`
	// FirstDecode and DecodeEvery shape the decode cadence (geometric from
	// FirstDecode when DecodeEvery is zero — online.Cadence semantics).
	FirstDecode uint64 `json:"first_decode,omitempty"`
	DecodeEvery uint64 `json:"decode_every,omitempty"`
	// MaxCandidates bounds each round's candidate walk.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// CaptureChunk is the capture granule: the scheduler grants one slot
	// per granule, and granule boundaries are absolute multiples of this
	// value, so every possible suspension point is a point an
	// uninterrupted run also passes through. Defaults to FirstDecode/2.
	CaptureChunk uint64 `json:"capture_chunk,omitempty"`
	// CheckpointRounds persists the evidence blob every N unsuccessful
	// decode rounds (default 1 — every round). Terminal states always
	// persist.
	CheckpointRounds int `json:"checkpoint_rounds,omitempty"`
	// TrainKeys sizes the TKIP per-TSC model (keys per TSC0 class). All
	// jobs with equal TrainKeys share one trained model.
	TrainKeys uint64 `json:"train_keys,omitempty"`
	// Workers bounds per-job capture parallelism (0 = GOMAXPROCS); it
	// never affects the evidence bytes.
	Workers int `json:"workers,omitempty"`
	// TraceID, when set, joins this job's spans to a trace the submitter
	// already owns: up to 16 hex digits (a 64-bit trace ID). Empty means the
	// server mints a fresh trace per job. Purely observational — it never
	// affects scheduling or evidence.
	TraceID string `json:"trace_id,omitempty"`
}

// Normalize validates the spec and fills defaults, returning the resolved
// spec that is persisted in the manifest — so a restarted server re-derives
// the job from the manifest alone even if compiled-in defaults change.
func (s JobSpec) Normalize() (JobSpec, error) {
	switch s.Mode {
	case "":
		s.Mode = "model"
	case "model", "exact":
	default:
		return s, fmt.Errorf("service: unknown mode %q (want model or exact)", s.Mode)
	}
	switch s.Attack {
	case "cookie":
		if len(s.Secret) == 0 || len(s.Secret) > 64 {
			return s, fmt.Errorf("service: cookie secret length %d out of range [1,64]", len(s.Secret))
		}
		if s.Budget == 0 {
			s.Budget = 9 << 27
		}
		if s.FirstDecode == 0 {
			s.FirstDecode = 1 << 27
		}
		if s.MaxCandidates == 0 {
			s.MaxCandidates = 1 << 13
		}
	case "tkip":
		if s.Secret != "" {
			return s, errors.New("service: tkip jobs take no secret (the demo session is the target)")
		}
		if s.Budget == 0 {
			s.Budget = 9 << 20
		}
		if s.FirstDecode == 0 {
			s.FirstDecode = 1 << 20
		}
		if s.MaxCandidates == 0 {
			s.MaxCandidates = 1 << 20
		}
		if s.TrainKeys == 0 {
			s.TrainKeys = 1 << 12
		}
		if s.Mode == "exact" {
			// The exact stream is the demo session's TSC sequence; pinning
			// the seed makes the stream identity honest (and equal-spec
			// jobs dedup their evidence blobs).
			s.Seed = 0
		}
	default:
		return s, fmt.Errorf("service: unknown attack %q (want cookie or tkip)", s.Attack)
	}
	if s.FirstDecode > s.Budget {
		return s, fmt.Errorf("service: first decode %d beyond budget %d", s.FirstDecode, s.Budget)
	}
	if s.CaptureChunk == 0 {
		if s.CaptureChunk = s.FirstDecode / 2; s.CaptureChunk == 0 {
			s.CaptureChunk = s.FirstDecode
		}
	}
	if s.CheckpointRounds <= 0 {
		s.CheckpointRounds = 1
	}
	if s.TraceID != "" {
		if _, err := ParseTraceID(s.TraceID); err != nil {
			return s, err
		}
	}
	return s, nil
}

// ParseTraceID decodes a submitted trace_id: 1..16 hex digits, nonzero.
func ParseTraceID(s string) (obs.TraceID, error) {
	if len(s) > 16 {
		return 0, fmt.Errorf("service: trace_id %q longer than 16 hex digits", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("service: trace_id %q is not hex: %v", s, err)
	}
	if id == 0 {
		return 0, errors.New("service: trace_id must be nonzero (omit it for a fresh trace)")
	}
	return obs.TraceID(id), nil
}

func (s JobSpec) cadence() online.Cadence {
	return online.Cadence{First: s.FirstDecode, Every: s.DecodeEvery}
}

// JobResult is the persisted outcome of a finished job.
type JobResult struct {
	// Success reports an oracle-confirmed recovery; false with an empty
	// Error means budget exhaustion.
	Success   bool
	Plaintext []byte
	Rank      int
	Checks    uint64
	Skipped   uint64
	Error     string
}

// Manifest is a job's durable record in the store — everything a restarted
// server needs to resume (or report) the job: the resolved spec, the
// lifecycle state, and the content address of its evidence blob. It is
// written through the snapshot envelope (atomic temp+rename), so a crash
// never leaves a torn manifest.
type Manifest struct {
	ID     string
	Tenant string
	Spec   JobSpec
	State  string
	// Evidence is a hex BlobKey into the store; empty until the first
	// checkpoint.
	Evidence string
	// Observed and Rounds mirror the checkpointed evidence (informational;
	// the evidence blob is authoritative on resume).
	Observed uint64
	Rounds   int
	Result   JobResult
}

// Event is one progress line in a job's JSON event stream.
type Event struct {
	Job      string `json:"job"`
	Tenant   string `json:"tenant"`
	Seq      int    `json:"seq"`
	State    string `json:"state"`
	Observed uint64 `json:"observed"`
	Round    int    `json:"round,omitempty"`
	Msg      string `json:"msg,omitempty"`
}

// JobStatus is the JSON view of a manifest served by the HTTP API.
type JobStatus struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Attack    string `json:"attack"`
	Mode      string `json:"mode"`
	State     string `json:"state"`
	Observed  uint64 `json:"observed"`
	Rounds    int    `json:"rounds,omitempty"`
	Success   bool   `json:"success"`
	Plaintext string `json:"plaintext,omitempty"`
	Rank      int    `json:"rank,omitempty"`
	Checks    uint64 `json:"checks,omitempty"`
	Skipped   uint64 `json:"skipped,omitempty"`
	Error     string `json:"error,omitempty"`
	Evidence  string `json:"evidence,omitempty"`
}
