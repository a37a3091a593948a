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
// mechanism is job.Runtime.CaptureTo's, which the attack CLIs share:
// capture advances in absolute granules (multiples of the spec's
// CaptureChunk plus the absolute decode points), each granule's simulation
// RNG derives from cliutil.ContinuationSeed at the granule start, and
// exact-mode streams fast-forward via the victims' O(1) Skip — so any
// suspension point the scheduler or a crash can produce is a point an
// uninterrupted run also passes through. The service adds only a scheduler
// slot per granule and per decode round. SoloRun is the reference
// implementation of that pure function; the load acceptance test pins the
// service against it.
package service

import (
	"errors"

	"rc4break/internal/job"
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

// JobSpec is the submitted attack configuration: the one job description
// every front end shares. Everything a job produces is a pure function of
// its normalized spec, so two jobs with equal specs produce bitwise-equal
// evidence (and therefore share one evidence blob in the content-addressed
// store).
type JobSpec = job.Spec

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
