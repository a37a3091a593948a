package service

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/job"
	"rc4break/internal/metrics"
	"rc4break/internal/obs"
	"rc4break/internal/online"
)

// Config configures a job server.
type Config struct {
	// Store is the content-addressed store backing the server (required).
	Store *Store
	// Capacity is the scheduler's slot count — the bound on concurrent
	// capture granules plus decode rounds. Default 2.
	Capacity int
	// TenantMaxActive caps one tenant's unfinished jobs (0 = unlimited);
	// MaxActive caps unfinished jobs across all tenants (0 = unlimited).
	// Both are admission control: Submit rejects, nothing queues outside
	// the server.
	TenantMaxActive int
	MaxActive       int
	// Logf, when non-nil, receives one narrative line per job transition.
	Logf func(format string, args ...interface{})
	// Results, when non-nil, receives one cliutil.RunResult JSON line per
	// finished job — the same schema the attack CLIs emit under -json,
	// with the job/tenant fields set.
	Results io.Writer
	// Tracer, when non-nil, records job lifecycle spans (admit, run,
	// granule, decode round — tenant-labelled) into the journal the daemon
	// serves at /debug/trace. A spec's TraceID joins the submitter's trace;
	// otherwise each job is its own trace. The granule and decode-round
	// spans also feed the latency histograms, so they time each stage
	// whether or not a Tracer is set; a nil Tracer records nothing.
	Tracer *obs.Journal
}

// Job is one admitted job: its manifest (mirrored to the store) plus the
// in-memory event log streamed by the HTTP API.
type Job struct {
	mu       sync.Mutex
	cond     *sync.Cond
	man      Manifest
	events   []Event
	terminal bool
}

func newJob(man Manifest) *Job {
	j := &Job{man: man}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// manifest returns a copy of the job's manifest.
func (j *Job) manifest() Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.man
}

// update applies edit to the job's manifest and returns the edited copy.
// Only the job's own goroutine edits its manifest; readers take copies.
func (j *Job) update(edit func(*Manifest)) Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	edit(&j.man)
	return j.man
}

// Server multiplexes concurrent online attack jobs over shared capacity.
// Lock order: Server.mu before Job.mu; neither is held across capture or
// decode work.
type Server struct {
	cfg   Config
	store *Store
	sched *Scheduler
	reg   *metrics.Registry

	obsTotal      *metrics.Counter
	roundsTotal   *metrics.Counter
	decodeSeconds *metrics.Counter

	roundSeconds   *metrics.Histogram
	granuleSeconds *metrics.Histogram
	httpSeconds    *metrics.Histogram

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job // admission order; every listing iterates this, never the map
	nextID  int
	stopped error

	resultsMu sync.Mutex
	wg        sync.WaitGroup
}

// New opens a server over cfg.Store, loading every persisted job manifest.
// Loaded jobs do not run until Resume is called — the daemon wires its HTTP
// listener first so /healthz and job status are visible during resume.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2
	}
	s := &Server{
		cfg:   cfg,
		store: cfg.Store,
		sched: NewScheduler(cfg.Capacity),
		reg:   metrics.NewRegistry(),
		jobs:  make(map[string]*Job),
	}

	mans, err := s.store.Manifests()
	if err != nil {
		return nil, err
	}
	for _, man := range mans {
		j := newJob(man)
		s.jobs[man.ID] = j
		s.order = append(s.order, j)
		if n, _ := jobNumber(man.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}

	s.obsTotal = s.reg.Counter("attackd_observations_total",
		"records/frames folded into evidence across all jobs (rate() gives records per second)")
	s.roundsTotal = s.reg.Counter("attackd_decode_rounds_total", "decode rounds completed")
	s.decodeSeconds = s.reg.Counter("attackd_decode_seconds_total",
		"time spent in decode rounds (divide by attackd_decode_rounds_total for mean round latency)")
	s.roundSeconds = s.reg.Histogram("attackd_decode_round_seconds",
		"decode round latency distribution", metrics.ExponentialBuckets(0.001, 2, 16))
	s.granuleSeconds = s.reg.Histogram("attackd_granule_seconds",
		"capture granule service time (one scheduler slot held per observation)", metrics.ExponentialBuckets(0.001, 2, 16))
	s.httpSeconds = s.reg.Histogram("attackd_http_request_seconds",
		"job API request service time", metrics.ExponentialBuckets(0.0001, 4, 10))
	metrics.RuntimeGauges(s.reg)
	for _, st := range JobStates {
		state := st
		s.reg.GaugeFunc("attackd_jobs", "jobs by lifecycle state",
			func() float64 { return float64(s.countState(state)) }, "state", state)
	}
	s.reg.GaugeFunc("attackd_queue_depth", "Acquires waiting for a scheduler slot",
		func() float64 { return float64(s.sched.Waiting()) })
	s.reg.GaugeFunc("attackd_slots_in_use", "scheduler slots currently held",
		func() float64 { return float64(s.sched.InUse()) })
	s.reg.GaugeFunc("attackd_store_blobs", "content-addressed blobs in the store",
		func() float64 {
			n, err := s.store.BlobCount()
			if err != nil {
				return -1
			}
			return float64(n)
		})
	return s, nil
}

// Registry exposes the server's metrics registry (the daemon mounts it at
// /metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Ready implements the /healthz contract: an error while draining.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped != nil {
		return fmt.Errorf("service: shutting down (%v)", s.stopped)
	}
	return nil
}

// Resume relaunches every non-terminal persisted job (queued, running —
// i.e. crashed mid-run — or suspended by a drain) and returns how many it
// started. Each resumes from its last evidence checkpoint; because capture
// granules are absolute, the resumed jobs complete byte-identically to
// never-interrupted runs.
func (s *Server) Resume() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.order {
		if finished(j.manifest().State) {
			continue
		}
		n++
		s.launch(j)
	}
	return n
}

// launch starts a job goroutine; callers hold s.mu.
func (s *Server) launch(j *Job) {
	s.wg.Add(1)
	go func(j *Job) {
		defer s.wg.Done()
		s.runJob(j)
	}(j)
}

// Submit admits one job for tenant, persists its manifest, and starts it.
func (s *Server) Submit(tenant string, spec JobSpec) (JobStatus, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return JobStatus{}, badSpec{err}
	}
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped != nil {
		return JobStatus{}, ErrDraining
	}
	total, mine := s.activeCounts(tenant)
	if s.cfg.MaxActive > 0 && total >= s.cfg.MaxActive {
		return JobStatus{}, ErrQueueFull
	}
	if s.cfg.TenantMaxActive > 0 && mine >= s.cfg.TenantMaxActive {
		return JobStatus{}, ErrTenantBusy
	}

	man := Manifest{
		ID:     fmt.Sprintf("j-%04d", s.nextID),
		Tenant: tenant,
		Spec:   spec,
		State:  StateQueued,
	}
	if err := s.store.PutManifest(man); err != nil {
		return JobStatus{}, err
	}
	s.nextID++
	j := newJob(man)
	s.jobs[man.ID] = j
	s.order = append(s.order, j)
	s.eventf(j, StateQueued, 0, 0, "admitted")
	s.cfg.Tracer.Start(traceParent(spec), "job.admit",
		obs.Str("job", man.ID), obs.Str("tenant", tenant)).End()
	s.logf("job %s (%s): admitted %s/%s", man.ID, tenant, spec.Attack, spec.Mode)
	s.launch(j)
	return statusOf(man), nil
}

// activeCounts reports unfinished jobs in total and for tenant; callers
// hold s.mu.
func (s *Server) activeCounts(tenant string) (total, mine int) {
	for _, j := range s.order {
		man := j.manifest()
		if finished(man.State) {
			continue
		}
		total++
		if man.Tenant == tenant {
			mine++
		}
	}
	return total, mine
}

// finished reports whether a job in state never runs again.
func finished(state string) bool { return state == StateDone || state == StateFailed }

// admitted returns every job in admission order.
func (s *Server) admitted() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

func (s *Server) countState(state string) int {
	n := 0
	for _, j := range s.admitted() {
		if j.manifest().State == state {
			n++
		}
	}
	return n
}

// Drain performs the graceful SIGTERM shutdown: stop admitting, wake every
// waiting job with the drain signal, let in-flight granules finish, and
// checkpoint + suspend every running job. When Drain returns the store
// holds a resumable image of every job.
func (s *Server) Drain() {
	s.stop(errDrained)
	s.logf("drained: all jobs checkpointed and suspended")
}

// Interrupt is the crash simulation used by the restart tests: jobs are
// stopped between granules WITHOUT any final checkpoint or manifest write,
// so the store holds exactly what a kill -9 would have left — the durable
// state as of the last ordinary checkpoint.
func (s *Server) Interrupt() {
	s.stop(errInterrupted)
}

func (s *Server) stop(cause error) {
	s.mu.Lock()
	if s.stopped == nil {
		s.stopped = cause
	}
	s.mu.Unlock()
	s.sched.Stop(cause)
	s.wg.Wait()
	// Unblock any event-stream readers of jobs that never reached a
	// terminal event (interrupted jobs write nothing).
	for _, j := range s.admitted() {
		j.mu.Lock()
		j.terminal = true
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// Wait blocks until every launched job goroutine has returned (jobs all
// terminal or suspended). Tests use it; the daemon uses Drain.
func (s *Server) Wait() { s.wg.Wait() }

// traceParent resolves the span parent of a job's spans: the submitter's
// trace when the spec carries a (Normalize-validated) trace_id, otherwise a
// fresh trace per job.
func traceParent(spec JobSpec) obs.SpanContext {
	var parent obs.SpanContext
	if spec.TraceID != "" {
		if id, err := job.ParseTraceID(spec.TraceID); err == nil {
			parent.Trace = id
		}
	}
	return parent
}

// runJob drives one job's online loop end to end.
func (s *Server) runJob(j *Job) {
	man := j.manifest()
	spec := man.Spec

	// The job-lifetime span brackets everything from first schedule to the
	// terminal state; granule and decode spans nest under it.
	jobSpan := s.cfg.Tracer.Start(traceParent(spec), "job.run",
		obs.Str("job", man.ID), obs.Str("tenant", man.Tenant),
		obs.Str("attack", spec.Attack), obs.Str("mode", spec.Mode),
		obs.U64("budget", spec.Budget))
	outcome := StateFailed
	defer func() {
		jobSpan.SetAttrs(obs.Str("outcome", outcome))
		jobSpan.End()
	}()
	jobCtx := jobSpan.Context()

	// Resume from the last evidence checkpoint, if any.
	evidence, err := s.evidence(man.Evidence)
	var rt *job.Runtime
	if err == nil {
		rt, err = newRuntime(spec, evidence)
	}
	if err != nil {
		outcome = s.finish(j, StateFailed, nil, man.Observed, man.Rounds, online.Result{}, err)
		return
	}

	gate := func() error {
		if err := s.sched.Acquire(man.Tenant); err != nil {
			return err
		}
		s.markRunning(j, rt.Observed())
		return nil
	}
	feed := &chunkedFeed{
		chunk:    spec.CaptureChunk,
		observed: rt.Observed,
		capture: func(target uint64) error {
			gs := s.cfg.Tracer.Start(jobCtx, "job.granule", obs.U64("target", target))
			err := rt.CaptureTo(target)
			s.granuleSeconds.ObserveDuration(gs.End())
			return err
		},
		gate:      gate,
		ungate:    s.sched.Release,
		onAdvance: func(n uint64) { s.obsTotal.Add(float64(n)) },
	}
	dec := &gatedDecoder{
		Decoder: rt.Decoder,
		feed:    feed,
		gate:    gate,
		ungate:  s.sched.Release,
		tracer:  s.cfg.Tracer,
		parent:  jobCtx,
		onRound: func(d time.Duration) {
			s.roundsTotal.Inc()
			s.decodeSeconds.Add(d.Seconds())
			s.roundSeconds.ObserveDuration(d)
		},
	}
	// The evidence already holds rounds from a previous incarnation; the
	// decoder only counts this process's rounds.
	dec.rounds = man.Rounds

	sinceCheckpoint := 0
	res, runErr := online.Run(online.Config{
		Decoder:       dec,
		Oracle:        rt.Oracle,
		Cadence:       spec.Cadence(),
		MaxCandidates: spec.MaxCandidates,
		Budget:        spec.Budget,
		Feed:          feed,
		Checkpoint: func() error {
			sinceCheckpoint++
			persist := sinceCheckpoint >= spec.CheckpointRounds
			if persist {
				sinceCheckpoint = 0
			}
			return s.checkpoint(j, rt, dec.rounds, persist)
		},
	})
	state := StateFailed
	switch {
	case runErr == nil, errors.Is(runErr, online.ErrBudgetExhausted):
		state = StateDone
	case errors.Is(runErr, errDrained):
		state = StateSuspended
	case errors.Is(runErr, errInterrupted):
		// Crash simulation: no writes, no events — the process "died".
		outcome = "interrupted"
		return
	}
	outcome = s.finish(j, state, rt, rt.Observed(), dec.rounds, res, runErr)
}

// markRunning flips a job to running on its first scheduler grant; the
// manifest write makes a subsequent crash resume it as in-flight.
func (s *Server) markRunning(j *Job, observed uint64) {
	if j.manifest().State == StateRunning {
		return
	}
	man, err := s.save(j, nil, func(m *Manifest) { m.State = StateRunning })
	if err != nil {
		s.logf("job %s: manifest write failed: %v", man.ID, err)
	}
	s.eventf(j, StateRunning, observed, 0, "first slot granted")
	s.logf("job %s (%s): running", man.ID, man.Tenant)
}

// checkpoint records round progress and, when persist is set, saves the
// evidence so a crash from here resumes at this round.
func (s *Server) checkpoint(j *Job, rt *job.Runtime, rounds int, persist bool) error {
	observed := rt.Observed()
	progress := func(m *Manifest) { m.Observed, m.Rounds = observed, rounds }
	if !persist {
		j.update(progress)
	} else if _, err := s.save(j, rt, progress); err != nil {
		return err
	}
	s.eventf(j, StateRunning, observed, rounds, "round complete, no confirmed hit")
	return nil
}

// save is the one durable write of a job transition: it applies edit to the
// job's manifest, then — when rt is set — writes rt's evidence blob and
// points the manifest at it, then writes the manifest. The blob lands before
// the manifest that names it, so a crash between the two leaves the previous
// manifest and a blob nothing references yet.
func (s *Server) save(j *Job, rt *job.Runtime, edit func(*Manifest)) (Manifest, error) {
	man := j.update(edit)
	if rt != nil {
		snap, err := rt.Evidence()
		if err != nil {
			return man, err
		}
		key, _, err := s.store.PutBlob(snap)
		if err != nil {
			return man, err
		}
		man = j.update(func(m *Manifest) { m.Evidence = hex.EncodeToString(key[:]) })
	}
	return man, s.store.PutManifest(man)
}

// finish ends a job run as done, failed or suspended and returns the state
// it reached. Done and suspended jobs save their final evidence regardless
// of CheckpointRounds (a drained job resumes from exactly where the
// scheduler stopped granting, a granule boundary); a failed job writes only
// its manifest. A done job whose save fails becomes failed.
func (s *Server) finish(j *Job, state string, rt *job.Runtime, observed uint64, rounds int, res online.Result, runErr error) string {
	if state == StateFailed {
		rt = nil
	}
	man, err := s.save(j, rt, func(m *Manifest) {
		m.State, m.Observed, m.Rounds = state, observed, rounds
		switch state {
		case StateDone:
			m.Result = JobResult{Success: runErr == nil, Plaintext: res.Plaintext,
				Rank: res.Rank, Checks: res.Checks, Skipped: res.Skipped}
			if runErr != nil {
				m.Result.Error = runErr.Error()
			}
		case StateFailed:
			m.Result.Error = runErr.Error()
		}
	})
	if err != nil {
		if state == StateDone {
			return s.finish(j, StateFailed, nil, observed, rounds, res, err)
		}
		s.logf("job %s: %s save failed: %v", man.ID, state, err)
	}
	var msg string
	switch state {
	case StateDone:
		msg = "budget exhausted without a confirmed hit"
		if runErr == nil {
			msg = fmt.Sprintf("confirmed at rank %d", res.Rank)
		}
	case StateSuspended:
		msg = "drained; resumable from checkpoint"
	default:
		msg = runErr.Error()
	}
	s.eventf(j, state, observed, rounds, msg)
	s.logf("job %s (%s): %s — %s after %d observations, %d rounds",
		man.ID, man.Tenant, state, msg, observed, rounds)
	if state != StateSuspended {
		s.emitResult(man, res, runErr)
	}
	return state
}

func (s *Server) emitResult(man Manifest, res online.Result, runErr error) {
	if s.cfg.Results == nil {
		return
	}
	r := cliutil.OnlineRunResult(man.Spec.Attack, man.Spec.Mode, res, runErr)
	r.Job = man.ID
	r.Tenant = man.Tenant
	s.resultsMu.Lock()
	defer s.resultsMu.Unlock()
	if err := r.Write(s.cfg.Results); err != nil {
		s.logf("job %s: result write failed: %v", man.ID, err)
	}
}

// eventf appends one progress event to the job's stream; a done, failed
// or suspended event ends the stream.
func (s *Server) eventf(j *Job, state string, observed uint64, round int, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, Event{
		Job: j.man.ID, Tenant: j.man.Tenant,
		Seq: len(j.events) + 1, State: state,
		Observed: observed, Round: round, Msg: msg,
	})
	if finished(state) || state == StateSuspended {
		j.terminal = true
	}
	j.cond.Broadcast()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func statusOf(man Manifest) JobStatus {
	st := JobStatus{
		ID:       man.ID,
		Tenant:   man.Tenant,
		Attack:   man.Spec.Attack,
		Mode:     man.Spec.Mode,
		State:    man.State,
		Observed: man.Observed,
		Rounds:   man.Rounds,
		Success:  man.Result.Success,
		Rank:     man.Result.Rank,
		Checks:   man.Result.Checks,
		Skipped:  man.Result.Skipped,
		Error:    man.Result.Error,
		Evidence: man.Evidence,
	}
	if len(man.Result.Plaintext) > 0 {
		st.Plaintext = hex.EncodeToString(man.Result.Plaintext)
	}
	return st
}

// Status reports one job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return statusOf(j.manifest()), nil
}

// List reports every job in admission order, optionally filtered by tenant.
func (s *Server) List(tenant string) []JobStatus {
	js := s.admitted()
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		if man := j.manifest(); tenant == "" || man.Tenant == tenant {
			out = append(out, statusOf(man))
		}
	}
	return out
}

// EventsSince blocks until the job has events past seq (or is terminal) and
// returns them plus whether the stream is complete. The streaming handler
// calls it in a loop.
func (s *Server) EventsSince(id string, seq int) ([]Event, bool, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, false, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= seq && !j.terminal {
		j.cond.Wait()
	}
	evs := append([]Event(nil), j.events[seq:]...)
	return evs, j.terminal, nil
}

// EvidenceBytes returns the job's persisted evidence blob — the exact
// snapshot-envelope bytes a solo run's WriteSnapshot produces.
func (s *Server) EvidenceBytes(id string) ([]byte, error) {
	st, err := s.Status(id)
	if err != nil {
		return nil, err
	}
	if st.Evidence == "" {
		return nil, ErrNotDone
	}
	return s.evidence(st.Evidence)
}

// evidence loads the evidence blob under a manifest's hex key; a job with
// no checkpoint yet has an empty key and no evidence.
func (s *Server) evidence(keyHex string) ([]byte, error) {
	if keyHex == "" {
		return nil, nil
	}
	key, err := ParseKey(keyHex)
	if err != nil {
		return nil, err
	}
	return s.store.GetBlob(key)
}
