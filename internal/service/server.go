package service

import (
	"bytes"
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
	"rc4break/internal/tkip"
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

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // admission order; every listing iterates this, never the map
	nextID    int
	modelKeys map[uint64]string // TrainKeys -> persisted model blob key (hex)
	stopped   error

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
		cfg:       cfg,
		store:     cfg.Store,
		sched:     NewScheduler(cfg.Capacity),
		reg:       metrics.NewRegistry(),
		jobs:      make(map[string]*Job),
		modelKeys: make(map[uint64]string),
	}

	mans, err := s.store.Manifests()
	if err != nil {
		return nil, err
	}
	for _, man := range mans {
		s.jobs[man.ID] = newJob(man)
		s.order = append(s.order, man.ID)
		var n int
		if _, err := fmt.Sscanf(man.ID, "j-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if man.Spec.Attack == "tkip" && man.Model != "" {
			s.modelKeys[man.Spec.TrainKeys] = man.Model
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
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		state := j.man.State
		j.mu.Unlock()
		if state == StateDone || state == StateFailed {
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
		return JobStatus{}, err
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
	s.order = append(s.order, man.ID)
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
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		state, t := j.man.State, j.man.Tenant
		j.mu.Unlock()
		if state == StateDone || state == StateFailed {
			continue
		}
		total++
		if t == tenant {
			mine++
		}
	}
	return total, mine
}

func (s *Server) countState(state string) int {
	s.mu.Lock()
	js := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	n := 0
	for _, j := range js {
		j.mu.Lock()
		if j.man.State == state {
			n++
		}
		j.mu.Unlock()
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
	s.mu.Lock()
	js := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range js {
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
		if id, err := ParseTraceID(spec.TraceID); err == nil {
			parent.Trace = id
		}
	}
	return parent
}

// runJob drives one job's online loop end to end.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	man := j.man
	j.mu.Unlock()
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

	var model *tkip.PerTSCModel
	var err error
	if spec.Attack == "tkip" {
		if model, err = s.ensureModel(j, spec.TrainKeys); err != nil {
			s.finishFailed(j, 0, 0, online.Result{}, err)
			return
		}
	}
	var evidence []byte
	if man.Evidence != "" {
		key, err := ParseKey(man.Evidence)
		if err == nil {
			evidence, err = s.store.GetBlob(key)
		}
		if err != nil {
			s.finishFailed(j, man.Observed, man.Rounds, online.Result{}, err)
			return
		}
	}
	rt, err := newRuntime(spec, evidence, model)
	if err != nil {
		s.finishFailed(j, man.Observed, man.Rounds, online.Result{}, err)
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
		Cadence:       spec.cadence(),
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
	switch {
	case runErr == nil, errors.Is(runErr, online.ErrBudgetExhausted):
		outcome = StateDone
		s.finishDone(j, rt, dec.rounds, res, runErr)
	case errors.Is(runErr, errDrained):
		outcome = StateSuspended
		s.suspend(j, rt, dec.rounds)
	case errors.Is(runErr, errInterrupted):
		outcome = "interrupted"
		// Crash simulation: no writes, no events — the process "died".
	default:
		s.finishFailed(j, rt.Observed(), dec.rounds, res, runErr)
	}
}

// ensureModel trains (or reuses) the shared model for trainKeys, persists
// it content-addressed exactly once, and records its key in the job's
// manifest. N tkip jobs against the same TrainKeys hold one blob.
func (s *Server) ensureModel(j *Job, trainKeys uint64) (*tkip.PerTSCModel, error) {
	model, err := SharedModel(trainKeys)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	keyHex, ok := s.modelKeys[trainKeys]
	s.mu.Unlock()
	if !ok {
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			return nil, err
		}
		key, _, err := s.store.PutBlob(buf.Bytes())
		if err != nil {
			return nil, err
		}
		keyHex = hex.EncodeToString(key[:])
		s.mu.Lock()
		s.modelKeys[trainKeys] = keyHex
		s.mu.Unlock()
	}
	j.mu.Lock()
	j.man.Model = keyHex
	j.mu.Unlock()
	return model, nil
}

// markRunning flips a job to running on its first scheduler grant; the
// manifest write makes a subsequent crash resume it as in-flight.
func (s *Server) markRunning(j *Job, observed uint64) {
	j.mu.Lock()
	if j.man.State == StateRunning {
		j.mu.Unlock()
		return
	}
	j.man.State = StateRunning
	man := j.man
	j.mu.Unlock()
	if err := s.store.PutManifest(man); err != nil {
		s.logf("job %s: manifest write failed: %v", man.ID, err)
	}
	s.eventf(j, StateRunning, observed, 0, "first slot granted")
	s.logf("job %s (%s): running", man.ID, man.Tenant)
}

// checkpoint records round progress and, when persist is set, writes the
// evidence blob + manifest so a crash from here resumes at this round.
func (s *Server) checkpoint(j *Job, rt *job.Runtime, rounds int, persist bool) error {
	observed := rt.Observed()
	j.mu.Lock()
	j.man.Observed = observed
	j.man.Rounds = rounds
	j.mu.Unlock()
	if persist {
		snap, err := rt.Evidence()
		if err != nil {
			return err
		}
		key, _, err := s.store.PutBlob(snap)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.man.Evidence = hex.EncodeToString(key[:])
		man := j.man
		j.mu.Unlock()
		if err := s.store.PutManifest(man); err != nil {
			return err
		}
	}
	s.eventf(j, StateRunning, observed, rounds, "round complete, no confirmed hit")
	return nil
}

// persistFinal writes the job's final evidence blob (always, regardless of
// CheckpointRounds) and its terminal manifest.
func (s *Server) persistFinal(j *Job, rt *job.Runtime) error {
	snap, err := rt.Evidence()
	if err != nil {
		return err
	}
	key, _, err := s.store.PutBlob(snap)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.man.Evidence = hex.EncodeToString(key[:])
	man := j.man
	j.mu.Unlock()
	return s.store.PutManifest(man)
}

func (s *Server) finishDone(j *Job, rt *job.Runtime, rounds int, res online.Result, runErr error) {
	j.mu.Lock()
	j.man.State = StateDone
	j.man.Observed = rt.Observed()
	j.man.Rounds = rounds
	j.man.Result = JobResult{
		Success:   runErr == nil,
		Plaintext: res.Plaintext,
		Rank:      res.Rank,
		Checks:    res.Checks,
		Skipped:   res.Skipped,
	}
	if runErr != nil {
		j.man.Result.Error = runErr.Error()
	}
	man := j.man
	j.mu.Unlock()
	if err := s.persistFinal(j, rt); err != nil {
		s.finishFailed(j, man.Observed, rounds, res, err)
		return
	}
	msg := "budget exhausted without a confirmed hit"
	if runErr == nil {
		msg = fmt.Sprintf("confirmed at rank %d", res.Rank)
	}
	s.terminalEvent(j, StateDone, man.Observed, rounds, msg)
	s.logf("job %s (%s): done — %s after %d observations, %d rounds",
		man.ID, man.Tenant, msg, man.Observed, rounds)
	s.emitResult(man, res, runErr)
}

func (s *Server) finishFailed(j *Job, observed uint64, rounds int, res online.Result, cause error) {
	j.mu.Lock()
	j.man.State = StateFailed
	j.man.Observed = observed
	j.man.Rounds = rounds
	j.man.Result.Error = cause.Error()
	man := j.man
	j.mu.Unlock()
	if err := s.store.PutManifest(man); err != nil {
		s.logf("job %s: terminal manifest write failed: %v", man.ID, err)
	}
	s.terminalEvent(j, StateFailed, observed, rounds, cause.Error())
	s.logf("job %s (%s): failed: %v", man.ID, man.Tenant, cause)
	s.emitResult(man, res, cause)
}

// suspend is the drain path: checkpoint the evidence exactly where the
// scheduler stopped granting (a granule boundary) and mark the job
// suspended; Resume on a restarted server picks it up from here.
func (s *Server) suspend(j *Job, rt *job.Runtime, rounds int) {
	j.mu.Lock()
	j.man.State = StateSuspended
	j.man.Observed = rt.Observed()
	j.man.Rounds = rounds
	man := j.man
	j.mu.Unlock()
	if err := s.persistFinal(j, rt); err != nil {
		s.logf("job %s: suspend checkpoint failed: %v", man.ID, err)
	}
	s.terminalEvent(j, StateSuspended, man.Observed, rounds, "drained; resumable from checkpoint")
	s.logf("job %s (%s): suspended at %d observations", man.ID, man.Tenant, man.Observed)
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

// eventf appends one progress event to the job's stream.
func (s *Server) eventf(j *Job, state string, observed uint64, round int, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, Event{
		Job: j.man.ID, Tenant: j.man.Tenant,
		Seq: len(j.events) + 1, State: state,
		Observed: observed, Round: round, Msg: msg,
	})
	j.cond.Broadcast()
}

func (s *Server) terminalEvent(j *Job, state string, observed uint64, round int, msg string) {
	s.eventf(j, state, observed, round, msg)
	j.mu.Lock()
	j.terminal = true
	j.cond.Broadcast()
	j.mu.Unlock()
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
		Model:    man.Model,
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
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusOf(j.man), nil
}

// List reports every job in admission order, optionally filtered by tenant.
func (s *Server) List(tenant string) []JobStatus {
	s.mu.Lock()
	js := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		j.mu.Lock()
		if tenant == "" || j.man.Tenant == tenant {
			out = append(out, statusOf(j.man))
		}
		j.mu.Unlock()
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
	key, err := ParseKey(st.Evidence)
	if err != nil {
		return nil, err
	}
	return s.store.GetBlob(key)
}
