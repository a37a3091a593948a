package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// Shard is a validated, decoded lane upload awaiting its merge turn — the
// opaque value a Pool's Validate hands to its Merge.
type Shard any

// Pool is the coordinator-side evidence pool: one per attack, adapting the
// attack's snapshot/merge/decode machinery to the fleet. CookiePool and
// TKIPPool implement it. Observed, Decode, Merge and WriteSnapshotFile are
// called with the coordinator's lock held, so implementations need no
// synchronization of their own; Validate runs WITHOUT the lock (it decodes
// multi-megabyte uploads and must not stall other RPCs) and therefore may
// only read immutable pool configuration — fingerprints, the trained
// model — never mutable evidence state.
type Pool interface {
	// Observed reports the observations merged into the pool so far.
	Observed() uint64
	// Decode ranks candidates from the merged evidence (online.Decoder's
	// decode half).
	Decode(max int) (recovery.CandidateSource, error)
	// Validate decodes one lane snapshot (the attack's own envelope bytes)
	// and checks it against the pool's configuration and the lane's
	// expected identity — the same fingerprint/stream/count checks the
	// offline -merge path applies, so a bad upload is rejected at the RPC
	// layer instead of poisoning the pool.
	Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error)
	// Merge folds a validated shard into the pool.
	Merge(s Shard) error
	// WriteSnapshotFile checkpoints the merged pool (the coordinator's
	// -checkpoint file, readable by the offline -resume/-merge tooling).
	WriteSnapshotFile(path string) error
}

// Config wires one coordinator.
type Config struct {
	Job    JobSpec
	Pool   Pool
	Oracle online.Oracle
	// Cadence and MaxCandidates parameterize the decode loop exactly as in
	// a single-process online run.
	Cadence       online.Cadence
	MaxCandidates int
	// LeaseTTL bounds how long a silent worker holds a lane before it is
	// re-leased; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Checkpoint, when set, is the pool snapshot path written after every
	// unsuccessful decode round.
	Checkpoint string
	Logf       func(format string, args ...interface{})
	// Tracer, when non-nil, records the fleet span tree (fleet.run, per-lane
	// lease→upload spans, ingest, merge and decode spans, plus the online
	// runtime's per-round spans) and folds in the span records workers
	// piggyback on their uploads. A nil Tracer records nothing, but the
	// same spans still time the stages the Observe hooks report; outputs
	// are bitwise identical either way.
	Tracer *obs.Journal
	// TraceParent parents the fleet.run span (e.g. a service job's span).
	TraceParent obs.SpanContext
	// ObserveLaneRoundtrip, ObserveIngest and ObserveDecode, when non-nil,
	// receive wall-clock durations for the daemon's latency histograms:
	// lease grant to accepted upload per lane (the uploaded fleet.lane
	// span), evidence validate+stage per upload (fleet.ingest), and each
	// decode round (fleet.decode). Each is its span's End duration, so the
	// hooks work with or without a Tracer.
	ObserveLaneRoundtrip func(d time.Duration)
	ObserveIngest        func(d time.Duration)
	ObserveDecode        func(d time.Duration)
}

// DefaultLeaseTTL is the lane lease lifetime when Config.LeaseTTL is zero.
const DefaultLeaseTTL = 2 * time.Minute

// Coordinator owns the merged evidence pool and the decode loop, leases
// capture lanes to workers, and stages out-of-order lane uploads until they
// can merge in lane order. Between decode rounds — and during them — the
// pool only advances up to the current cadence target, so every decode sees
// exactly the evidence a single-process run would: the shortest lane prefix
// covering the decode point.
type Coordinator struct {
	cfg Config
	job JobSpec

	mu         sync.Mutex
	cond       *sync.Cond
	staged     map[uint64]stagedLane
	nextMerge  uint64 // lowest lane not yet merged
	mergeLimit uint64 // merge only while Observed() < mergeLimit
	stopped    bool
	stopReason string
	failure    error

	// runSpan is the root of the coordinator's trace tree; leases holds
	// each outstanding lane lease, keyed by lane. A lane is done when it is
	// merged (< nextMerge) or staged, leased while it is in leases, and
	// free otherwise.
	runSpan *obs.Span
	leases  map[uint64]lease

	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Uploads and Rejected count evidence RPCs (read via Stats).
	uploads  uint64
	rejected uint64
}

// lease is one outstanding lane lease. Its span runs from grant to accepted
// upload, release or expiry, and exists untraced too: its age is the lease
// clock, and its End times the roundtrip hook.
type lease struct {
	owner string
	span  *obs.Span
}

type stagedLane struct {
	shard   Shard
	records uint64
}

// NewCoordinator validates the configuration. A pool that already holds
// evidence (a -resume'd coordinator checkpoint) must sit on a lane
// boundary; its lanes count as merged, so only the remainder is leased out.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Pool == nil || cfg.Oracle == nil {
		return nil, errors.New("fleet: Pool and Oracle are required")
	}
	if cfg.Job.Budget == 0 || cfg.Job.LaneRecords == 0 {
		return nil, errors.New("fleet: job needs a nonzero budget and lane size")
	}
	// An unknown mode would not fail here — it would ship to every worker
	// in Welcome and deterministically kill each one's collect loop,
	// leaving all lanes leased and the coordinator waiting forever.
	if cfg.Job.Mode != "model" && cfg.Job.Mode != "exact" {
		return nil, fmt.Errorf("fleet: unknown collection mode %q (want model or exact)", cfg.Job.Mode)
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		cfg:    cfg,
		job:    cfg.Job,
		staged: make(map[uint64]stagedLane),
		conns:  make(map[net.Conn]struct{}),
		leases: make(map[uint64]lease),
	}
	c.cond = sync.NewCond(&c.mu)
	// The root span opens here, not in Run: Serve starts answering workers
	// before Run is called, and their lane spans must parent under it.
	c.runSpan = cfg.Tracer.Start(cfg.TraceParent, "fleet.run",
		obs.Str("attack", cfg.Job.Attack), obs.Str("mode", cfg.Job.Mode),
		obs.U64("budget", cfg.Job.Budget), obs.U64("lanes", cfg.Job.Lanes()))
	if obs := cfg.Pool.Observed(); obs > 0 {
		if obs > cfg.Job.Budget {
			return nil, fmt.Errorf("fleet: resumed pool holds %d observations, beyond the %d budget", obs, cfg.Job.Budget)
		}
		if obs != cfg.Job.Budget && obs%cfg.Job.LaneRecords != 0 {
			return nil, fmt.Errorf("fleet: resumed pool holds %d observations, not a multiple of the %d-record lane size", obs, cfg.Job.LaneRecords)
		}
		c.nextMerge = obs / cfg.Job.LaneRecords
		if obs == cfg.Job.Budget {
			c.nextMerge = cfg.Job.Lanes()
		}
	}
	return c, nil
}

// Job returns the coordinator's job spec.
func (c *Coordinator) Job() JobSpec { return c.job }

// Serve starts accepting worker connections on l. It returns immediately;
// Close shuts the listener and every open connection down.
func (c *Coordinator) Serve(l net.Listener) {
	c.mu.Lock()
	c.listener = l
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.conns[conn] = struct{}{}
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handleConn(conn)
				c.mu.Lock()
				delete(c.conns, conn)
				c.mu.Unlock()
			}()
		}
	}()
}

// Run drives the closed decode loop over the merged pool — online.Run with
// the coordinator itself as the evidence feed — and declares the run over
// when it returns, so every subsequent worker RPC is answered with Stop:
// the early-stop broadcast the moment a candidate is oracle-confirmed.
func (c *Coordinator) Run(ctx context.Context) (online.Result, error) {
	if ctx != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				c.Shutdown("coordinator cancelled: " + ctx.Err().Error())
			case <-done:
			}
		}()
	}
	res, err := online.Run(online.Config{
		Decoder:       coordinatorPool{c},
		Oracle:        c.cfg.Oracle,
		Cadence:       c.cfg.Cadence,
		MaxCandidates: c.cfg.MaxCandidates,
		Budget:        c.job.Budget,
		Feed:          coordinatorPool{c},
		Checkpoint:    c.checkpoint,
		Logf:          c.cfg.Logf,
		Tracer:        c.cfg.Tracer,
		TraceParent:   c.runSpan.Context(),
	})
	switch {
	case err == nil:
		c.Shutdown(fmt.Sprintf("candidate confirmed at rank %d after %d observations", res.Rank, res.Observed))
	case errors.Is(err, online.ErrBudgetExhausted):
		c.Shutdown("observation budget exhausted without a confirmed candidate")
	default:
		c.Shutdown("coordinator error: " + err.Error())
	}
	return res, err
}

// Shutdown declares the run over with the given reason. Idempotent; safe
// from any goroutine.
func (c *Coordinator) Shutdown(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped {
		c.stopped = true
		c.stopReason = reason
	}
	c.cond.Broadcast()
}

// Close stops accepting connections and closes the open ones, then waits
// for the handlers to drain. Call after Run has returned and workers have
// had their chance to hear Stop.
func (c *Coordinator) Close() {
	c.Shutdown("coordinator closed")
	c.mu.Lock()
	for lane := range c.leases {
		//rc4lint:allow maporder shutdown span flush; End order does not affect the journal's export sort
		c.endLeaseLocked(lane, obs.Str("outcome", "unresolved-at-close"))
	}
	c.runSpan.End()
	l := c.listener
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		//rc4lint:allow maporder shutdown close set; every conn is closed, order is irrelevant
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
}

// Stats reports upload counters and lane progress.
func (c *Coordinator) Stats() (uploads, rejected, lanesDone uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploads, c.rejected, c.nextMerge + uint64(len(c.staged))
}

// coordinatorPool adapts the coordinator to the online runtime's Decoder
// and Feed contracts, serializing every pool access under the coordinator
// lock so worker merges and decode rounds never interleave.
type coordinatorPool struct{ c *Coordinator }

func (p coordinatorPool) Observed() uint64 {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.c.cfg.Pool.Observed()
}

func (p coordinatorPool) Decode(max int) (recovery.CandidateSource, error) {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	span := c.cfg.Tracer.Start(c.runSpan.Context(), "fleet.decode",
		obs.U64("observed", c.cfg.Pool.Observed()), obs.Int("max", int64(max)))
	src, err := c.cfg.Pool.Decode(max)
	d := span.End()
	if c.cfg.ObserveDecode != nil {
		c.cfg.ObserveDecode(d)
	}
	return src, err
}

// AdvanceTo raises the merge limit to target, folds in any staged lanes it
// unblocks, and waits for workers to deliver the rest. The limit is what
// keeps fleet decodes deterministic: lanes that arrive early stay staged
// until a later decode round needs them, so the pool state at every decode
// is the shortest lane prefix covering the cadence point — independent of
// worker timing.
func (p coordinatorPool) AdvanceTo(target uint64) error {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if target > c.mergeLimit {
		c.mergeLimit = target
	}
	c.mergeStagedLocked()
	for c.failure == nil && !c.stopped && c.cfg.Pool.Observed() < target {
		c.cond.Wait()
	}
	if c.failure != nil {
		return c.failure
	}
	if c.stopped {
		return &StoppedError{Reason: c.stopReason}
	}
	return nil
}

// mergeStagedLocked merges staged lanes, in lane order, while the pool is
// below the merge limit.
func (c *Coordinator) mergeStagedLocked() {
	for c.failure == nil && c.cfg.Pool.Observed() < c.mergeLimit {
		st, ok := c.staged[c.nextMerge]
		if !ok {
			return
		}
		ms := c.cfg.Tracer.Start(c.runSpan.Context(), "fleet.merge",
			obs.U64("lane", c.nextMerge), obs.U64("records", st.records))
		err := c.cfg.Pool.Merge(st.shard)
		ms.End()
		if err != nil {
			c.failure = fmt.Errorf("fleet: merging lane %d: %w", c.nextMerge, err)
			c.cond.Broadcast()
			return
		}
		delete(c.staged, c.nextMerge)
		c.nextMerge++
		c.logf("merged lane %d (pool now %d observations)", c.nextMerge-1, c.cfg.Pool.Observed())
	}
}

func (c *Coordinator) checkpoint() error {
	if c.cfg.Checkpoint == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Pool.WriteSnapshotFile(c.cfg.Checkpoint)
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// handleConn answers one worker connection's RPCs until it disconnects.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return
		}
		var rep wireReply
		switch kind {
		case kindHello:
			var h Hello
			if err := snapshot.DecodeGob(payload, &h); err != nil {
				return
			}
			rep = c.handleHello(h)
		case kindLeaseRequest:
			var lr LeaseRequest
			if err := snapshot.DecodeGob(payload, &lr); err != nil {
				return
			}
			rep = c.handleLease(lr)
		case kindEvidence:
			var ev Evidence
			if err := snapshot.DecodeGob(payload, &ev); err != nil {
				return
			}
			rep = reply(kindAck, c.handleEvidence(ev))
		case kindRelease:
			var rl Release
			if err := snapshot.DecodeGob(payload, &rl); err != nil {
				return
			}
			rep = reply(kindAck, c.handleRelease(rl))
		default:
			rep = reply(kindStop, Stop{Reason: fmt.Sprintf("unknown message kind %q", kind)})
		}
		if err := writeReply(conn, rep); err != nil {
			return
		}
	}
}

func (c *Coordinator) handleHello(h Hello) wireReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return reply(kindStop, Stop{Reason: c.stopReason})
	}
	if h.Fingerprint != c.job.Fingerprint {
		c.logf("worker %s turned away: attack fingerprint mismatch", h.Worker)
		return reply(kindStop, Stop{Reason: "attack configuration fingerprint does not match the job (check the worker's flags)"})
	}
	c.logf("worker %s joined", h.Worker)
	// Instantaneous marker span: worker joins (and rejoins after a
	// disconnect) show up on the coordinator timeline.
	c.cfg.Tracer.Start(c.runSpan.Context(), "fleet.join", obs.Str("worker", h.Worker)).End()
	return reply(kindWelcome, Welcome{Job: c.job})
}

func (c *Coordinator) handleLease(lr LeaseRequest) wireReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return reply(kindStop, Stop{Reason: c.stopReason})
	}
	// One pass in lane order expires every lapsed lease and picks the
	// lowest lane that is neither done nor leased.
	var lane uint64
	ok := false
	for l := c.nextMerge; l < c.job.Lanes(); l++ {
		if ls, leased := c.leases[l]; leased {
			if ls.span.Age() < c.cfg.LeaseTTL {
				continue
			}
			c.logf("lease on lane %d expired; re-leasing", l)
			c.endLeaseLocked(l, obs.Str("outcome", "expired"))
		}
		if _, staged := c.staged[l]; !staged && !ok {
			lane, ok = l, true
		}
	}
	if !ok {
		// Nothing leasable right now. Workers must not give up: a lease can
		// expire and put its lane back. Suggest re-asking after a fraction
		// of a TTL, capped so idle workers still hear the early-stop within
		// a second of the run finishing.
		after := c.cfg.LeaseTTL / 4
		if after > time.Second {
			after = time.Second
		}
		return reply(kindWait, Wait{After: after})
	}
	start, records := c.job.LaneExtent(lane)
	c.logf("leased lane %d (observations %d..%d) to %s", lane, start, start+records, lr.Worker)
	// The lane span covers lease grant through accepted upload, release or
	// expiry; its context rides in the lease so the worker's collect span
	// nests under it across the process boundary.
	span := c.cfg.Tracer.Start(c.runSpan.Context(), "fleet.lane",
		obs.U64("lane", lane), obs.Str("worker", lr.Worker), obs.U64("records", records))
	span.SetTrack(int64(lane))
	sc := span.Context()
	c.leases[lane] = lease{owner: lr.Worker, span: span}
	return reply(kindLease, Lease{
		Lane:    lane,
		Start:   start,
		Records: records,
		Stream:  c.job.LaneStream(lane),
		TTL:     c.cfg.LeaseTTL,
		Trace:   uint64(sc.Trace),
		Span:    uint64(sc.Span),
	})
}

// handleRelease returns a failed worker's lane to the pool immediately —
// only the current owner's release counts (anyone else's lease already
// expired or was reassigned, so theirs is ignored).
func (c *Coordinator) handleRelease(rl Release) Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ls, ok := c.leases[rl.Lane]; ok && ls.owner == rl.Worker {
		c.endLeaseLocked(rl.Lane, obs.Str("outcome", "released"))
		c.logf("worker %s released lane %d", rl.Worker, rl.Lane)
	}
	return Ack{Lane: rl.Lane, OK: true, Merged: c.cfg.Pool.Observed(), Stop: c.stopped}
}

// handleEvidence validates and stages one lane upload. Rejections mirror
// the offline -merge path: mismatched identity, wrong record count, or a
// lane whose observations are already counted (the duplicate a re-leased
// lane's original owner produces when it wakes up late) are refused and the
// worker told why; its capture work is already covered, so the refusal is
// informational, not fatal. The expensive part — decoding the snapshot —
// runs between two short locked sections so concurrent RPCs (and the
// decode loop) are never stalled behind a gob decode.
func (c *Coordinator) handleEvidence(ev Evidence) Ack {
	// Fold the worker's piggybacked spans first, acceptance aside: even a
	// rejected duplicate represents real capture work worth rendering.
	c.cfg.Tracer.Fold(ev.Spans)
	if ack, proceed := c.precheckEvidence(ev); !proceed {
		return ack
	}
	ingest := c.cfg.Tracer.Start(c.laneSpanContext(ev.Lane), "fleet.ingest",
		obs.U64("lane", ev.Lane), obs.Str("worker", ev.Worker), obs.Int("bytes", int64(len(ev.Snapshot))))
	// Unlocked: Validate only reads immutable pool configuration (see the
	// Pool contract), so it can overlap other uploads, leases, and decode.
	want := c.job.LaneStream(ev.Lane)
	shard, err := c.cfg.Pool.Validate(ev.Snapshot, want, ev.Records)

	c.mu.Lock()
	defer c.mu.Unlock()
	if d := ingest.End(); c.cfg.ObserveIngest != nil {
		c.cfg.ObserveIngest(d)
	}
	if err != nil {
		return c.rejectLocked(ev, "lane snapshot invalid: %v", err)
	}
	// Re-check for a duplicate: another worker may have staged this lane
	// while we were decoding.
	if dup := c.duplicateLocked(ev.Lane); dup {
		return c.rejectLocked(ev, "duplicate upload for stream %s/seed %d/lane %d — its observations are already counted",
			want.Mode, want.Seed, want.Lane)
	}
	c.staged[ev.Lane] = stagedLane{shard: shard, records: ev.Records}
	c.uploads++
	if _, ok := c.leases[ev.Lane]; ok {
		d := c.endLeaseLocked(ev.Lane, obs.Str("outcome", "uploaded"), obs.Str("uploader", ev.Worker))
		if c.cfg.ObserveLaneRoundtrip != nil {
			c.cfg.ObserveLaneRoundtrip(d)
		}
	}
	c.mergeStagedLocked()
	c.cond.Broadcast()
	return Ack{Lane: ev.Lane, OK: true, Merged: c.cfg.Pool.Observed(), Stop: c.stopped}
}

// endLeaseLocked resolves lane's outstanding lease: its span ends with the
// given outcome attributes, and the span's duration is returned.
func (c *Coordinator) endLeaseLocked(lane uint64, attrs ...obs.Attr) time.Duration {
	ls := c.leases[lane]
	delete(c.leases, lane)
	ls.span.SetAttrs(attrs...)
	return ls.span.End()
}

// laneSpanContext returns the outstanding lane span's context (zero when
// untraced or the lease already resolved) for parenting ingest spans.
func (c *Coordinator) laneSpanContext(lane uint64) obs.SpanContext {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ls, ok := c.leases[lane]; ok {
		return ls.span.Context()
	}
	return c.runSpan.Context()
}

// precheckEvidence runs the cheap upload checks under the lock; proceed is
// false when the returned rejection ack is final.
func (c *Coordinator) precheckEvidence(ev Evidence) (Ack, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return c.rejectLocked(ev, "run already finished: %s", c.stopReason), false
	}
	if ev.Lane >= c.job.Lanes() {
		return c.rejectLocked(ev, "lane %d outside the job's %d lanes", ev.Lane, c.job.Lanes()), false
	}
	want := c.job.LaneStream(ev.Lane)
	if ev.Stream != want {
		return c.rejectLocked(ev, "stream identity %s/seed %d/lane %d does not match the lease (%s/seed %d/lane %d)",
			ev.Stream.Mode, ev.Stream.Seed, ev.Stream.Lane, want.Mode, want.Seed, want.Lane), false
	}
	_, wantRecords := c.job.LaneExtent(ev.Lane)
	if ev.Records != wantRecords {
		return c.rejectLocked(ev, "lane carries %d observations, lease specified %d", ev.Records, wantRecords), false
	}
	if c.duplicateLocked(ev.Lane) {
		return c.rejectLocked(ev, "duplicate upload for stream %s/seed %d/lane %d — its observations are already counted",
			want.Mode, want.Seed, want.Lane), false
	}
	return Ack{}, true
}

// duplicateLocked reports whether the lane's observations are already
// staged or merged.
func (c *Coordinator) duplicateLocked(lane uint64) bool {
	_, staged := c.staged[lane]
	return staged || lane < c.nextMerge
}

func (c *Coordinator) rejectLocked(ev Evidence, format string, args ...interface{}) Ack {
	c.rejected++
	msg := fmt.Sprintf(format, args...)
	c.logf("rejected lane %d upload from %s: %s", ev.Lane, ev.Worker, msg)
	return Ack{Lane: ev.Lane, Err: msg, Merged: c.cfg.Pool.Observed(), Stop: c.stopped}
}
