package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/service"
	"rc4break/internal/snapshot"
)

// fleetWorkers is the loopback fleet's worker count.
const fleetWorkers = 2

// fleetSpec is the canonical cookie job with 2^10 candidates per round, so
// lane transfer and merge stay a visible share of each job next to decode.
func fleetSpec(v netsim.SimVictim) service.JobSpec {
	spec := cookieModelSpec(v)
	spec.MaxCandidates = 1 << 10
	return spec
}

// fleetJobSpec cuts a cookie job into lanes of one decode step each.
func fleetJobSpec(spec service.JobSpec, fp [16]byte) fleet.JobSpec {
	return fleet.JobSpec{Attack: "cookie", Mode: "model", Seed: spec.Seed, Budget: spec.Budget,
		LaneRecords: spec.FirstDecode, Fingerprint: fp}
}

// runFleetJob runs one cookie job on a coordinator plus fleetWorkers
// in-process workers over loopback TCP, and returns the coordinator's result
// and its merged evidence. With lay set, the pool, oracle and collect loop
// carry layer timers.
func runFleetJob(spec service.JobSpec, lay *layers) (online.Result, []byte, error) {
	cfg, _, err := cookieConfig(spec.Secret)
	if err != nil {
		return online.Result{}, nil, err
	}
	pool, err := cookieattack.New(cfg)
	if err != nil {
		return online.Result{}, nil, err
	}
	secret := []byte(spec.Secret)
	job := fleetJobSpec(spec, pool.Fingerprint())
	fc := fleet.Config{
		Job:           job,
		Pool:          &fleet.CookiePool{Attack: pool},
		Oracle:        &netsim.CookieServer{Secret: secret},
		Cadence:       online.Cadence{First: spec.FirstDecode, Every: spec.DecodeEvery},
		MaxCandidates: spec.MaxCandidates,
		LeaseTTL:      30 * time.Second,
	}
	if lay != nil {
		fc.Pool = &timedPool{CookiePool: &fleet.CookiePool{Attack: pool}, dec: &cookieDecoder{a: pool, cfg: cfg, l: lay}, l: lay}
		fc.Oracle = &timedOracle{o: fc.Oracle, l: lay}
		fc.ObserveLaneRoundtrip = func(d time.Duration) { lay.sample("fleet.lane_roundtrip_s", d.Seconds()) }
		fc.ObserveIngest = func(d time.Duration) { lay.add("fleet.ingest_s", d) }
	}
	coord, err := fleet.NewCoordinator(fc)
	if err != nil {
		return online.Result{}, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return online.Result{}, nil, err
	}
	coord.Serve(l)

	collect := func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
		t0 := time.Now()
		a, err := cookieattack.CollectLane(cfg, secret, lease.Stream, cliutil.LaneSeed(job.Seed, lease.Lane), lease.Records, 0)
		lay.since("cookieattack.simulate_s", t0)
		if err != nil {
			return nil, err
		}
		snap, err := encode(a.WriteSnapshot, lay)
		lay.since("fleet.collect_s", t0)
		return snap, err
	}
	var wg sync.WaitGroup
	werrs := make([]error, fleetWorkers)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Workers that run out of lanes poll every 20 ms, so they hear
			// the early stop and the job ends within a poll of the result.
			w := &fleet.Worker{Addr: l.Addr().String(), ID: fmt.Sprintf("w%d", i+1), Attack: "cookie",
				Fingerprint: job.Fingerprint, MaxWait: 20 * time.Millisecond, Collect: collect}
			_, werrs[i] = w.Run(context.Background())
		}(i)
	}
	res, runErr := coord.Run(context.Background())
	wg.Wait()
	uploads, rejected, _ := coord.Stats()
	coord.Close()
	lay.count("fleet.uploads", float64(uploads))
	lay.count("fleet.rejected", float64(rejected))
	lay.addResult(res)
	for _, err := range werrs {
		// A worker that joins after the run ended is turned away; that is
		// not a failure.
		var stopped *fleet.StoppedError
		if err != nil && !errors.As(err, &stopped) {
			return res, nil, err
		}
	}
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return res, nil, runErr
	}
	snap, err := encode(pool.WriteSnapshot, nil)
	if err != nil {
		return res, nil, err
	}
	return res, snap, runErr
}

// replayFleetJob is the single-process run over the same lanes, in lane
// order, that a fleet run must reproduce bitwise.
func replayFleetJob(spec service.JobSpec) (online.Result, []byte, error) {
	cfg, _, err := cookieConfig(spec.Secret)
	if err != nil {
		return online.Result{}, nil, err
	}
	single, err := cookieattack.New(cfg)
	if err != nil {
		return online.Result{}, nil, err
	}
	secret := []byte(spec.Secret)
	job := fleetJobSpec(spec, single.Fingerprint())
	lane := uint64(0)
	res, runErr := online.Run(online.Config{
		Decoder:       single,
		Oracle:        &netsim.CookieServer{Secret: secret},
		Cadence:       online.Cadence{First: spec.FirstDecode, Every: spec.DecodeEvery},
		MaxCandidates: spec.MaxCandidates,
		Budget:        job.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for ; single.Records < target && lane < job.Lanes(); lane++ {
				_, records := job.LaneExtent(lane)
				shard, err := cookieattack.CollectLane(cfg, secret, job.LaneStream(lane), cliutil.LaneSeed(job.Seed, lane), records, 0)
				if err != nil {
					return err
				}
				if err := single.Merge(shard); err != nil {
					return err
				}
			}
			return nil
		}),
	})
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return res, nil, runErr
	}
	snap, err := encode(single.WriteSnapshot, nil)
	if err != nil {
		return res, nil, err
	}
	return res, snap, runErr
}

// timedPool is fleet.CookiePool with layer timers: Validate is the lane
// snapshot decode, Merge the in-order merge, and Decode the coordinator's
// decode split at the likelihood/list-Viterbi boundary.
type timedPool struct {
	*fleet.CookiePool
	dec *cookieDecoder
	l   *layers
}

func (p *timedPool) Decode(max int) (recovery.CandidateSource, error) {
	t0 := time.Now()
	src, err := p.dec.Decode(max)
	p.l.since("fleet.decode_s", t0)
	return src, err
}

func (p *timedPool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (fleet.Shard, error) {
	t0 := time.Now()
	s, err := p.CookiePool.Validate(snap, want, records)
	p.l.since("snapshot.decode_s", t0)
	return s, err
}

func (p *timedPool) Merge(s fleet.Shard) error {
	t0 := time.Now()
	err := p.CookiePool.Merge(s)
	p.l.since("fleet.merge_s", t0)
	return err
}

// runFleetCookie runs the canonical cookie job on a loopback fleet, job by
// job; each job's outcome must equal a single-process replay of its lanes.
func runFleetCookie(b *bench) error {
	var jl jobList
	err := b.setup(func(int) error {
		pop := netsim.Population(netsim.PopulationConfig{Victims: b.jobs, Seed: b.opts.seed})
		var err error
		if jl, err = newJobList(pop, b.jobs, fleetSpec); err != nil {
			return err
		}
		// Warm-up: a one-lane fleet job — coordinator and worker bring-up,
		// one lane over the wire, one decode.
		warm := jl.specs[0]
		warm.Budget = warm.FirstDecode
		_, _, err = runFleetJob(warm, nil)
		if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.budget = []string{"online.capture_s", "cookieattack.likelihood_s", "recovery.viterbi_s",
		"recovery.enumerate_s", "oracle.check_s"}
	b.parallel = []string{"fleet.collect_s", "cookieattack.simulate_s", "snapshot.encode_s",
		"fleet.ingest_s", "snapshot.decode_s", "fleet.merge_s"}
	u := b.runJobs(jl, func(spec service.JobSpec) (online.Result, []byte, error) { return runFleetJob(spec, nil) })
	b.main = u
	if b.opts.trace {
		lay := b.lay
		t := b.runJobs(jl, func(spec service.JobSpec) (online.Result, []byte, error) { return runFleetJob(spec, lay) })
		b.untraced, b.main = u, t
		b.checkSame(t, u, "the untraced fleet run")
	}
	b.peakRSS = peakRSSMB()
	b.checkSame(b.main, b.runJobs(jl, replayFleetJob), "a single-process replay of its lanes")
	b.checkRecovered(b.main, jl.specs)
	return nil
}
