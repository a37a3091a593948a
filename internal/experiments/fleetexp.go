package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

// FleetParams controls the fleet-versus-single-process comparison.
type FleetParams struct {
	// Workers is the fleet's worker count; default 3.
	Workers int
	// Budget, LaneRecords and First shape the job; defaults 9·2^27 records
	// in 2^27-record lanes with the first decode at 2^27.
	Budget, LaneRecords, First uint64
	// Candidates is the per-round list depth; default 2^13.
	Candidates int
	// Secret is the cookie under attack; default an 8-character cookie (a
	// scale where the online loop confirms mid-run on one laptop).
	Secret string
	Seed   int64
	// DecodeWorkers bounds decode parallelism (0 = GOMAXPROCS).
	DecodeWorkers int
}

func (p FleetParams) withDefaults() FleetParams {
	if p.Workers == 0 {
		p.Workers = 3
	}
	if p.Budget == 0 {
		p.Budget = 9 << 27
	}
	if p.LaneRecords == 0 {
		p.LaneRecords = 1 << 27
	}
	if p.First == 0 {
		p.First = 1 << 27
	}
	if p.Candidates == 0 {
		p.Candidates = 1 << 13
	}
	if p.Secret == "" {
		p.Secret = "C00kie8+"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// FleetVsSingle runs the §6 online cookie attack twice over identical lane
// evidence — once as a single process, once as a coordinator with an
// in-process worker fleet on loopback TCP — and reports both records-to-
// first-success outcomes side by side. The two runs must agree exactly
// (same success point, same rank, bitwise-identical merged evidence); any
// divergence is returned as an error, making this the experiment-level
// witness of the fleet's determinism guarantee, and the wall-clock column
// shows what the fleet layer itself costs.
func FleetVsSingle(p FleetParams) (Result, error) {
	p = p.withDefaults()
	spec := job.Spec{Attack: "cookie", Secret: p.Secret, Workers: p.DecodeWorkers}
	cfg, _, err := job.CookieLayout(p.Secret)
	if err != nil {
		return Result{}, err
	}
	fj := fleet.JobSpec{
		Attack:      "cookie",
		Mode:        "model",
		Seed:        p.Seed,
		Budget:      p.Budget,
		LaneRecords: p.LaneRecords,
	}
	cad := online.Cadence{First: p.First}
	snap := func(a *cookieattack.Attack) ([]byte, error) {
		var buf bytes.Buffer
		err := a.WriteSnapshot(&buf)
		return buf.Bytes(), err
	}

	// Single-process run: same lanes, same order, no network — and an
	// independent reference for the fleet's lane capture, which goes
	// through job.Spec.CollectLane.
	single, err := cookieattack.New(cfg)
	if err != nil {
		return Result{}, err
	}
	single.Workers = p.DecodeWorkers
	lane := uint64(0)
	t0 := time.Now()
	singleRes, singleErr := online.Run(online.Config{
		Decoder:       single,
		Oracle:        &netsim.CookieServer{Secret: []byte(p.Secret)},
		Cadence:       cad,
		MaxCandidates: p.Candidates,
		Budget:        fj.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for single.Records < target && lane < fj.Lanes() {
				_, records := fj.LaneExtent(lane)
				shard, err := cookieattack.CollectLane(cfg, []byte(p.Secret), fj.LaneStream(lane),
					cliutil.LaneSeed(fj.Seed, lane), records, p.DecodeWorkers)
				if err != nil {
					return err
				}
				if err := single.Merge(shard); err != nil {
					return err
				}
				lane++
			}
			return nil
		}),
	})
	singleTime := time.Since(t0)
	if singleErr != nil && !errors.Is(singleErr, online.ErrBudgetExhausted) {
		return Result{}, singleErr
	}

	// Fleet run: coordinator plus p.Workers workers over loopback TCP.
	pool, oracle, err := spec.Pool(nil)
	if err != nil {
		return Result{}, err
	}
	if fj.Fingerprint, err = spec.Fingerprint(); err != nil {
		return Result{}, err
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Job:           fj,
		Pool:          pool,
		Oracle:        oracle,
		Cadence:       cad,
		MaxCandidates: p.Candidates,
		LeaseTTL:      30 * time.Second,
	})
	if err != nil {
		return Result{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	coord.Serve(l)
	defer coord.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, p.Workers)
	for i := 0; i < p.Workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &fleet.Worker{
				Addr:        l.Addr().String(),
				ID:          fmt.Sprintf("w%d", i+1),
				Attack:      "cookie",
				Fingerprint: fj.Fingerprint,
				MaxWait:     100 * time.Millisecond,
				Collect:     spec.CollectLane,
			}
			_, workerErrs[i] = w.Run(context.Background())
		}()
	}
	t0 = time.Now()
	fleetRes, fleetErr := coord.Run(context.Background())
	fleetTime := time.Since(t0)
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			return Result{}, fmt.Errorf("fleet worker %d: %w", i+1, werr)
		}
	}
	if fleetErr != nil && !errors.Is(fleetErr, online.ErrBudgetExhausted) {
		return Result{}, fleetErr
	}

	// The determinism contract: identical outcome and identical evidence.
	if (singleErr == nil) != (fleetErr == nil) ||
		singleRes.Rank != fleetRes.Rank || singleRes.Observed != fleetRes.Observed ||
		!bytes.Equal(singleRes.Plaintext, fleetRes.Plaintext) {
		return Result{}, fmt.Errorf("fleet outcome diverged from single process: single (rank=%d obs=%d err=%v) vs fleet (rank=%d obs=%d err=%v)",
			singleRes.Rank, singleRes.Observed, singleErr, fleetRes.Rank, fleetRes.Observed, fleetErr)
	}
	singleSnap, err := snap(single)
	if err != nil {
		return Result{}, err
	}
	fleetSnap, err := snap(pool.(*fleet.CookiePool).Attack)
	if err != nil {
		return Result{}, err
	}
	if !bytes.Equal(singleSnap, fleetSnap) {
		return Result{}, errors.New("fleet merged evidence is not bitwise-identical to the single-process run")
	}

	notes := "identical evidence and outcome (bitwise)"
	if singleErr == nil {
		saved := float64(p.Budget-singleRes.Observed) / netsim.HTTPSRequestsPerSecond / 3600
		notes += fmt.Sprintf("; early stop saved %.1f h of capture vs the fixed budget", saved)
	} else {
		notes += "; both runs exhausted the budget"
	}
	row := func(label string, res online.Result, d time.Duration) Row {
		return Row{Label: label, Values: []float64{
			float64(res.Observed) / (1 << 20),
			float64(res.Rank),
			float64(res.Rounds),
			d.Seconds(),
		}}
	}
	return Result{
		ID:      "Fleet §6",
		Title:   fmt.Sprintf("Distributed fleet vs single process (%d workers, %d lanes)", p.Workers, fj.Lanes()),
		Columns: []string{"records x2^20", "rank", "rounds", "wall-clock s"},
		Rows: []Row{
			row("single-process", singleRes, singleTime),
			row(fmt.Sprintf("fleet-%dw", p.Workers), fleetRes, fleetTime),
		},
		Notes: notes,
	}, nil
}
