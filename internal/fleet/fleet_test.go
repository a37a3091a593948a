package fleet_test

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
	"rc4break/internal/trace"
)

// cookieTestSetup builds the shared §6 attack configuration used by both
// the fleet and its single-process equivalent: an 8-character cookie at a
// scale where the online loop confirms the cookie mid-run (round 3 of 5),
// so the early-stop path — not just budget exhaustion — is what both runs
// must agree on.
func cookieTestSetup(t *testing.T) (cookieattack.Config, string, fleet.JobSpec) {
	t.Helper()
	const secret = "C00kie8+"
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}
	fp := newCookieAttack(t, cfg).Fingerprint()
	job := fleet.JobSpec{
		Attack:      "cookie",
		Mode:        "model",
		Seed:        1,
		Budget:      9 << 27,
		LaneRecords: 1 << 27,
		Fingerprint: fp,
	}
	return cfg, secret, job
}

func newCookieAttack(t *testing.T, cfg cookieattack.Config) *cookieattack.Attack {
	t.Helper()
	a, err := cookieattack.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func cookieSnap(t *testing.T, a *cookieattack.Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// singleProcessCookieRun is the fleet's single-process equivalent: one
// online.Run whose feed captures the same lanes, with the same per-lane
// seeds, merged in the same lane order.
func singleProcessCookieRun(t *testing.T, cfg cookieattack.Config, secret string, job fleet.JobSpec, cad online.Cadence, depth int) (online.Result, error, []byte) {
	t.Helper()
	pool := newCookieAttack(t, cfg)
	lane := uint64(0)
	res, err := online.Run(online.Config{
		Decoder:       pool,
		Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
		Cadence:       cad,
		MaxCandidates: depth,
		Budget:        job.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for pool.Records < target && lane < job.Lanes() {
				_, records := job.LaneExtent(lane)
				shard, cerr := cookieattack.CollectLane(cfg, []byte(secret), job.LaneStream(lane),
					cliutil.LaneSeed(job.Seed, lane), records, 0)
				if cerr != nil {
					return cerr
				}
				if merr := pool.Merge(shard); merr != nil {
					return merr
				}
				lane++
			}
			return nil
		}),
	})
	return res, err, cookieSnap(t, pool)
}

// cookieCollect is the worker-side collect loop for model-mode cookie lanes.
func cookieCollect(cfg cookieattack.Config, secret string) func(fleet.JobSpec, fleet.Lease) ([]byte, error) {
	return func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
		a, err := cookieattack.CollectLane(cfg, []byte(secret), lease.Stream,
			cliutil.LaneSeed(job.Seed, lease.Lane), lease.Records, 0)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// fleetWorker describes one test worker: its collect hook and whether its
// Run is expected to fail (the killed worker).
type fleetWorker struct {
	id         string
	collect    func(fleet.JobSpec, fleet.Lease) ([]byte, error)
	expectFail bool
	// startAfter delays the worker's start (the rejoining worker).
	startAfter <-chan struct{}
	// dial overrides the worker's transport (the killed worker's conn is
	// severed from under it to simulate a hard crash).
	dial func(addr string) (net.Conn, error)
}

// runCookieFleet stands up a coordinator on loopback TCP, runs the given
// workers against it, and returns the coordinator's outcome and the merged
// pool snapshot.
func runCookieFleet(t *testing.T, cfg cookieattack.Config, job fleet.JobSpec, cad online.Cadence, depth int, secret string, workers []fleetWorker) (online.Result, error, []byte) {
	t.Helper()
	pool := newCookieAttack(t, cfg)
	coord, err := fleet.NewCoordinator(fleet.Config{
		Job:           job,
		Pool:          &fleet.CookiePool{Attack: pool},
		Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
		Cadence:       cad,
		MaxCandidates: depth,
		LeaseTTL:      400 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(l)
	defer coord.Close()

	var wg sync.WaitGroup
	for _, spec := range workers {
		spec := spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			if spec.startAfter != nil {
				<-spec.startAfter
			}
			w := &fleet.Worker{
				Addr:        l.Addr().String(),
				ID:          spec.id,
				Attack:      "cookie",
				Fingerprint: job.Fingerprint,
				Collect:     spec.collect,
				MaxWait:     50 * time.Millisecond,
			}
			if spec.dial != nil {
				w.Dial = func() (net.Conn, error) { return spec.dial(l.Addr().String()) }
			}
			_, err := w.Run(context.Background())
			if (err != nil) != spec.expectFail {
				t.Errorf("worker %s: err = %v, expectFail = %v", spec.id, err, spec.expectFail)
			}
		}()
	}
	res, runErr := coord.Run(context.Background())
	wg.Wait()
	return res, runErr, cookieSnap(t, pool)
}

// TestFleetMatchesSingleProcess is the subsystem's acceptance property: a
// 3-worker fleet run produces byte-identical merged evidence and the same
// first-success rank as the equivalent single-process online.Run — and a
// worker killed mid-lease, with another rejoining, still matches, because
// lanes are pure functions of the job and expired leases are re-captured.
func TestFleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		// The race job runs this test in its own dedicated step (see
		// .github/workflows/ci.yml); under -short the module-wide sweep
		// keeps only the cheaper fleet tests.
		t.Skip("skipping the full fleet acceptance run in -short mode")
	}
	cfg, secret, job := cookieTestSetup(t)
	cad := online.Cadence{First: 1 << 27}
	const depth = 1 << 13

	refRes, refErr, refSnap := singleProcessCookieRun(t, cfg, secret, job, cad, depth)
	if refErr != nil {
		t.Fatalf("single-process reference run failed: %v", refErr)
	}
	if string(refRes.Plaintext) != secret {
		t.Fatalf("reference recovered %q", refRes.Plaintext)
	}
	t.Logf("reference: rank %d at %d observations, %d rounds", refRes.Rank, refRes.Observed, refRes.Rounds)

	check := func(t *testing.T, res online.Result, err error, snap []byte) {
		t.Helper()
		if err != nil {
			t.Fatalf("fleet run failed: %v", err)
		}
		if res.Rank != refRes.Rank || res.Observed != refRes.Observed || res.Rounds != refRes.Rounds ||
			!bytes.Equal(res.Plaintext, refRes.Plaintext) {
			t.Fatalf("fleet outcome (rank=%d obs=%d rounds=%d %q) differs from single-process (rank=%d obs=%d rounds=%d %q)",
				res.Rank, res.Observed, res.Rounds, res.Plaintext,
				refRes.Rank, refRes.Observed, refRes.Rounds, refRes.Plaintext)
		}
		if res.Checks != refRes.Checks || res.Skipped != refRes.Skipped {
			t.Fatalf("oracle traffic differs: fleet %d/%d, single-process %d/%d",
				res.Checks, res.Skipped, refRes.Checks, refRes.Skipped)
		}
		if !bytes.Equal(snap, refSnap) {
			t.Fatal("fleet merged evidence differs bitwise from the single-process run")
		}
	}

	t.Run("three workers", func(t *testing.T) {
		collect := cookieCollect(cfg, secret)
		res, err, snap := runCookieFleet(t, cfg, job, cad, depth, secret, []fleetWorker{
			{id: "w1", collect: collect},
			{id: "w2", collect: collect},
			{id: "w3", collect: collect},
		})
		check(t, res, err, snap)
	})

	t.Run("worker killed mid-lease rejoins", func(t *testing.T) {
		collect := cookieCollect(cfg, secret)
		died := make(chan struct{})
		var once sync.Once
		// A hard crash: the worker's connection is severed before its
		// collect hook errors, so even the best-effort release RPC cannot
		// reach the coordinator and the lane must come back through lease
		// expiry — the fault path a real dead machine exercises.
		var doomedConn net.Conn
		killDial := func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			doomedConn = c
			return c, err
		}
		killingCollect := func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
			once.Do(func() { close(died) })
			if doomedConn != nil {
				doomedConn.Close()
			}
			return nil, errors.New("simulated worker crash")
		}
		res, err, snap := runCookieFleet(t, cfg, job, cad, depth, secret, []fleetWorker{
			{id: "doomed", collect: killingCollect, expectFail: true, dial: killDial},
			{id: "w2", collect: collect},
			{id: "w3", collect: collect},
			// The rejoined worker starts once the doomed one has died
			// holding a lease; that lease expires and its lane is
			// re-captured by whichever worker asks next.
			{id: "doomed", collect: collect, startAfter: died},
		})
		check(t, res, err, snap)
	})
}

// trueTrailer decrypts one encapsulation with the real key to obtain the
// plaintext MIC‖ICV trailer (what the model-mode sampler feeds on).
func trueTrailer(s *tkip.Session, msdu []byte) []byte {
	f := s.Encapsulate(msdu, 0)
	key := tkip.MixKey(s.TK, s.TA, 0)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	return plain[len(msdu):]
}

// TestFleetTKIPMatchesSingleProcess covers the TKIP pool: a 2-worker fleet
// over model-mode frame lanes ends (budget exhausted at toy scale) with
// bitwise-identical capture state and the same round count as the
// single-process equivalent.
func TestFleetTKIPMatchesSingleProcess(t *testing.T) {
	session := &tkip.Session{
		TK:     [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6},
		MICKey: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		TA:     [6]byte{0xaa, 0xbb, 0xcc, 0x00, 0x11, 0x22},
		DA:     [6]byte{0x33, 0x44, 0x55, 0x66, 0x77, 0x88},
		SA:     [6]byte{0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee},
	}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
	positions := tkip.TrailerPositions(len(victim.MSDU))
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/512, 3)
	trailer := trueTrailer(session, victim.MSDU)
	fp, err := model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	job := fleet.JobSpec{
		Attack:      "tkip",
		Mode:        "model",
		Seed:        7,
		Budget:      8 << 11,
		LaneRecords: 1 << 11,
		Fingerprint: fp,
	}
	cad := online.Cadence{First: 1 << 11}
	const depth = 64
	newOracle := func() *tkip.TrailerOracle {
		return &tkip.TrailerOracle{DA: session.DA, SA: session.SA, MSDU: victim.MSDU}
	}
	snap := func(a *tkip.Attack) []byte {
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	newAttack := func() *tkip.Attack {
		a, err := tkip.NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// Single-process equivalent.
	ref := newAttack()
	lane := uint64(0)
	refRes, refErr := online.Run(online.Config{
		Decoder:       ref,
		Oracle:        newOracle(),
		Cadence:       cad,
		MaxCandidates: depth,
		Budget:        job.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for ref.Frames < target && lane < job.Lanes() {
				_, frames := job.LaneExtent(lane)
				shard, err := tkip.CollectLane(model, positions, trailer, job.LaneStream(lane),
					cliutil.LaneSeed(job.Seed, lane), frames, 0)
				if err != nil {
					return err
				}
				if err := ref.Merge(shard); err != nil {
					return err
				}
				lane++
			}
			return nil
		}),
	})

	// Fleet run, 2 workers.
	pool := newAttack()
	coord, err := fleet.NewCoordinator(fleet.Config{
		Job:           job,
		Pool:          &fleet.EvidencePool{Attack: pool},
		Oracle:        newOracle(),
		Cadence:       cad,
		MaxCandidates: depth,
		LeaseTTL:      400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(l)
	defer coord.Close()

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &fleet.Worker{
				Addr:        l.Addr().String(),
				ID:          id,
				Attack:      "tkip",
				Fingerprint: fp,
				MaxWait:     50 * time.Millisecond,
				Collect: func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
					a, err := tkip.CollectLane(model, positions, trailer, lease.Stream,
						cliutil.LaneSeed(job.Seed, lease.Lane), lease.Records, 0)
					if err != nil {
						return nil, err
					}
					var buf bytes.Buffer
					if err := a.WriteSnapshot(&buf); err != nil {
						return nil, err
					}
					return buf.Bytes(), nil
				},
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	res, runErr := coord.Run(context.Background())
	wg.Wait()

	if (refErr == nil) != (runErr == nil) ||
		errors.Is(refErr, online.ErrBudgetExhausted) != errors.Is(runErr, online.ErrBudgetExhausted) {
		t.Fatalf("outcomes differ: single-process %v, fleet %v", refErr, runErr)
	}
	if res.Rounds != refRes.Rounds || res.Observed != refRes.Observed || res.Rank != refRes.Rank {
		t.Fatalf("fleet (rounds=%d obs=%d rank=%d) differs from single-process (rounds=%d obs=%d rank=%d)",
			res.Rounds, res.Observed, res.Rank, refRes.Rounds, refRes.Observed, refRes.Rank)
	}
	if !bytes.Equal(snap(pool), snap(ref)) {
		t.Fatal("fleet merged capture state differs bitwise from the single-process run")
	}
}

// TestFleetServesLanesFromTraceShards pins the trace-backed fleet path: a
// capture written to disjoint pcap shard files (split mid-lane, so the
// set must behave as one logical stream) is served lane by lane by
// workers running the strict observation-range ingest, and the
// coordinator's merged pool is byte-identical to a single process
// replaying the same exact-mode lanes in-process.
func TestFleetServesLanesFromTraceShards(t *testing.T) {
	const secret = "C00kie8+"
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}
	job := fleet.JobSpec{
		Attack:      "cookie",
		Mode:        "exact",
		Seed:        5,
		Budget:      1000,
		LaneRecords: 300,
		Fingerprint: newCookieAttack(t, cfg).Fingerprint(),
	}
	cad := online.Cadence{First: 1 << 9}
	const depth = 64
	master := make([]byte, 48)
	mrand.New(mrand.NewSource(job.Seed)).Read(master)
	newVictim := func() *netsim.HTTPSVictim {
		v, err := netsim.NewHTTPSVictim(master, req)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	wantLen := newVictim().RecordPlaintextLen()

	// Write the whole exact stream into two shard files, split mid-lane.
	dir := t.TempDir()
	shardPaths := []string{filepath.Join(dir, "shard-000.pcap"), filepath.Join(dir, "shard-001.pcap")}
	const splitAt = 700 // inside lane 2
	writeShard := func(path string, v *netsim.HTTPSVictim, records, skipBytes uint64) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pw, err := trace.NewPcapWriter(f, trace.LinkTypeEthernet)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
		if err != nil {
			t.Fatal(err)
		}
		if skipBytes > 0 {
			sw.SkipSequence(skipBytes)
		}
		if err := v.WriteTrace(sw, records); err != nil {
			t.Fatal(err)
		}
	}
	wv := newVictim()
	writeShard(shardPaths[0], wv, splitAt, 0)
	writeShard(shardPaths[1], wv, job.Budget-splitAt, uint64(wantLen+5)*splitAt)

	// Single-process equivalent: replay the exact lanes in-process.
	collectExactLane := func(lease fleet.Lease) *cookieattack.Attack {
		a := newCookieAttack(t, cfg)
		a.Stream = lease.Stream
		v := newVictim()
		v.Skip(lease.Start)
		collector := &tlsrec.CollectRequests{WantLen: wantLen}
		for i := uint64(0); i < lease.Records; i++ {
			rec := v.SendRequest()
			if err := collector.Feed(rec, func(body []byte) {
				if oerr := a.ObserveRecord(body); oerr != nil {
					t.Error(oerr)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	ref := newCookieAttack(t, cfg)
	lane := uint64(0)
	refRes, refErr := online.Run(online.Config{
		Decoder:       ref,
		Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
		Cadence:       cad,
		MaxCandidates: depth,
		Budget:        job.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for ref.Records < target && lane < job.Lanes() {
				start, records := job.LaneExtent(lane)
				shard := collectExactLane(fleet.Lease{
					Lane: lane, Start: start, Records: records, Stream: job.LaneStream(lane),
				})
				if err := ref.Merge(shard); err != nil {
					return err
				}
				lane++
			}
			return nil
		}),
	})

	// Fleet run: two workers serving lanes from the shard files.
	pool := newCookieAttack(t, cfg)
	coord, err := fleet.NewCoordinator(fleet.Config{
		Job:           job,
		Pool:          &fleet.CookiePool{Attack: pool},
		Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
		Cadence:       cad,
		MaxCandidates: depth,
		LeaseTTL:      400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(l)
	defer coord.Close()

	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &fleet.Worker{
				Addr:        l.Addr().String(),
				ID:          id,
				Attack:      "cookie",
				Fingerprint: job.Fingerprint,
				MaxWait:     50 * time.Millisecond,
				Collect: func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
					a, err := cookieattack.New(cfg)
					if err != nil {
						return nil, err
					}
					a.Stream = lease.Stream
					if _, err := cookieattack.CollectTraceFiles(a, wantLen, shardPaths,
						lease.Start, lease.Records, true); err != nil {
						return nil, err
					}
					var buf bytes.Buffer
					if err := a.WriteSnapshot(&buf); err != nil {
						return nil, err
					}
					return buf.Bytes(), nil
				},
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}()
	}
	res, runErr := coord.Run(context.Background())
	wg.Wait()

	if (refErr == nil) != (runErr == nil) ||
		errors.Is(refErr, online.ErrBudgetExhausted) != errors.Is(runErr, online.ErrBudgetExhausted) {
		t.Fatalf("outcomes differ: single-process %v, fleet %v", refErr, runErr)
	}
	if res.Rounds != refRes.Rounds || res.Observed != refRes.Observed || res.Rank != refRes.Rank {
		t.Fatalf("fleet (rounds=%d obs=%d rank=%d) differs from single-process (rounds=%d obs=%d rank=%d)",
			res.Rounds, res.Observed, res.Rank, refRes.Rounds, refRes.Observed, refRes.Rank)
	}
	if !bytes.Equal(cookieSnap(t, ref), cookieSnap(t, pool)) {
		t.Fatal("trace-served fleet evidence is not bitwise-identical to the in-process replay")
	}
}
