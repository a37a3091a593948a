// Command fleetd is the fleet coordinator: it owns the merged evidence pool
// and the closed decode loop for one attack, leases disjoint capture lanes
// to workers over TCP, merges their uploaded lane snapshots in lane order,
// and stops the whole fleet the moment a candidate is oracle-confirmed.
// Workers are the attack drivers themselves in -fleet-worker mode:
//
//	# coordinator: 9·2^27-record cookie job in 2^24-record lanes
//	fleetd -attack cookie -listen 127.0.0.1:7100 -secret Secur3C00kieVal+ \
//	       -budget 1207959552 -lane-records 16777216 -checkpoint pool.snap
//	# workers, on as many machines as available
//	cookieattack -fleet-worker coordinator:7100 -worker-id m1
//	cookieattack -fleet-worker coordinator:7100 -worker-id m2
//
//	# TKIP: share the trained model, then the same shape
//	fleetd -attack tkip -listen 127.0.0.1:7100 -model tkip.model
//	tkipattack -fleet-worker coordinator:7100 -model tkip.model -worker-id m1
//
// Fault tolerance is lease-based: a worker that dies mid-lane simply lets
// its lease expire (-lease-ttl) and the lane is re-captured — byte-
// identically, lanes being pure functions of the job — by the next worker
// that asks. The coordinator's -checkpoint pool snapshot is the same format
// the offline tooling reads, and -resume restarts a coordinator from one
// (it must sit on a lane boundary, which per-round checkpoints always do).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/fleet"
	"rc4break/internal/job"
	"rc4break/internal/metrics"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7100", "TCP address to accept workers on")
	httpAddr := flag.String("http", "", "optional HTTP address serving /metrics and /healthz (the attackd handlers)")
	attack := flag.String("attack", "cookie", "attack to coordinate: cookie | tkip")
	mode := flag.String("mode", "model", "collection mode workers must run: model | exact")
	seed := flag.Int64("seed", 1, "job base seed; lane streams derive from it")
	budget := flag.Uint64("budget", 0, "total observation budget (0 = attack default; README \"Job spec\")")
	laneRecords := flag.Uint64("lane-records", 1<<24, "observations per capture lane")
	leaseTTL := flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "how long a silent worker holds a lane before it is re-leased")
	firstDecode := flag.Uint64("first-decode", 0, "observations at the first decode attempt (0 = attack default, clamped to -budget; README \"Job spec\")")
	decodeEvery := flag.Uint64("decode-every", 0, "observations between decode attempts (0 = geometric cadence from -first-decode)")
	depth := flag.Int("candidates", 0, "candidate walk depth per decode round (0 = attack default; README \"Job spec\")")
	workers := flag.Int("workers", 0, "parallel decode workers (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "pool snapshot written after every unsuccessful decode round (offline-tooling compatible)")
	resume := flag.String("resume", "", "pool snapshot to resume the coordinator from (must sit on a lane boundary)")
	secret := flag.String("secret", "Secur3C00kieVal+", "cookie attack: the secure cookie to recover, 1-16 characters of the RFC 6265 cookie charset")
	modelPath := flag.String("model", "", "tkip attack: model snapshot (loaded if present, otherwise trained and saved there)")
	trainKeys := flag.Uint64("trainkeys", 0, "tkip attack: training keys per TSC class when the model must be trained (0 = attack default; README \"Job spec\")")
	linger := flag.Duration("linger", 2*time.Second, "how long to keep answering workers with stop after the run finishes")
	jsonOut := flag.Bool("json", false, "append one machine-readable JSON result line to stdout")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (coordinator plus worker spans) to this file")
	flag.Parse()

	// One journal serves both sinks: the -trace-out file written at exit and
	// the live /debug/trace endpoints when -http is set. Workers' journals
	// fold into it via evidence uploads, so either sink shows the whole
	// fleet under one trace ID.
	var journal *obs.Journal
	if *traceOut != "" || *httpAddr != "" {
		journal = obs.NewJournal("fleetd", obs.DefaultCapacity)
	}

	spec := job.Spec{Attack: *attack, Mode: *mode, Seed: *seed, Budget: *budget, FirstDecode: *firstDecode,
		DecodeEvery: *decodeEvery, MaxCandidates: *depth, TrainKeys: *trainKeys, Workers: *workers}
	if *attack == "cookie" {
		spec.Secret = *secret
	}
	spec, err := spec.Normalize()
	if err != nil {
		fatal(err)
	}
	if spec.Attack == "tkip" {
		// The same fixed session and train-once model the tkipattack
		// workers load, so their fingerprints match.
		if spec.Model, err = job.LoadOrTrainModel(*modelPath, spec.TrainKeys, *workers, fleetLogf); err != nil {
			fatal(err)
		}
	}
	var evidence []byte
	if *resume != "" {
		if evidence, err = os.ReadFile(*resume); err != nil {
			fatal(fmt.Errorf("resume %s: %w", *resume, err))
		}
	}
	cfg, err := spec.Coordinator(*laneRecords, evidence)
	if err != nil {
		fatal(err)
	}
	fj := cfg.Job
	if *resume != "" {
		fleetLogf("resumed pool %s: %d observations", *resume, cfg.Pool.Observed())
	}
	// Latency histograms behind -http: lease-grant-to-upload round trips,
	// evidence ingest (validate+stage+merge), and closed-loop decode rounds.
	// The coordinator feeds them through duration hooks on its injected
	// clock, so they cost nothing when unset.
	var (
		reg           *metrics.Registry
		histRoundtrip *metrics.Histogram
		histIngest    *metrics.Histogram
		histDecode    *metrics.Histogram
	)
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
		laneBuckets := metrics.ExponentialBuckets(0.25, 2, 14)   // 250ms .. ~34min lanes
		fastBuckets := metrics.ExponentialBuckets(0.0005, 2, 16) // 500µs .. ~16s
		histRoundtrip = reg.Histogram("fleetd_lane_roundtrip_seconds", "lease grant to accepted evidence upload, per lane", laneBuckets)
		histIngest = reg.Histogram("fleetd_ingest_seconds", "evidence upload validation and staging time", fastBuckets)
		histDecode = reg.Histogram("fleetd_decode_round_seconds", "closed-loop decode round time over the merged pool", fastBuckets)
	}
	cfg.LeaseTTL, cfg.Checkpoint, cfg.Tracer, cfg.Logf = *leaseTTL, *checkpoint, journal, fleetLogf
	if reg != nil {
		cfg.ObserveLaneRoundtrip = histRoundtrip.ObserveDuration
		cfg.ObserveIngest = histIngest.ObserveDuration
		cfg.ObserveDecode = histDecode.ObserveDuration
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	coord.Serve(l)
	fmt.Printf("[fleet] coordinating %s/%s on %s: budget %d in %d lanes of %d, lease TTL %v\n",
		spec.Attack, spec.Mode, l.Addr(), fj.Budget, fj.Lanes(), fj.LaneRecords, *leaseTTL)

	// Optional observability endpoints, the same reusable handlers attackd
	// mounts: Prometheus text metrics (lane counters, latency histograms,
	// runtime gauges), a liveness probe, the live span journal as NDJSON and
	// Chrome trace-event JSON, and net/http/pprof.
	if *httpAddr != "" {
		reg.GaugeFunc("fleetd_lane_uploads_accepted", "lane snapshot uploads merged into the pool",
			func() float64 { uploads, _, _ := coord.Stats(); return float64(uploads) })
		reg.GaugeFunc("fleetd_lane_uploads_rejected", "lane snapshot uploads rejected",
			func() float64 { _, rejected, _ := coord.Stats(); return float64(rejected) })
		reg.GaugeFunc("fleetd_lanes_done", "capture lanes fully merged",
			func() float64 { _, _, lanesDone := coord.Stats(); return float64(lanesDone) })
		metrics.RuntimeGauges(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /healthz", metrics.Healthz(func() error { return nil }))
		obs.MountDebug(mux, journal)
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		httpErr := make(chan error, 1)
		go func() { httpErr <- cliutil.HTTPServer(mux).Serve(hl) }()
		go func() {
			// Nothing shuts the server down, so Serve returns only when its
			// listener fails; the coordinator keeps running without it.
			fmt.Fprintln(os.Stderr, "fleetd: -http:", <-httpErr)
		}()
		fmt.Printf("[fleet] metrics on http://%s/metrics, spans on /debug/trace\n", hl.Addr())
	}

	// SIGTERM (a service manager's stop) must flush -checkpoint as Ctrl-C
	// does: every lane merged since the last decode round lives only in
	// memory until then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, runErr := coord.Run(ctx)

	if *checkpoint != "" {
		if err := cfg.Pool.WriteSnapshotFile(*checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("[fleet] pool snapshot -> %s\n", *checkpoint)
	}
	uploads, rejected, lanesDone := coord.Stats()
	fmt.Printf("[fleet] %d lane uploads accepted, %d rejected, %d/%d lanes done\n",
		uploads, rejected, lanesDone, fj.Lanes())
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		coord.Close()
		writeJSON(*jsonOut, spec.Attack, spec.Mode, res, runErr)
		fatal(runErr)
	}
	switch o, ok := cfg.Oracle.(*tkip.TrailerOracle); {
	case runErr != nil:
		fmt.Printf("[fleet] budget exhausted after %d observations without a confirmed candidate\n", res.Observed)
	case ok:
		fleetLogf("trailer confirmed at rank %d after %d frames; MIC key %x", res.Rank, res.Observed, o.MICKey)
	default:
		fleetLogf("cookie %q confirmed at rank %d after %d records (%d rounds, %d server checks)",
			res.Plaintext, res.Rank, res.Observed, res.Rounds, res.Checks)
	}

	// Keep answering straggler workers with stop before closing, so they
	// exit cleanly instead of on a connection error. Close also ends the
	// run-level span, so the trace file is written after it, and waits out
	// every connection handler, so nothing a straggler logs can follow the
	// -json line.
	time.Sleep(*linger)
	coord.Close()
	if *traceOut != "" {
		if err := obs.WriteChromeFile(*traceOut, journal); err != nil {
			fatal(err)
		}
		fmt.Printf("[fleet] chrome trace -> %s\n", *traceOut)
	}
	writeJSON(*jsonOut, spec.Attack, spec.Mode, res, runErr)
	if runErr != nil {
		os.Exit(1)
	}
}

// fleetLogf prints one coordinator status line.
func fleetLogf(format string, args ...interface{}) {
	fmt.Printf("[fleet] "+format+"\n", args...)
}

func writeJSON(enabled bool, attack, mode string, res online.Result, err error) {
	if werr := cliutil.OnlineRunResult(attack, mode, res, err).Emit(enabled); werr != nil {
		fatal(werr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetd:", err)
	os.Exit(1)
}
