package job

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/fleet"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// CLI is one attack-command run once its flags are parsed: the flow the
// cookie and TKIP commands share. The job's schedule is the runtime's
// spec. Offline runs collect this shard to the spec's Budget (resumed
// observations included), checkpoint it, pool the Merge shards, and
// recover in a single final online.Run round at the pooled observation
// count. Online runs capture and decode on the spec's Cadence until the
// oracle confirms a candidate or Budget is spent. Every round walks up to
// MaxCandidates. Both end in the same summary and -json result.
type CLI struct {
	// Checkpoint, when set, receives the shard's snapshot: after offline
	// collection (before any merge), and after every online round.
	Checkpoint      string
	CheckpointEvery uint64
	// Merge lists shard snapshots to pool before offline recovery.
	Merge       []string
	CollectOnly bool
	Online      bool
	JSON        bool
	// Live describes n observations at the attack's live capture rate.
	Live func(n uint64) string
	// Recovered prints the attack's own lines after a confirmed hit and
	// returns the value the -json result reports as recovered.
	Recovered func(res online.Result) []byte
}

// Resume builds spec's runtime, resumed from the snapshot file at path
// when path is set.
func Resume(spec Spec, path string) (*Runtime, error) {
	var evidence []byte
	if path != "" {
		var err error
		if evidence, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("resume %s: %w", path, err)
		}
	}
	rt, err := New(spec, evidence)
	if err == nil && path != "" {
		fmt.Printf("      resumed %s: %d %s of evidence\n", path, rt.Observed(), rt.Unit)
	}
	return rt, err
}

// Run drives rt through the command's flow. It returns
// cliutil.ErrInterrupted after a flushed SIGINT, and an error after a
// failed attack, once the -json result is out.
func (c CLI) Run(rt *Runtime) error {
	spec := rt.spec
	cfg := online.Config{Decoder: rt.Decoder, Oracle: rt.Oracle, MaxCandidates: spec.MaxCandidates, Logf: cliutil.IndentLogf}
	if c.Online {
		switch {
		case c.CollectOnly || len(c.Merge) > 0:
			return errors.New("-online composes with -checkpoint/-resume; -merge and -collect-only are offline-pool workflows")
		case rt.mode == "trace":
			return errors.New("-online captures live; -pcap is an offline/fleet ingest path")
		case spec.Budget <= rt.Observed():
			return fmt.Errorf("online: budget %d already reached by resumed evidence (%d %s)", spec.Budget, rt.Observed(), rt.Unit)
		}
		fmt.Printf("[2/4] online closed loop: budget %d %s, first decode at %d, %s cadence, %d candidates/round...\n",
			spec.Budget, rt.Unit, spec.FirstDecode, spec.Cadence(), cfg.MaxCandidates)
		cfg.Cadence, cfg.Budget = spec.Cadence(), spec.Budget
		cfg.Feed = online.FeedFunc(rt.Checkpointed(c.Checkpoint, c.CheckpointEvery))
		cfg.Checkpoint = func() error { return c.save(rt) }
	} else {
		if err := c.collect(rt); err != nil || c.CollectOnly {
			return err
		}
		// The pooled evidence is the whole budget, so the round decodes
		// without capturing and is the loop's last.
		fmt.Printf("[3/4] recovering: one decode round at %d %s, walking up to %d candidates...\n",
			rt.Observed(), rt.Unit, cfg.MaxCandidates)
		cfg.Budget = rt.Observed()
		cfg.Feed = online.FeedFunc(rt.CaptureTo)
	}
	res, err := online.Run(cfg)
	if errors.Is(err, cliutil.ErrInterrupted) {
		return err
	}
	result := cliutil.OnlineRunResult(spec.Attack, rt.mode, res, err)
	result.Online = c.Online
	if err != nil {
		if jerr := result.Emit(c.JSON); jerr != nil {
			return jerr
		}
		return fmt.Errorf("attack failed: %w (try a larger budget or a deeper list)", err)
	}
	if c.Online {
		if err := c.save(rt); err != nil {
			return err
		}
		saved := spec.Budget - res.Observed
		fmt.Printf("[3/4] online success: %d under the %d budget (%s saved)\n", saved, spec.Budget, c.Live(saved))
	}
	fmt.Printf("      oracle-confirmed candidate at rank %d after %d %s (%s)\n", res.Rank, res.Observed, rt.Unit, c.Live(res.Observed))
	fmt.Printf("      %d decode rounds, %d oracle checks (+%d cache-skipped), wall-clock %v (capture %v, decode %v, oracle %v)\n",
		res.Rounds, res.Checks, res.Skipped, res.Elapsed.Round(time.Millisecond), res.CaptureTime.Round(time.Millisecond),
		res.DecodeTime.Round(time.Millisecond), res.OracleTime.Round(time.Millisecond))
	result.Plaintext = hex.EncodeToString(c.Recovered(res))
	return result.Emit(c.JSON)
}

// collect is the offline capture phase: this shard up to the spec's
// Budget, its checkpoint, then the Merge shards folded in. A shard of a
// capture stream already in the pool is refused: its observations would
// count twice.
func (c CLI) collect(rt *Runtime) error {
	budget := rt.spec.Budget
	var remaining uint64
	if budget > rt.Observed() {
		remaining = budget - rt.Observed()
	}
	fmt.Printf("[2/4] collecting %d %s (%s mode; %s)...\n", remaining, rt.Unit, rt.mode, c.Live(remaining))
	if remaining == 0 {
		fmt.Println("      shard target already reached")
	} else if err := rt.Checkpointed(c.Checkpoint, c.CheckpointEvery)(budget); err != nil {
		return err
	}
	if summary := rt.Summary(); summary != "" {
		fmt.Printf("      %s\n", summary)
	}
	fmt.Printf("      shard evidence: %d %s\n", rt.Observed(), rt.Unit)
	if err := c.save(rt); err != nil {
		return err
	}
	seen := make(map[snapshot.StreamInfo]string)
	if stream := *rt.Decoder.CaptureStream(); rt.Observed() > 0 && stream != (snapshot.StreamInfo{}) {
		seen[stream] = "this shard"
	}
	for _, path := range c.Merge {
		snap, err := os.ReadFile(path)
		var sh online.Shard
		if err == nil {
			sh, err = rt.Decoder.OpenShard(snap)
		}
		if err != nil {
			return fmt.Errorf("merge %s: %w", path, err)
		}
		if sh.Stream != (snapshot.StreamInfo{}) {
			if prev, dup := seen[sh.Stream]; dup {
				return fmt.Errorf("merge %s: same capture stream (%s/seed %d) as %s — its %s would be double-counted",
					path, sh.Stream.Mode, sh.Stream.Seed, prev, rt.Unit)
			}
			seen[sh.Stream] = path
		}
		before := rt.Observed()
		if err := sh.Merge(); err != nil {
			return fmt.Errorf("merge %s: %w", path, err)
		}
		fmt.Printf("      merged %s: +%d %s (pool now %d)\n", path, rt.Observed()-before, rt.Unit, rt.Observed())
	}
	if c.CollectOnly {
		fmt.Println("      collect-only: skipping recovery phase")
	}
	return nil
}

// save writes the shard's snapshot to Checkpoint, when set.
func (c CLI) save(rt *Runtime) error {
	if c.Checkpoint == "" {
		return nil
	}
	if err := rt.SaveFile(c.Checkpoint); err != nil {
		return err
	}
	fmt.Printf("      checkpoint: %d %s -> %s\n", rt.Observed(), rt.Unit, c.Checkpoint)
	return nil
}

// LoadOrTrainModel is the train-once workflow for the demo session's
// per-TSC model (the paper's CPU-year artifact). With path set and present
// on disk the model is reloaded, validated by the snapshot envelope's
// checksum; otherwise it is trained and, when path is set, saved there for
// every later shard, worker and coordinator to share. Either way the model
// must cover the attack's trailer positions. logf, when non-nil, receives
// progress lines.
func LoadOrTrainModel(path string, keysPerTSC uint64, workers int, logf func(format string, args ...interface{})) (*tkip.PerTSCModel, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	positions := TKIPTrailer()
	need := positions[len(positions)-1]
	var model *tkip.PerTSCModel
	if path != "" {
		m, err := tkip.LoadModelFile(path)
		switch {
		case err == nil:
			model = m
			logf("loaded per-TSC model from %s (%d keys x 256 classes x %d positions)", path, m.Keys, m.Positions)
		case !os.IsNotExist(err):
			// Anything but "absent" must not silently retrain: that would
			// overwrite the artifact and orphan every shard captured
			// against it.
			return nil, fmt.Errorf("load model %s: %w", path, err)
		}
	}
	if model == nil {
		logf("training per-TSC model: %d keys x 256 classes x %d positions...", keysPerTSC, need)
		// A nil journal's span times the training and records nothing.
		span := (*obs.Journal)(nil).Start(obs.SpanContext{}, "tkip.train")
		m, err := tkip.Train(tkip.TrainConfig{Positions: need, KeysPerTSC: keysPerTSC, Workers: workers})
		if err != nil {
			return nil, err
		}
		model = m
		logf("trained in %v", span.End().Round(time.Millisecond))
		if path != "" {
			if err := model.SaveFile(path); err != nil {
				return nil, err
			}
			logf("model -> %s", path)
		}
	}
	if model.Positions < need {
		return nil, fmt.Errorf("model covers %d positions, attack needs %d", model.Positions, need)
	}
	return model, nil
}

// RunWorker joins the cmd/fleetd coordinator at addr as capture worker id
// and collects leased lanes (CollectLane) until the coordinator declares
// the run over or SIGINT arrives, reporting in the attack CLIs' indented
// style. The coordinator checks the spec's Fingerprint at the door.
func (s Spec) RunWorker(addr, id string) error {
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	proc := id
	if proc == "" {
		proc = s.Attack + "attack-worker"
	}
	w := &fleet.Worker{
		Addr:        addr,
		ID:          id,
		Attack:      s.Attack,
		Fingerprint: fp,
		Logf:        cliutil.IndentLogf,
		// Per-lane collect spans ride each evidence upload; a traced
		// coordinator folds them under its own trace, an untraced one
		// ignores them.
		Tracer:  obs.NewJournal(proc, 1024),
		Collect: s.CollectLane,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("[2/2] fleet worker joining %s...\n", addr)
	stats, err := w.Run(ctx)
	fmt.Printf("      worker done: %d lanes (%d %s) uploaded, %d rejected as already covered\n",
		stats.Lanes, stats.Records, s.unit(), stats.Rejected)
	if stats.StopReason != "" {
		fmt.Printf("      coordinator: %s\n", stats.StopReason)
	}
	return err
}
