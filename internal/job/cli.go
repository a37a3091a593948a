package job

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/fleet"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/tkip"
)

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
	positions := tkip.TrailerPositions(len(netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload).MSDU))
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
		start := time.Now() //rc4lint:allow timing training-time progress line only
		m, err := tkip.Train(tkip.TrainConfig{Positions: need, KeysPerTSC: keysPerTSC, Workers: workers})
		if err != nil {
			return nil, err
		}
		model = m
		logf("trained in %v", time.Since(start).Round(time.Millisecond)) //rc4lint:allow timing training-time progress line only
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
	unit := "records"
	if s.Attack == "tkip" {
		unit = "frames"
	}
	fmt.Printf("      worker done: %d lanes (%d %s) uploaded, %d rejected as already covered\n",
		stats.Lanes, stats.Records, unit, stats.Rejected)
	if stats.StopReason != "" {
		fmt.Printf("      coordinator: %s\n", stats.StopReason)
	}
	return err
}
