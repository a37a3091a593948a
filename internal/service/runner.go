package service

import (
	"errors"
	"sync"
	"time"

	"rc4break/internal/job"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/tkip"
)

// newRuntime builds spec's job.Runtime, resuming from evidence bytes (a prior
// checkpoint blob) when non-nil. The service and SoloRun both build jobs
// here, so the two can only differ in scheduling, never in evidence. TKIP
// jobs get the shared model for their TrainKeys.
func newRuntime(spec JobSpec, evidence []byte) (*job.Runtime, error) {
	if spec.Attack == "tkip" {
		var err error
		if spec.Model, err = SharedModel(spec.TrainKeys); err != nil {
			return nil, err
		}
	}
	return job.New(spec, evidence)
}

// gatedDecoder wraps a job's decoder so each capture granule (Granule)
// and each decode round holds one scheduler slot — decode rounds are the
// expensive half of the loop, and fair-share has to cover them, not just
// capture. It also counts rounds (the server's event/checkpoint
// bookkeeping) and reports each round's decode latency: the duration of
// its job.decode span.
type gatedDecoder struct {
	online.Decoder
	gate   func() error
	ungate func()
	// holding marks the slot retained past the granule that reached the
	// decode target: the online loop decodes immediately after capture
	// returns, and Decode inherits this slot instead of gating again.
	// Without the carry-over, a stop signal could land between "evidence
	// reached the decode point" and "decode ran" — a state no
	// uninterrupted run passes through, which would desync the resumed
	// run's cadence (the pending decode would be skipped, since cadence
	// points are derived from the observed count).
	holding bool
	rounds  int
	onRound func(elapsed time.Duration)
	// tracer/parent record one job.decode span per round under the job's
	// run span; with a nil tracer the span still times the round.
	tracer *obs.Journal
	parent obs.SpanContext
}

// Granule runs one capture granule under a scheduler slot: the
// job.Runtime EachGranule hook. The slot of the granule that reaches the
// decode target is kept for the decode round.
func (d *gatedDecoder) Granule(last bool, capture func() error) error {
	if !d.holding {
		if err := d.gate(); err != nil {
			return err
		}
	}
	err := capture()
	if d.holding = err == nil && last; !d.holding {
		d.ungate()
	}
	return err
}

func (d *gatedDecoder) Decode(max int) (src recovery.CandidateSource, err error) {
	if d.holding {
		d.holding = false // slot carried over from capture
	} else if err := d.gate(); err != nil {
		return nil, err
	}
	defer d.ungate()
	d.rounds++
	span := d.tracer.Start(d.parent, "job.decode", obs.Int("round", int64(d.rounds)), obs.Int("max", int64(max)))
	src, err = d.Decoder.Decode(max)
	d.onRound(span.End())
	return src, err
}

// sharedModels caches the deterministic demo-session per-TSC model by
// training size. The model is a pure function of (positions, keys, master)
// — Train is Workers-independent — so every job and the solo reference
// share one instance per TrainKeys, and a restarted process retrains the
// same model instead of loading it from the store.
var sharedModels struct {
	mu sync.Mutex
	m  map[uint64]*tkip.PerTSCModel
}

// SharedModel trains (once per process per size) and returns the demo
// per-TSC model for the given keys-per-class count.
func SharedModel(trainKeys uint64) (*tkip.PerTSCModel, error) {
	sharedModels.mu.Lock()
	defer sharedModels.mu.Unlock()
	if m, ok := sharedModels.m[trainKeys]; ok {
		return m, nil
	}
	m, err := job.LoadOrTrainModel("", trainKeys, 0, nil)
	if err != nil {
		return nil, err
	}
	if sharedModels.m == nil {
		sharedModels.m = make(map[uint64]*tkip.PerTSCModel)
	}
	sharedModels.m[trainKeys] = m
	return m, nil
}

// SoloRun executes one job spec start-to-finish in-process: no scheduler,
// no store, no server — the pure function of the spec that the service
// must reproduce bitwise. It returns the online result and the final
// evidence snapshot bytes. A budget-exhausted run returns its result and
// evidence alongside online.ErrBudgetExhausted.
func SoloRun(spec JobSpec) (online.Result, []byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return online.Result{}, nil, err
	}
	rt, err := newRuntime(spec, nil)
	if err != nil {
		return online.Result{}, nil, err
	}
	res, runErr := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        rt.Oracle,
		Cadence:       spec.Cadence(),
		MaxCandidates: spec.MaxCandidates,
		Budget:        spec.Budget,
		Feed:          online.FeedFunc(rt.CaptureTo),
	})
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return res, nil, runErr
	}
	snap, err := rt.Evidence()
	if err != nil {
		return res, nil, err
	}
	return res, snap, runErr
}
