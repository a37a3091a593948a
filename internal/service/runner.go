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

// chunkedFeed is the service's online.Feed: it advances capture in absolute
// granules — the next boundary is the smaller of the decode target and the
// next multiple of chunk — acquiring one scheduler slot per granule. The
// boundary sequence is a pure function of (chunk, target history), shared
// bitwise by gated service runs, ungated solo runs, and resumed runs.
type chunkedFeed struct {
	chunk    uint64
	observed func() uint64
	capture  func(target uint64) error
	// gate/ungate bracket each granule with a scheduler slot; nil for solo
	// runs. onAdvance reports observation deltas (the records/s metric).
	gate      func() error
	ungate    func()
	onAdvance func(n uint64)
	// holding marks the slot retained past the granule that reached the
	// decode target: the online loop decodes immediately after AdvanceTo
	// returns, and the gated decoder inherits this slot instead of gating
	// again. Without the carry-over, a stop signal could land between
	// "evidence reached the decode point" and "decode ran" — a state no
	// uninterrupted run passes through, which would desync the resumed run's
	// cadence (the pending decode would be skipped, since cadence points are
	// derived from the observed count).
	holding bool
}

// AdvanceTo implements online.Feed.
func (f *chunkedFeed) AdvanceTo(target uint64) error {
	for {
		at := f.observed()
		if at >= target {
			return nil
		}
		next := target
		if f.chunk > 0 {
			if b := (at/f.chunk + 1) * f.chunk; b < next {
				next = b
			}
		}
		if f.gate != nil && !f.holding {
			if err := f.gate(); err != nil {
				return err
			}
		}
		err := f.capture(next)
		if f.gate != nil {
			if err == nil && next >= target {
				f.holding = true // carry the slot into the decode round
			} else {
				f.holding = false
				f.ungate()
			}
		}
		if err != nil {
			return err
		}
		if f.onAdvance != nil {
			f.onAdvance(f.observed() - at)
		}
	}
}

// gatedDecoder wraps a job's decoder so each decode round holds one
// scheduler slot — decode rounds are the expensive half of the loop, and
// fair-share has to cover them, not just capture. It also counts rounds
// (the server's event/checkpoint bookkeeping) and reports each round's
// decode latency: the duration of its job.decode span.
type gatedDecoder struct {
	online.Decoder
	// feed is the run's chunkedFeed; a slot it held through the final
	// capture granule is inherited here instead of gating again.
	feed    *chunkedFeed
	gate    func() error
	ungate  func()
	rounds  int
	onRound func(elapsed time.Duration)
	// tracer/parent record one job.decode span per round under the job's
	// run span; with a nil tracer the span still times the round.
	tracer *obs.Journal
	parent obs.SpanContext
}

func (d *gatedDecoder) Decode(max int) (src recovery.CandidateSource, err error) {
	if d.gate != nil {
		if d.feed != nil && d.feed.holding {
			d.feed.holding = false // slot carried over from capture
		} else if err := d.gate(); err != nil {
			return nil, err
		}
		defer d.ungate()
	}
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
		Feed:          &chunkedFeed{chunk: spec.CaptureChunk, observed: rt.Observed, capture: rt.CaptureTo},
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
