package tkip

import (
	"math/rand"

	"rc4break/internal/snapshot"
)

// CollectLane is one model-mode fleet lane written out directly: a fresh
// capture accumulator over the given positions, filled with `frames`
// model-sampled captures drawn from the lane's own RNG stream and stamped
// with the lane's stream identity. Fleet workers draw lanes through
// job.Spec.CollectLane; this is the single-process reference the fleet's
// TKIP equivalence test merges lane by lane. Lane evidence is a pure
// function of (model, positions, trailer, laneSeed, frames), so an expired
// lease's re-capture is byte-identical to what the dead worker would have
// uploaded.
func CollectLane(model *PerTSCModel, positions []int, trailer []byte, stream snapshot.StreamInfo, laneSeed int64, frames uint64, workers int) (*Attack, error) {
	a, err := NewAttack(model, positions)
	if err != nil {
		return nil, err
	}
	a.Workers = workers
	a.Stream = stream
	rng := rand.New(rand.NewSource(laneSeed))
	if err := a.SimulateCaptures(rng, trailer, frames); err != nil {
		return nil, err
	}
	return a, nil
}
