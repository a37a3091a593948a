package dataset

import (
	"context"
	"hash/fnv"
	"testing"

	"rc4break/internal/rc4"
)

// digestSink folds every window into an order-insensitive digest: the sum of
// per-window FNV hashes. Summation commutes, so two runs that deliver the
// same multiset of windows — however interleaved across keys or shards —
// produce the same digest, while any single flipped keystream byte changes
// it. That is exactly the Sink ordering contract the batched backend is
// allowed to relax, and no more.
type digestSink struct {
	sum     uint64
	windows uint64
}

func (d *digestSink) Window(win []byte) {
	h := fnv.New64a()
	h.Write(win)
	d.sum += h.Sum64()
	d.windows++
}

func (d *digestSink) Merge(other Sink) error {
	o, ok := other.(*digestSink)
	if !ok {
		return errIncompatibleSink
	}
	d.sum += o.sum
	d.windows += o.windows
	return nil
}

func runDigest(t *testing.T, backend rc4.Backend, st Stream, keys uint64, shards int) *digestSink {
	t.Helper()
	sink, err := Engine{Workers: 2, Backend: backend}.Run(context.Background(), st,
		SplitKeys(7, 0, keys, shards), func(int) Sink { return &digestSink{} })
	if err != nil {
		t.Fatal(err)
	}
	return sink.(*digestSink)
}

// TestEngineBackendEquivalence pins the batched backend against the scalar
// one across batch-boundary shapes: shards bigger than one lane batch,
// shards with ragged tails, and shards smaller than a single batch (all of
// it padded). Covers skip, overlap carry, multi-block delivery, and a
// KeyDeriver, so every scalar-path feature crosses the batched path too.
func TestEngineBackendEquivalence(t *testing.T) {
	st := Stream{
		Skip:     5,
		Overlap:  2,
		BlockLen: 9,
		Blocks:   4,
		KeyDeriver: func(lane uint64, key []byte) {
			key[0] ^= byte(lane) // fold the lane into the key
		},
	}
	for _, keys := range []uint64{1, 3, 32, 70, 131} {
		scalar := runDigest(t, rc4.BackendScalar, st, keys, 2)
		multi := runDigest(t, rc4.BackendMulti, st, keys, 2)
		if scalar.windows != multi.windows {
			t.Fatalf("keys=%d: window count %d (scalar) vs %d (multi)", keys, scalar.windows, multi.windows)
		}
		if want := keys * uint64(st.Blocks); scalar.windows != want {
			t.Fatalf("keys=%d: %d windows, want %d", keys, scalar.windows, want)
		}
		if scalar.sum != multi.sum {
			t.Fatalf("keys=%d: backend digests diverged", keys)
		}
	}
}
