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
// it. That is exactly the Sink ordering contract the batched kernel is
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

// referenceDigest is the engine's delivery contract written out as one
// sequential loop over per-key scalar ciphers: key k of the lane, the
// KeyDeriver, the skip, then Blocks windows whose first Overlap bytes repeat
// the previous window's tail.
func referenceDigest(st Stream, lane, keys uint64) *digestSink {
	d := &digestSink{}
	src := NewKeySource(st.Master, lane)
	key := make([]byte, keyLen)
	win := make([]byte, st.Overlap+st.BlockLen)
	for k := uint64(0); k < keys; k++ {
		src.NextKey(key)
		if st.KeyDeriver != nil {
			st.KeyDeriver(lane, key)
		}
		c := rc4.MustNew(key)
		c.Skip(st.Skip)
		c.Keystream(win)
		d.Window(win)
		for b := 1; b < st.Blocks; b++ {
			copy(win, win[st.BlockLen:])
			c.Keystream(win[st.Overlap:])
			d.Window(win)
		}
	}
	return d
}

// TestEngineBackendEquivalence pins the engine's batched kernel against a
// sequential scalar reference across batch-boundary shapes: shards bigger
// than one lane batch, shards with ragged tails, and shards smaller than a
// single batch (all of it padded). Covers skip, overlap carry, multi-block
// delivery, and a KeyDeriver.
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
	const lane = 7
	for _, keys := range []uint64{1, 3, 32, 70, 131} {
		sink, err := Engine{Workers: 2}.Run(context.Background(), st,
			SplitKeys(lane, 0, keys, 2), func(int) Sink { return &digestSink{} })
		if err != nil {
			t.Fatal(err)
		}
		got, want := sink.(*digestSink), referenceDigest(st, lane, keys)
		if got.windows != want.windows {
			t.Fatalf("keys=%d: window count %d (engine) vs %d (reference)", keys, got.windows, want.windows)
		}
		if n := keys * uint64(st.Blocks); got.windows != n {
			t.Fatalf("keys=%d: %d windows, want %d", keys, got.windows, n)
		}
		if got.sum != want.sum {
			t.Fatalf("keys=%d: engine digest differs from the scalar reference", keys)
		}
	}
}
