package dataset

import (
	"context"
	"sync"
	"testing"

	"rc4break/internal/rc4"
)

// --- pre-Engine reference implementations -------------------------------
//
// These replicate the hand-rolled fan-out loops the Engine replaced,
// sequentially, shard by shard: same lane numbering, same per/extra key
// split, same skip and window mechanics. The equivalence tests below pin the
// refactor to them bitwise.

// refRun is the pre-Engine dataset.Run worker loop.
func refRun(cfg Config, factory func() Observer) Observer {
	cfg = cfg.withDefaults()
	var merged Observer
	for _, sh := range SplitKeys(cfg.Keys, cfg.Workers, runLaneOffset) {
		obs := factory()
		src := NewKeySource(cfg.Master, sh.Lane)
		key := make([]byte, cfg.KeyLen)
		ks := make([]byte, obs.KeystreamLen())
		for i := uint64(0); i < sh.Keys; i++ {
			src.NextKey(key)
			if cfg.KeyDeriver != nil {
				cfg.KeyDeriver(sh.FirstKey+i, key)
			}
			c := rc4.MustNew(key)
			if cfg.Skip > 0 {
				c.Skip(cfg.Skip)
			}
			c.Keystream(ks)
			obs.Observe(ks)
		}
		if merged == nil {
			merged = obs
		} else if err := merged.Merge(obs); err != nil {
			panic(err)
		}
	}
	return merged
}

// refCollectLongTermTargeted is the pre-Engine CollectLongTermTargeted loop.
func refCollectLongTermTargeted(master [16]byte, keys, blocks, workers int, cells []LongTermCell) *TargetedLongTerm {
	merged := &TargetedLongTerm{Cells: cells, Counts: make([]uint64, len(cells))}
	for _, sh := range SplitKeys(uint64(keys), workers, targetedLaneOffset) {
		src := NewKeySource(master, sh.Lane)
		key := make([]byte, 16)
		buf := make([]byte, 257)
		for k := uint64(0); k < sh.Keys; k++ {
			src.NextKey(key)
			c := rc4.MustNew(key)
			c.Skip(1023)
			c.Keystream(buf[:1])
			for b := 0; b < blocks; b++ {
				c.Keystream(buf[1:])
				for r := 0; r < 256; r++ {
					x, y := buf[r], buf[r+1]
					for ci := range cells {
						cell := &cells[ci]
						if cell.I >= 0 && cell.I != r {
							continue
						}
						cx, cy := cell.X, cell.Y
						if cell.XPlusI {
							cx += byte(r)
						}
						if cell.YPlusI {
							cy += byte(r)
						}
						if x == cx && y == cy {
							merged.Counts[ci]++
						}
					}
				}
				merged.Pairs += 256
				buf[0] = buf[256]
			}
		}
	}
	merged.PerI = merged.Pairs / 256
	return merged
}

// --- equivalence tests ---------------------------------------------------

func TestRunMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0x11, 0x22}
	for _, workers := range []int{1, 3, 4} {
		cfg := Config{Keys: 500, Workers: workers, Master: master, Skip: 2}
		got, err := Run(cfg, func() Observer { return NewSingleByteCounts(16) })
		if err != nil {
			t.Fatal(err)
		}
		want := refRun(cfg, func() Observer { return NewSingleByteCounts(16) })
		g, w := got.(*SingleByteCounts), want.(*SingleByteCounts)
		if g.Keys != w.Keys {
			t.Fatalf("workers=%d: keys %d vs %d", workers, g.Keys, w.Keys)
		}
		for i := range g.Counts {
			if g.Counts[i] != w.Counts[i] {
				t.Fatalf("workers=%d: counts diverge at %d", workers, i)
			}
		}
	}
}

func TestRunKeyDeriverMatchesPreEngineLoop(t *testing.T) {
	// The deriver sees global key indices; mixing the index into the key
	// makes any indexing drift change the counts.
	deriver := func(keyIndex uint64, key []byte) {
		key[0] = byte(keyIndex)
		key[1] = byte(keyIndex >> 8)
	}
	cfg := Config{Keys: 300, Workers: 4, KeyDeriver: deriver}
	got, err := Run(cfg, func() Observer { return NewSingleByteCounts(4) })
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(cfg, func() Observer { return NewSingleByteCounts(4) })
	g, w := got.(*SingleByteCounts), want.(*SingleByteCounts)
	for i := range g.Counts {
		if g.Counts[i] != w.Counts[i] {
			t.Fatalf("counts diverge at %d", i)
		}
	}
}

func TestCollectLongTermTargetedMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0xcd}
	cells := []LongTermCell{
		{I: -1, X: 0, Y: 0},
		{I: 3, X: 255, Y: 255},
		{I: -1, X: 0, Y: 1, YPlusI: true},
	}
	for _, workers := range []int{1, 4} {
		got, err := CollectLongTermTargeted(context.Background(), master, 6, 8, workers, cells)
		if err != nil {
			t.Fatal(err)
		}
		want := refCollectLongTermTargeted(master, 6, 8, workers, cells)
		if got.Pairs != want.Pairs || got.PerI != want.PerI {
			t.Fatalf("workers=%d: pairs %d/%d vs %d/%d", workers, got.Pairs, got.PerI, want.Pairs, want.PerI)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("workers=%d: cell %d: %d vs %d", workers, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestCollectLongTermZeroKeys is the regression test for the pre-Engine
// panic: workers were clamped to the key count, so zero keys indexed
// results[0] out of range.
func TestCollectLongTermZeroKeys(t *testing.T) {
	tt, err := CollectLongTermTargeted(context.Background(), [16]byte{1}, 0, 16, 4, []LongTermCell{{I: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if tt == nil || tt.Pairs != 0 || len(tt.Counts) != 1 {
		t.Fatalf("want empty result, got %+v", tt)
	}
	// Zero blocks must also yield an empty result, matching the pre-Engine
	// loops (whose block loop simply never ran).
	tt, err = CollectLongTermTargeted(context.Background(), [16]byte{1}, 4, 0, 2, []LongTermCell{{I: -1}})
	if err != nil || tt.Pairs != 0 || len(tt.Counts) != 1 {
		t.Fatalf("zero blocks: pairs %d err %v", tt.Pairs, err)
	}
}

// --- engine behavior tests ----------------------------------------------

func TestSplitKeys(t *testing.T) {
	shards := SplitKeys(10, 4, 100)
	if len(shards) != 4 {
		t.Fatalf("%d shards", len(shards))
	}
	var total, next uint64
	for w, sh := range shards {
		if sh.Lane != 100+uint64(w) {
			t.Errorf("shard %d lane %d", w, sh.Lane)
		}
		if sh.FirstKey != next {
			t.Errorf("shard %d first key %d, want %d", w, sh.FirstKey, next)
		}
		next += sh.Keys
		total += sh.Keys
	}
	if total != 10 {
		t.Errorf("total %d", total)
	}
	// First keys%workers shards get the extra key.
	if shards[0].Keys != 3 || shards[1].Keys != 3 || shards[2].Keys != 2 || shards[3].Keys != 2 {
		t.Errorf("split %v", shards)
	}
	// Workers clamp to the key count.
	if got := SplitKeys(2, 8, 0); len(got) != 2 {
		t.Errorf("clamp: %d shards", len(got))
	}
	if got := SplitKeys(0, 8, 0); got != nil {
		t.Errorf("zero keys: %v", got)
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Run(ctx, Stream{BlockLen: 8}, SplitKeys(100, 2, 0),
		func(int) Sink { return observerSink{NewSingleByteCounts(8)} })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineProgress(t *testing.T) {
	var mu sync.Mutex
	var calls []uint64
	ctx := WithProgress(context.Background(), func(done, total uint64) {
		mu.Lock()
		defer mu.Unlock()
		if total != 50 {
			t.Errorf("total = %d, want 50", total)
		}
		calls = append(calls, done)
	})
	_, err := Engine{Workers: 2}.Run(ctx, Stream{BlockLen: 4}, SplitKeys(50, 2, 0),
		func(int) Sink { return observerSink{NewSingleByteCounts(4)} })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("progress callback never fired")
	}
	if calls[len(calls)-1] != 50 {
		t.Errorf("final progress %d, want 50", calls[len(calls)-1])
	}
}

func TestEngineValidation(t *testing.T) {
	sink := func(int) Sink { return observerSink{NewSingleByteCounts(1)} }
	shards := SplitKeys(4, 2, 0)
	if _, err := (Engine{}).Run(context.Background(), Stream{KeyLen: 300, BlockLen: 1}, shards, sink); err == nil {
		t.Error("bad key length accepted")
	}
	if _, err := (Engine{}).Run(context.Background(), Stream{BlockLen: -1}, shards, sink); err == nil {
		t.Error("negative block length accepted")
	}
	if _, err := (Engine{}).Run(context.Background(), Stream{BlockLen: 1, Skip: -1}, shards, sink); err == nil {
		t.Error("negative skip accepted")
	}
	got, err := (Engine{}).Run(context.Background(), Stream{BlockLen: 1}, nil, sink)
	if err != nil || got != nil {
		t.Errorf("empty shards: sink %v err %v", got, err)
	}
}

// TestEngineOverlapCarry checks the windowing contract directly: with
// Overlap = 2, each window's first two bytes must equal the previous
// window's last two, and the concatenated fresh parts must equal the
// underlying keystream.
func TestEngineOverlapCarry(t *testing.T) {
	const overlap, blockLen, blocks = 2, 16, 5
	var wins [][]byte
	collector := collectSink{wins: &wins}
	_, err := Engine{Workers: 1}.Run(context.Background(), Stream{
		Skip: 7, Overlap: overlap, BlockLen: blockLen, Blocks: blocks,
	}, SplitKeys(1, 1, 42), func(int) Sink { return collector })
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != blocks {
		t.Fatalf("%d windows, want %d", len(wins), blocks)
	}
	// Rebuild the expected keystream with the plain cipher.
	src := NewKeySource([16]byte{}, 42)
	key := make([]byte, 16)
	src.NextKey(key)
	c := rc4.MustNew(key)
	c.Skip(7)
	want := make([]byte, overlap+blocks*blockLen)
	c.Keystream(want)
	for b, win := range wins {
		if len(win) != overlap+blockLen {
			t.Fatalf("window %d has %d bytes", b, len(win))
		}
		expect := want[b*blockLen : b*blockLen+overlap+blockLen]
		for i := range win {
			if win[i] != expect[i] {
				t.Fatalf("window %d byte %d: %#x want %#x", b, i, win[i], expect[i])
			}
		}
	}
}

// collectSink snapshots every delivered window.
type collectSink struct{ wins *[][]byte }

func (c collectSink) Window(win []byte) {
	*c.wins = append(*c.wins, append([]byte(nil), win...))
}

func (c collectSink) Merge(other Sink) error { return nil }
