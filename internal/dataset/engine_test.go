package dataset

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rc4break/internal/rc4"
)

// --- sequential reference implementations -------------------------------
//
// These generate each dataset in one plain loop over keys 0..N-1 of the
// run's single lane, with the bare cipher: no engine, no shards, no
// goroutines. Key k of a lane is fixed by (master, lane, k), so every worker
// count must reproduce them bitwise; they also equal the output of the
// per-worker layout the engine once used, at one worker.

// workerCounts are the worker counts every dataset must be independent of.
var workerCounts = []int{1, 2, 3, 7}

// withGOMAXPROCS runs fn with GOMAXPROCS set to n, the worker count of the
// entry points that take none.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// refRun is dataset.Run as one sequential loop over the lane.
func refRun(cfg Config, factory func() Observer) Observer {
	obs := factory()
	src := NewKeySource(cfg.Master, cfg.Lane)
	key := make([]byte, 16)
	ks := make([]byte, obs.KeystreamLen())
	for i := uint64(0); i < cfg.Keys; i++ {
		src.NextKey(key)
		rc4.MustNew(key).Keystream(ks)
		obs.Observe(ks)
	}
	return obs
}

// refCollectLongTermTargeted is CollectLongTermTargeted as one sequential
// loop over its lane.
func refCollectLongTermTargeted(master [16]byte, keys, blocks int, cells []LongTermCell) *TargetedLongTerm {
	merged := &TargetedLongTerm{Cells: cells, Counts: make([]uint64, len(cells))}
	src := NewKeySource(master, targetedLane)
	key := make([]byte, 16)
	buf := make([]byte, 257)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4.MustNew(key)
		c.Skip(1023)
		c.Keystream(buf[:1])
		for b := 0; b < blocks; b++ {
			c.Keystream(buf[1:])
			referenceTargetedWindow(cells, merged.Counts, buf)
			merged.Pairs += 256
			buf[0] = buf[256]
		}
	}
	merged.PerI = merged.Pairs / 256
	return merged
}

// --- equivalence tests ---------------------------------------------------

// runObservers are the observer kinds the worker-independence pins cover.
func runObservers() map[string]func() Observer {
	cells := []PairCell{{A: 1, X: 0, B: 2, Y: 0}, {A: 3, X: 7, B: 16, Y: 240}}
	return map[string]func() Observer{
		"single":  func() Observer { return NewSingleByteCounts(16) },
		"digraph": func() Observer { return NewDigraphCounts(4) },
		"pairs": func() Observer {
			tp, _ := NewTargetedPairs(cells)
			return tp
		},
		"equalities": func() Observer {
			eq, _ := NewEqualityCounts([]int{1, 1, 2}, []int{3, 4, 4})
			return eq
		},
		"multi": func() Observer {
			tp, _ := NewTargetedPairs(cells)
			return &Multi{Observers: []Observer{tp, NewSingleByteCounts(16)}}
		},
	}
}

// TestRunMatchesPreEngineLoop pins Run, at every worker count, to the
// sequential loop over the run's lane.
func TestRunMatchesPreEngineLoop(t *testing.T) {
	for name, factory := range runObservers() {
		cfg := Config{Keys: 500, Master: [16]byte{0x11, 0x22}, Lane: 5}
		want := refRun(cfg, factory)
		for _, workers := range workerCounts {
			cfg.Workers = workers
			got, err := Run(cfg, factory)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers=%d: counters differ from the sequential loop", name, workers)
			}
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
	want := refCollectLongTermTargeted(master, 6, 8, cells)
	for _, workers := range workerCounts {
		withGOMAXPROCS(workers, func() {
			got, err := CollectLongTermTargeted(context.Background(), master, 6, 8, cells)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pairs != want.Pairs || got.PerI != want.PerI {
				t.Fatalf("workers=%d: pairs %d/%d vs %d/%d", workers, got.Pairs, got.PerI, want.Pairs, want.PerI)
			}
			for i := range got.Counts {
				if got.Counts[i] != want.Counts[i] {
					t.Fatalf("workers=%d: cell %d: %d vs %d", workers, i, got.Counts[i], want.Counts[i])
				}
			}
		})
	}
}

// TestCollectLongTermZeroKeys is the regression test for the pre-Engine
// panic: workers were clamped to the key count, so zero keys indexed
// results[0] out of range.
func TestCollectLongTermZeroKeys(t *testing.T) {
	tt, err := CollectLongTermTargeted(context.Background(), [16]byte{1}, 0, 16, []LongTermCell{{I: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if tt == nil || tt.Pairs != 0 || len(tt.Counts) != 1 {
		t.Fatalf("want empty result, got %+v", tt)
	}
	// Zero blocks must also yield an empty result, matching the pre-Engine
	// loops (whose block loop simply never ran).
	tt, err = CollectLongTermTargeted(context.Background(), [16]byte{1}, 4, 0, []LongTermCell{{I: -1}})
	if err != nil || tt.Pairs != 0 || len(tt.Counts) != 1 {
		t.Fatalf("zero blocks: pairs %d err %v", tt.Pairs, err)
	}
}

// --- engine behavior tests ----------------------------------------------

func TestSplitKeys(t *testing.T) {
	shards := SplitKeys(100, 20, 10, 4)
	if len(shards) != 4 {
		t.Fatalf("%d shards", len(shards))
	}
	next := uint64(20)
	for w, sh := range shards {
		if sh.Lane != 100 {
			t.Errorf("shard %d lane %d, want the run's lane 100", w, sh.Lane)
		}
		if sh.FirstKey != next {
			t.Errorf("shard %d first key %d, want %d", w, sh.FirstKey, next)
		}
		next += sh.Keys
	}
	if next != 30 {
		t.Errorf("shards end at key %d, want 30", next)
	}
	// First keys%parts shards get the extra key.
	if shards[0].Keys != 3 || shards[1].Keys != 3 || shards[2].Keys != 2 || shards[3].Keys != 2 {
		t.Errorf("split %v", shards)
	}
	// Parts clamp to the key count.
	if got := SplitKeys(0, 0, 2, 8); len(got) != 2 {
		t.Errorf("clamp: %d shards", len(got))
	}
	if got := SplitKeys(0, 0, 0, 8); got != nil {
		t.Errorf("zero keys: %v", got)
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Run(ctx, Stream{BlockLen: 8}, SplitKeys(0, 0, 100, 2),
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
	_, err := Engine{Workers: 2}.Run(ctx, Stream{BlockLen: 4}, SplitKeys(0, 0, 50, 2),
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
	shards := SplitKeys(0, 0, 4, 2)
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
	}, SplitKeys(42, 0, 1, 1), func(int) Sink { return collector })
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
