package dataset

import (
	"context"
	"errors"
)

// targetedLane is CollectLongTermTargeted's KeySource lane, apart from the
// lanes Run draws (Config.Lane, 0 by default) and the experiments package's
// long-term scans (lanes 3000-5000), so no two datasets ever share an RC4
// key sequence.
const targetedLane = 2000

// Config controls a generation run: keys [FirstKey, FirstKey+Keys) of lane
// Lane under Master, which fixes the result bitwise whatever the Workers.
type Config struct {
	// Keys is the total number of RC4 keys (keystreams) to generate.
	Keys uint64
	// Workers bounds the parallel workers; 0 means GOMAXPROCS.
	Workers int
	// Master is the AES-128 master key from which all RC4 keys derive.
	// The zero value is a valid (fixed) master, giving reproducible runs.
	Master [16]byte
	// Ctx, when non-nil, cancels the run early; pair with WithProgress to
	// observe long runs. nil means context.Background().
	Ctx context.Context
	// Lane is the KeySource lane the run draws its keys from. Runs with the
	// same master on different lanes draw disjoint key sequences, which is
	// how independently generated shards stay non-overlapping.
	Lane uint64
	// FirstKey is the lane index of the run's first key. Consecutive key
	// ranges of one lane are how the chunks of a checkpointed generation
	// continue each other.
	FirstKey uint64
}

// observerSink adapts the per-keystream Observer interface to the engine's
// window delivery: short-term observers consume each keystream prefix as a
// single window.
type observerSink struct{ obs Observer }

func (o observerSink) Window(win []byte) { o.obs.Observe(win) }

func (o observerSink) Merge(other Sink) error {
	so, ok := other.(observerSink)
	if !ok {
		return errIncompatibleSink
	}
	return o.obs.Merge(so.obs)
}

// Run generates cfg.Keys keystreams in parallel and folds them into
// observers produced by factory (one per shard), returning the merged
// result. factory must return a fresh, independent Observer on each call.
func Run(cfg Config, factory func() Observer) (Observer, error) {
	if cfg.Keys == 0 {
		return nil, errors.New("dataset: zero keys requested")
	}
	shards := SplitKeys(cfg.Lane, cfg.FirstKey, cfg.Keys, cfg.Workers)
	observers := make([]Observer, len(shards))
	for i := range observers {
		observers[i] = factory()
	}
	sink, err := Engine{Workers: cfg.Workers}.Run(cfg.Ctx, Stream{
		Master:   cfg.Master,
		BlockLen: observers[0].KeystreamLen(),
	}, shards, func(i int) Sink { return observerSink{observers[i]} })
	if err != nil {
		return nil, err
	}
	return sink.(observerSink).obs, nil
}

// LongTermDigraphs is the full long-term digraph table by i-value: cell
// (i, x, y) counts occurrences of (Z_r, Z_r+1) = (x, y) at PRGA counter
// i = r+1 mod 256, far from the start of the keystream. Counting into its
// 128 MiB table is cache-miss bound, so Table 1 and eq. 8 count through
// TargetedLongTerm instead; tests fill this table by hand as the
// independent reference the targeted counter must match.
type LongTermDigraphs struct {
	Counts [256 * 65536]uint64 // [i][x*256+y]
	Pairs  uint64              // digraphs observed per i-class in total/256
}

// Count returns the raw count for (i, x, y).
func (lt *LongTermDigraphs) Count(i int, x, y byte) uint64 {
	return lt.Counts[i*65536+int(x)*256+int(y)]
}

// longTermStream is the §3.4 long-term generation shape: drop 1023 bytes so
// the first delivered byte is Z_1024 (produced at PRGA counter i = 0), then
// 256-byte blocks with a one-byte carry for boundary-spanning digraphs.
func longTermStream(master [16]byte, blocks int) Stream {
	return Stream{Master: master, Skip: 1023, Overlap: 1, BlockLen: 256, Blocks: blocks}
}

// LongTermCell is one targeted long-term digraph event: the digraph (X, Y)
// observed at PRGA counter i = I. Negative I means "any i" (the count is
// then over all 256 classes). XPlusI/YPlusI add the current i (mod 256) to
// the value before comparing, which expresses the i-dependent FM digraphs
// like (0, i+1) and (255, i+2) as fixed cells: (X=0, Y=1, YPlusI=true).
type LongTermCell struct {
	I              int
	X, Y           byte
	XPlusI, YPlusI bool
}

// TargetedLongTerm counts a small set of long-term digraph cells without
// materializing the full 256×65536 table. This is how Table 1 and eq. 8 are
// verified at the billions-of-digraphs scale their 2^-8-relative biases
// need: the counting loop touches only a handful of hot counters, so it is
// not cache-miss bound like the full table.
type TargetedLongTerm struct {
	Cells  []LongTermCell
	Counts []uint64
	Pairs  uint64 // total digraphs observed
	PerI   uint64 // digraphs observed per single i-class (Pairs/256)

	// Targeted-counting index, built lazily from Cells: for each PRGA
	// counter i, the cells resolved to concrete (x, y) values, plus a
	// 256-bit bitmap of the first bytes any cell at that i matches. Almost
	// every observed digraph misses the bitmap, so the hot loop does one
	// bit test per position instead of walking every cell.
	byI      [256][]resolvedCell
	mask     [256][4]uint64
	prepared bool
}

// resolvedCell is one cell with its i-dependent values fixed for a
// specific counter.
type resolvedCell struct {
	x, y byte
	ci   uint16
}

// prepare builds the per-i index. Cells must not change afterwards.
func (tt *TargetedLongTerm) prepare() {
	for i := 0; i < 256; i++ {
		for ci := range tt.Cells {
			cell := &tt.Cells[ci]
			if cell.I >= 0 && cell.I != i {
				continue
			}
			cx, cy := cell.X, cell.Y
			if cell.XPlusI {
				cx += byte(i)
			}
			if cell.YPlusI {
				cy += byte(i)
			}
			tt.byI[i] = append(tt.byI[i], resolvedCell{x: cx, y: cy, ci: uint16(ci)})
			tt.mask[i][cx>>6] |= 1 << (cx & 63)
		}
	}
	tt.prepared = true
}

// Window implements Sink. win[0] is the byte before the current 256-byte
// block (Z at PRGA counter 255 of the previous block), so digraph r within
// the block starts at counter i = r. The walk is the targeted-counting
// bound: each position costs one bitmap test (8 KB of masks,
// cache-resident), and only the ~1% of positions whose first byte matches
// some cell's reach the short resolved-cell scan.
func (tt *TargetedLongTerm) Window(win []byte) {
	if !tt.prepared {
		tt.prepare()
	}
	for r := 0; r < 256; r++ {
		x := win[r]
		if tt.mask[r][x>>6]&(1<<(x&63)) == 0 {
			continue
		}
		y := win[r+1]
		for _, rc := range tt.byI[r] {
			if rc.x == x && rc.y == y {
				tt.Counts[rc.ci]++
			}
		}
	}
	tt.Pairs += 256
}

// Merge implements Sink.
func (tt *TargetedLongTerm) Merge(other Sink) error {
	o, ok := other.(*TargetedLongTerm)
	if !ok || len(o.Counts) != len(tt.Counts) {
		return errIncompatibleSink
	}
	for i := range tt.Counts {
		tt.Counts[i] += o.Counts[i]
	}
	tt.Pairs += o.Pairs
	return nil
}

// CollectLongTermTargeted generates `keys` keystreams of blocks*256 bytes
// each (after the 1023-byte drop) and counts only the given cells. Zero (or
// negative) keys or blocks yield an empty result.
func CollectLongTermTargeted(ctx context.Context, master [16]byte, keys, blocks int, cells []LongTermCell) (*TargetedLongTerm, error) {
	newSink := func(int) Sink {
		return &TargetedLongTerm{Cells: cells, Counts: make([]uint64, len(cells))}
	}
	if keys <= 0 || blocks <= 0 {
		return newSink(0).(*TargetedLongTerm), nil
	}
	shards := SplitKeys(targetedLane, 0, uint64(keys), 0)
	sink, err := Engine{}.Run(ctx, longTermStream(master, blocks), shards, newSink)
	if err != nil {
		return nil, err
	}
	tt := sink.(*TargetedLongTerm)
	tt.PerI = tt.Pairs / 256
	return tt, nil
}

// Probability estimates the probability of cell ci: conditioned on its
// i-class when the cell pins i, otherwise over all digraphs.
func (tt *TargetedLongTerm) Probability(ci int) float64 {
	cell := tt.Cells[ci]
	den := float64(tt.Pairs)
	if cell.I >= 0 {
		den = float64(tt.Pairs) / 256
	}
	if den == 0 {
		return 0
	}
	return float64(tt.Counts[ci]) / den
}
