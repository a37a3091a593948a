package experiments

import (
	"context"
	"strconv"

	"rc4break/internal/biases"
	"rc4break/internal/dataset"
	"rc4break/internal/stats"
)

// KeySource lanes of the experiments package's long-term scans, disjoint
// from the dataset package's own lanes, so no two scans share a key.
const (
	zeroPairLane = 3000
	absabLane    = 4000
	eq9Lane      = 5000
)

// Table1 verifies the generalized Fluhrer–McGrew digraph biases in the
// long-term keystream using targeted counting: each digraph family is
// aggregated over all valid i values, and the measured probability is
// compared with Table 1's model. The per-family relative bias is only
// 2^-7/2^-8, so resolving every family at 3σ needs ~2^35+ digraphs; the
// default laptop scale resolves the aggregate and the strongest families,
// with the rest reported alongside their statistical error.
func Table1(ctx context.Context, master [16]byte, keys, blocks int) (Result, error) {
	type family struct {
		name  string
		cell  dataset.LongTermCell
		valid int // number of i classes the family covers
		prob  float64
	}
	families := []family{
		{"(0,0) i=1", dataset.LongTermCell{I: 1, X: 0, Y: 0}, 1, biases.FMZeroZeroI1.Probability()},
		{"(0,0)", dataset.LongTermCell{I: -1, X: 0, Y: 0}, 256, 0}, // prob computed below
		{"(0,1)", dataset.LongTermCell{I: -1, X: 0, Y: 1}, 254, biases.FMZeroOne.Probability()},
		{"(0,i+1)", dataset.LongTermCell{I: -1, X: 0, Y: 1, YPlusI: true}, 254, biases.FMZeroIPlus1.Probability()},
		{"(i+1,255)", dataset.LongTermCell{I: -1, X: 1, Y: 255, XPlusI: true}, 255, biases.FMIPlus1_255.Probability()},
		{"(129,129) i=2", dataset.LongTermCell{I: 2, X: 129, Y: 129}, 1, biases.FM129_129.Probability()},
		{"(255,i+1)", dataset.LongTermCell{I: -1, X: 255, Y: 1, YPlusI: true}, 254, biases.FM255_IPlus1.Probability()},
		{"(255,i+2)", dataset.LongTermCell{I: -1, X: 255, Y: 2, YPlusI: true}, 252, biases.FM255_IPlus2.Probability()},
		{"(255,0) i=254", dataset.LongTermCell{I: 254, X: 255, Y: 0}, 1, biases.FM255_Zero.Probability()},
		{"(255,1) i=255", dataset.LongTermCell{I: 255, X: 255, Y: 1}, 1, biases.FM255_One.Probability()},
		{"(255,255)", dataset.LongTermCell{I: -1, X: 255, Y: 255}, 255, biases.FM255_255.Probability()},
	}
	cells := make([]dataset.LongTermCell, len(families))
	for i, f := range families {
		cells[i] = f.cell
	}
	tt, err := dataset.CollectLongTermTargeted(ctx, master, keys, blocks, cells)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:      "Table 1",
		Title:   "Generalized Fluhrer-McGrew digraph probabilities (long-term)",
		Columns: []string{"measured*2^16", "model*2^16", "z-vs-uniform"},
		Notes:   "aggregated over all valid i per family; z compares against the uniform 2^-16 — positive rows should trend positive, (0,i+1) and (255,255) negative",
	}
	for i, f := range families {
		model := f.prob
		if f.name == "(0,0)" {
			// Aggregate of (0,0) over all i mixes the i=1 (2^-7) class
			// with the generic 2^-8 classes and the unbiased i=255 class.
			model = (biases.FMZeroZeroI1.Probability() +
				254*biases.FMZeroZero.Probability() + biases.UPair) / 256
		}
		meas := tt.Probability(i)
		// z against uniform over the family's own denominator.
		den := tt.Pairs
		if f.cell.I >= 0 {
			den = tt.Pairs / 256
		}
		var z float64
		if r, err := stats.ProportionTest(tt.Counts[i], den, biases.UPair); err == nil {
			z = r.Statistic
		}
		res.Rows = append(res.Rows, Row{
			Label:  f.name,
			Values: []float64{meas * 65536, model * 65536, z},
		})
	}
	return res, nil
}

// Figure4 measures the absolute relative bias |q| of FM digraphs in the
// initial keystream bytes (positions 1..positions) against the single-byte
// expected probability, for the digraph families the paper plots. Output
// rows are positions; columns the families; values -log2|q| (the paper's
// y-axis scale, smaller = stronger).
func Figure4(ctx context.Context, keys uint64, positions int) (Result, error) {
	if positions <= 0 {
		positions = 96
	}
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer { return dataset.NewDigraphCounts(positions) })
	if err != nil {
		return Result{}, err
	}
	d := obs.(*dataset.DigraphCounts)

	type fam struct {
		name string
		x    func(i int) int // -1 means family not defined at this i
		y    func(i int) int
	}
	fams := []fam{
		{"(0,0)", func(i int) int { return 0 }, func(i int) int { return 0 }},
		{"(0,1)", func(i int) int { return 0 }, func(i int) int { return 1 }},
		{"(0,i+1)", func(i int) int { return 0 }, func(i int) int { return (i + 1) % 256 }},
		{"(i+1,255)", func(i int) int { return (i + 1) % 256 }, func(i int) int { return 255 }},
		{"(255,i+1)", func(i int) int { return 255 }, func(i int) int { return (i + 1) % 256 }},
		{"(255,255)", func(i int) int { return 255 }, func(i int) int { return 255 }},
	}
	cols := make([]string, len(fams))
	for i, f := range fams {
		cols[i] = f.name
	}
	res := Result{
		ID:      "Figure 4",
		Title:   "FM digraph |q| in initial bytes, as -log2|q| (paper plots 6.5..8.5)",
		Columns: cols,
		Notes:   "position r has PRGA counter i = r mod 256; values converge toward 8 (=2^-8) long-term",
	}
	for r := 1; r < positions; r += 16 {
		i := r % 256
		vals := make([]float64, len(fams))
		for fi, f := range fams {
			x, y := f.x(i), f.y(i)
			sx, sy := d.Marginals(r)
			expected := float64(sx[x]) / float64(d.Keys) * float64(sy[y]) / float64(d.Keys)
			meas := d.Probability(r, byte(x), byte(y))
			q := stats.RelativeBias(meas, expected)
			vals[fi] = stats.Log2RelativeBias(q)
		}
		res.Rows = append(res.Rows, Row{Label: "r=" + strconv.Itoa(r), Values: vals})
	}
	return res, nil
}

// zeroPairCounts tallies the eq. 8 cells over one 256-byte block per window:
// win[0] is Z at a position that is a multiple of 256 and win[2] the byte
// two later.
type zeroPairCounts struct {
	zero, one28, control, total uint64
}

func (z *zeroPairCounts) Window(win []byte) {
	if win[2] == 0 {
		switch win[0] {
		case 0:
			z.zero++
		case 128:
			z.one28++
		case 64:
			z.control++
		}
	}
	z.total++
}

func (z *zeroPairCounts) Merge(other dataset.Sink) error {
	o, ok := other.(*zeroPairCounts)
	if !ok {
		return errIncompatibleTally
	}
	z.zero += o.zero
	z.one28 += o.one28
	z.control += o.control
	z.total += o.total
	return nil
}

// LongTermZeroPairs verifies Sen Gupta's (Z_{256w}, Z_{256w+2}) = (0,0)
// bias and the paper's new (128,0) companion (eq. 8): both have probability
// 2^-16 (1 + 2^-8) at positions that are multiples of 256. A control cell
// (64,0) is reported for comparison; it should sit at the uniform 2^-16.
func LongTermZeroPairs(ctx context.Context, master [16]byte, keys, blocks int) (Result, error) {
	// Skip 1279 bytes so each window starts at a multiple of 256 (the
	// first window's win[0] is Z_1280).
	tot := &zeroPairCounts{}
	if keys > 0 && blocks > 0 {
		shards := dataset.SplitKeys(zeroPairLane, 0, uint64(keys), 0)
		sink, err := dataset.Engine{}.Run(ctx, dataset.Stream{
			Master: master, Skip: 1279, BlockLen: 256, Blocks: blocks,
		}, shards, func(int) dataset.Sink { return &zeroPairCounts{} })
		if err != nil {
			return Result{}, err
		}
		tot = sink.(*zeroPairCounts)
	}
	res := Result{
		ID:      "Eq. 8",
		Title:   "Long-term (Zw256, Zw256+2) pair biases",
		Columns: []string{"measured*2^16", "model*2^16", "z-vs-uniform"},
		Notes:   "(0,0) is Sen Gupta's bias, (128,0) the paper's new eq. 8; (64,0) is an unbiased control",
	}
	rows := []struct {
		name  string
		count uint64
		model float64
	}{
		{"(0,0)", tot.zero, biases.LongTermZeroPair},
		{"(128,0)", tot.one28, biases.LongTerm128Pair},
		{"(64,0) control", tot.control, biases.UPair},
	}
	for _, r := range rows {
		meas := float64(r.count) / float64(tot.total)
		var z float64
		if pr, err := stats.ProportionTest(r.count, tot.total, biases.UPair); err == nil {
			z = pr.Statistic
		}
		res.Rows = append(res.Rows, Row{
			Label:  r.name,
			Values: []float64{meas * 65536, r.model * 65536, z},
		})
	}
	return res, nil
}
