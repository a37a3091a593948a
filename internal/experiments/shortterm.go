package experiments

import (
	"context"
	"math"
	"strconv"

	"rc4break/internal/biases"
	"rc4break/internal/dataset"
	"rc4break/internal/stats"
)

// Table2 re-estimates the Table 2 pair biases (consecutive key-length rows
// and non-consecutive rows) with `keys` random 16-byte keys, reporting the
// measured probability against the paper's value. The paper used 2^44–2^45
// keys; sign agreement and magnitude ordering are the reproducible shape at
// laptop scale.
func Table2(ctx context.Context, keys uint64) (Result, error) {
	all := append(append([]biases.PairBias{}, biases.ConsecutiveKeyLengthBiases...),
		biases.NonConsecutiveBiases...)
	cells := make([]dataset.PairCell, len(all))
	for i, b := range all {
		cells[i] = dataset.PairCell{A: b.A, B: b.B, X: b.X, Y: b.Y}
	}
	tp, err := dataset.NewTargetedPairs(cells)
	if err != nil {
		return Result{}, err
	}
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer {
			t, _ := dataset.NewTargetedPairs(cells)
			return t
		})
	if err != nil {
		return Result{}, err
	}
	tp = obs.(*dataset.TargetedPairs)

	res := Result{
		ID:      "Table 2",
		Title:   "Biases between (non-)consecutive bytes",
		Columns: []string{"measured*2^16", "paper*2^16", "z-vs-uniform"},
		Notes:   "z is the proportion-test statistic against the uniform 2^-16; magnitudes need ~2^40+ keys to resolve exactly, signs and strong rows resolve sooner",
	}
	for i, b := range all {
		meas := tp.Probability(i)
		var z float64
		if r, err := stats.ProportionTest(tp.Counts[i], tp.Keys, biases.UPair); err == nil {
			z = r.Statistic
		}
		label := pairLabel(b)
		res.Rows = append(res.Rows, Row{
			Label:  label,
			Values: []float64{meas * 65536, b.P() * 65536, z},
		})
	}
	return res, nil
}

func pairLabel(b biases.PairBias) string {
	return "Z" + strconv.Itoa(b.A) + "=" + strconv.Itoa(int(b.X)) + " & Z" + strconv.Itoa(b.B) + "=" + strconv.Itoa(int(b.Y))
}

// Equalities reproduces eqs. 3–5: Pr[Z1=Z3], Pr[Z1=Z4], Pr[Z2=Z4].
// The relative biases are 2^-8.59..2^-9.62, resolvable at ~2^30 keys; at
// smaller scales the z column shows the direction of the evidence.
func Equalities(ctx context.Context, keys uint64) (Result, error) {
	as := make([]int, len(biases.EqualityBiases))
	bs := make([]int, len(biases.EqualityBiases))
	for i, e := range biases.EqualityBiases {
		as[i], bs[i] = e.A, e.B
	}
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer {
			e, _ := dataset.NewEqualityCounts(as, bs)
			return e
		})
	if err != nil {
		return Result{}, err
	}
	eq := obs.(*dataset.EqualityCounts)
	res := Result{
		ID:      "Eqs. 3-5",
		Title:   "Equality biases Pr[Za = Zb]",
		Columns: []string{"measured*2^8", "paper*2^8", "z-vs-uniform"},
	}
	for i, e := range biases.EqualityBiases {
		meas := eq.Probability(i)
		var z float64
		if r, err := stats.ProportionTest(eq.Counts[i], eq.Keys, biases.USingle); err == nil {
			z = r.Statistic
		}
		res.Rows = append(res.Rows, Row{
			Label:  "Z" + strconv.Itoa(e.A) + " = Z" + strconv.Itoa(e.B),
			Values: []float64{meas * 256, e.P * 256, z},
		})
	}
	return res, nil
}

// Figure5 measures the six §3.3.2 bias families induced by Z1 and Z2 at a
// sample of target positions i, reporting the relative bias q of each pair
// against its single-byte-expected probability (the paper's y-axis).
// Positive q for families 1/2/4, negative for 3/5/6, is the shape.
func Figure5(ctx context.Context, keys uint64, positions []int) (Result, error) {
	if len(positions) == 0 {
		positions = []int{16, 32, 64, 96, 128, 160, 192, 224, 256}
	}
	sets := []biases.Z1Z2Set{
		biases.SetZ1_257mI_Zi0, biases.SetZ1_257mI_ZiI, biases.SetZ1_257mI_Zi257m,
		biases.SetZ1_Im1_Zi1, biases.SetZ2_0_Zi0, biases.SetZ2_0_ZiI,
	}
	var cells []dataset.PairCell
	for _, i := range positions {
		for _, s := range sets {
			a, x, b, y := s.Cell(i)
			cells = append(cells, dataset.PairCell{A: a, X: x, B: b, Y: y})
		}
	}
	maxPos := positions[len(positions)-1]
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer {
			m := &dataset.Multi{}
			t, _ := dataset.NewTargetedPairs(cells)
			m.Observers = append(m.Observers, t, dataset.NewSingleByteCounts(maxPos))
			return m
		})
	if err != nil {
		return Result{}, err
	}
	multi := obs.(*dataset.Multi)
	tp := multi.Observers[0].(*dataset.TargetedPairs)
	sb := multi.Observers[1].(*dataset.SingleByteCounts)

	res := Result{
		ID:      "Figure 5",
		Title:   "Relative bias q of Z1/Z2-induced pairs (sets 1-6 per column)",
		Columns: []string{"set1", "set2", "set3", "set4", "set5", "set6"},
		Notes:   "q = s/p - 1 with p from single-byte marginals; paper shape: sets 1,2,4 positive, sets 3,5,6 negative",
	}
	ci := 0
	for _, i := range positions {
		vals := make([]float64, len(sets))
		for si, s := range sets {
			a, x, b, y := s.Cell(i)
			expected := sb.Probability(a, x) * sb.Probability(b, y)
			vals[si] = stats.RelativeBias(tp.Probability(ci), expected)
			ci++
		}
		res.Rows = append(res.Rows, Row{Label: "i=" + strconv.Itoa(i), Values: vals})
	}
	return res, nil
}

// Figure6 estimates single-byte probabilities beyond position 256: the
// key-length biases Z_{256+16k} toward 32k (k = 1..7) plus the positions
// the paper plots (272, 304, 336, 368). Reported: Pr[Z_pos = 32k]·256 and
// the chi-squared p-value for uniformity of the position.
func Figure6(ctx context.Context, keys uint64) (Result, error) {
	const maxPos = 368
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer { return dataset.NewSingleByteCounts(maxPos) })
	if err != nil {
		return Result{}, err
	}
	sb := obs.(*dataset.SingleByteCounts)
	res := Result{
		ID:      "Figure 6",
		Title:   "Single-byte biases beyond position 256 (key-length family)",
		Columns: []string{"Pr[Z=32k]*256", "uniform=1", "chi2-p(log10)"},
		Notes:   "paper: each Z_{256+16k} biased toward 32k; detectability needs ~2^30+ keys per the paper's 2^47",
	}
	for k := 1; k <= 7; k++ {
		pos, val := biases.SingleByteKeyLengthBias(k)
		p := sb.Probability(pos, val)
		var logp float64 = math.NaN()
		if r, err := stats.ChiSquareUniform(sb.Position(pos)); err == nil && r.P > 0 {
			logp = math.Log10(r.P)
		}
		res.Rows = append(res.Rows, Row{
			Label:  "Z" + strconv.Itoa(pos) + " -> " + strconv.Itoa(int(val)),
			Values: []float64{p * 256, 1, logp},
		})
	}
	return res, nil
}

// ConsecutiveEq2 verifies the eq. 2 family (Table 2's consecutive rows)
// with direct targeted counting, reporting measured versus paper values of
// Pr[Z_{16w-1} = Z_{16w} = 256-16w].
func ConsecutiveEq2(ctx context.Context, keys uint64) (Result, error) {
	var cells []dataset.PairCell
	for _, b := range biases.ConsecutiveKeyLengthBiases {
		cells = append(cells, dataset.PairCell{A: b.A, B: b.B, X: b.X, Y: b.Y})
	}
	obs, err := dataset.Run(dataset.Config{Keys: keys, Ctx: ctx},
		func() dataset.Observer {
			t, _ := dataset.NewTargetedPairs(cells)
			return t
		})
	if err != nil {
		return Result{}, err
	}
	tp := obs.(*dataset.TargetedPairs)
	res := Result{
		ID:      "Eq. 2",
		Title:   "Key-length digraphs Pr[Z_{16w-1} = Z_{16w} = 256-16w]",
		Columns: []string{"measured*2^16", "paper*2^16"},
	}
	for i, b := range biases.ConsecutiveKeyLengthBiases {
		res.Rows = append(res.Rows, Row{
			Label:  "w=" + strconv.Itoa(i+1),
			Values: []float64{tp.Probability(i) * 65536, b.P() * 65536},
		})
	}
	return res, nil
}
