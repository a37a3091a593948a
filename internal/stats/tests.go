package stats

import (
	"errors"
	"math"
	"sort"
)

// SignificanceLevel is the rejection threshold the paper uses: the null
// hypothesis is rejected only when the (Holm-corrected) p-value is below
// 1e-4 (§3.1).
const SignificanceLevel = 1e-4

// TestResult is the outcome of a single hypothesis test.
type TestResult struct {
	Statistic float64 // test statistic (chi², M, or z depending on the test)
	DF        int     // degrees of freedom where applicable
	P         float64 // two-sided p-value
}

// Rejected reports whether the null hypothesis is rejected at the paper's
// significance level.
func (r TestResult) Rejected() bool { return r.P < SignificanceLevel }

// ChiSquareUniform runs a chi-squared goodness-of-fit test of the null
// hypothesis that the observed counts are drawn from the uniform
// distribution over their cells. This is the paper's single-byte test: the
// counts are the 256 observed frequencies of one keystream position.
func ChiSquareUniform(observed []uint64) (TestResult, error) {
	if len(observed) < 2 {
		return TestResult{}, errors.New("stats: need at least 2 cells")
	}
	var total uint64
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return TestResult{}, errors.New("stats: no observations")
	}
	expected := float64(total) / float64(len(observed))
	var chi2 float64
	for _, o := range observed {
		d := float64(o) - expected
		chi2 += d * d / expected
	}
	df := len(observed) - 1
	p, err := ChiSquareSurvival(chi2, df)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{Statistic: chi2, DF: df, P: p}, nil
}

// MTest runs the Fuchs–Kenett M-test for outlying cells in a two-way
// contingency table. The null hypothesis is that rows and columns are
// independent (the paper's double-byte test, §3.1: single-byte biases make
// "pair is uniform" the wrong null; independence is the right one).
//
// The statistic is the maximum absolute adjusted standardized residual
//
//	z_ij = (n_ij - e_ij) / sqrt(e_ij (1 - p_i.)(1 - p_.j))
//
// with e_ij = n p_i. p_.j. Under H0 each z_ij is asymptotically standard
// normal; the M-test p-value applies a Bonferroni bound over the R*C cells,
// which Fuchs and Kenett show is asymptotically more powerful than the
// chi-squared test when only a few cells deviate — exactly the RC4 setting,
// where at most ~8 of 65536 digraph cells are biased.
//
// table is row-major with given number of columns.
func MTest(table []uint64, cols int) (TestResult, error) {
	if cols < 2 || len(table)%cols != 0 {
		return TestResult{}, errors.New("stats: bad table shape")
	}
	rows := len(table) / cols
	if rows < 2 {
		return TestResult{}, errors.New("stats: need at least 2 rows")
	}
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	var n float64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := float64(table[r*cols+c])
			rowSum[r] += v
			colSum[c] += v
			n += v
		}
	}
	if n == 0 {
		return TestResult{}, errors.New("stats: no observations")
	}
	var maxZ float64
	for r := 0; r < rows; r++ {
		pr := rowSum[r] / n
		if pr == 0 || pr == 1 {
			continue
		}
		for c := 0; c < cols; c++ {
			pc := colSum[c] / n
			if pc == 0 || pc == 1 {
				continue
			}
			e := n * pr * pc
			den := math.Sqrt(e * (1 - pr) * (1 - pc))
			if den == 0 {
				continue
			}
			z := math.Abs(float64(table[r*cols+c])-e) / den
			if z > maxZ {
				maxZ = z
			}
		}
	}
	// Bonferroni bound over all cells, two-sided.
	cells := float64(rows * cols)
	p := cells * TwoSidedNormalP(maxZ)
	if p > 1 {
		p = 1
	}
	return TestResult{Statistic: maxZ, DF: (rows - 1) * (cols - 1), P: p}, nil
}

// ChiSquareIndependence runs the classical chi-squared test of independence
// on a two-way contingency table (row-major, cols columns). §3.1 discusses
// this as the naive alternative to the M-test: it works, but when only a
// few cells deviate — the RC4 digraph setting, where at most ~8 of 65536
// cells are biased — the M-test of Fuchs and Kenett is asymptotically more
// powerful. Both are provided so the power difference can be measured
// (see TestMTestPowerAdvantage and the §3.1 ablation bench).
func ChiSquareIndependence(table []uint64, cols int) (TestResult, error) {
	if cols < 2 || len(table)%cols != 0 {
		return TestResult{}, errors.New("stats: bad table shape")
	}
	rows := len(table) / cols
	if rows < 2 {
		return TestResult{}, errors.New("stats: need at least 2 rows")
	}
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	var n float64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := float64(table[r*cols+c])
			rowSum[r] += v
			colSum[c] += v
			n += v
		}
	}
	if n == 0 {
		return TestResult{}, errors.New("stats: no observations")
	}
	var chi2 float64
	effRows, effCols := 0, 0
	for r := 0; r < rows; r++ {
		if rowSum[r] > 0 {
			effRows++
		}
	}
	for c := 0; c < cols; c++ {
		if colSum[c] > 0 {
			effCols++
		}
	}
	if effRows < 2 || effCols < 2 {
		return TestResult{}, errors.New("stats: degenerate table")
	}
	for r := 0; r < rows; r++ {
		if rowSum[r] == 0 {
			continue
		}
		for c := 0; c < cols; c++ {
			if colSum[c] == 0 {
				continue
			}
			e := rowSum[r] * colSum[c] / n
			d := float64(table[r*cols+c]) - e
			chi2 += d * d / e
		}
	}
	df := (effRows - 1) * (effCols - 1)
	p, err := ChiSquareSurvival(chi2, df)
	if err != nil {
		return TestResult{}, err
	}
	return TestResult{Statistic: chi2, DF: df, P: p}, nil
}

// ProportionTest tests H0: the success probability equals p0, given count
// successes out of n trials, using the normal approximation with a two-sided
// alternative. The paper uses proportion tests over all value pairs of
// dependent bytes to locate which specific values are biased.
func ProportionTest(count, n uint64, p0 float64) (TestResult, error) {
	if n == 0 {
		return TestResult{}, errors.New("stats: no trials")
	}
	if p0 <= 0 || p0 >= 1 {
		return TestResult{}, errors.New("stats: p0 must be in (0,1)")
	}
	nf := float64(n)
	se := math.Sqrt(p0 * (1 - p0) / nf)
	z := (float64(count)/nf - p0) / se
	return TestResult{Statistic: z, DF: 0, P: TwoSidedNormalP(z)}, nil
}

// HolmCorrection applies Holm's step-down method to a family of p-values and
// returns the adjusted p-values in the original order. Rejecting adjusted
// p-values below alpha controls the family-wise error rate at alpha — the
// paper's guard against false-positive biases when testing thousands of
// position/value combinations at once.
func HolmCorrection(pvalues []float64) []float64 {
	m := len(pvalues)
	adjusted := make([]float64, m)
	if m == 0 {
		return adjusted
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvalues[idx[a]] < pvalues[idx[b]] })
	running := 0.0
	for rank, i := range idx {
		adj := float64(m-rank) * pvalues[i]
		if adj > 1 {
			adj = 1
		}
		if adj < running {
			adj = running // enforce monotonicity
		}
		running = adj
		adjusted[i] = adj
	}
	return adjusted
}

// RelativeBias reports the relative bias q from s = p*(1+q), where p is the
// probability expected from the single-byte marginals alone and s the
// actually observed pair probability (§3.1's reporting convention, used for
// Figures 4 and 5).
func RelativeBias(observed, expected float64) float64 {
	if expected == 0 {
		return 0
	}
	return observed/expected - 1
}

// Log2RelativeBias expresses |q| as -log2|q|, the scale the paper's figures
// use (e.g. "2^-8.5"). Returns +Inf for q == 0.
func Log2RelativeBias(q float64) float64 {
	return -math.Log2(math.Abs(q))
}
