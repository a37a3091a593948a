// Package stats implements the statistical hypothesis tests the paper uses
// to soundly detect RC4 keystream biases (§3.1): a chi-squared goodness-of-
// fit test for single-byte uniformity, the Fuchs–Kenett M-test for
// independence of byte pairs when only a few cells are expected to deviate,
// two-sided proportion tests to locate which value pairs are biased, and
// Holm's step-down method to control the family-wise error rate across many
// simultaneous tests.
//
// The paper used R for this analysis; everything here is implemented from
// scratch on top of the math package so the repository stays stdlib-only.
package stats

import (
	"errors"
	"math"
)

// Machine tolerances for the iterative special-function evaluations.
const (
	gammaEps     = 1e-14
	gammaMaxIter = 1000
)

var errNoConverge = errors.New("stats: special function iteration did not converge")

// RegularizedGammaP computes P(a, x) = γ(a, x) / Γ(a), the regularized lower
// incomplete gamma function, for a > 0, x >= 0. It switches between the
// series expansion (x < a+1) and the continued fraction (x >= a+1), the
// standard numerically stable split.
func RegularizedGammaP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), errors.New("stats: RegularizedGammaP requires a > 0")
	case x < 0:
		return math.NaN(), errors.New("stats: RegularizedGammaP requires x >= 0")
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		return p, err
	}
	q, err := gammaContinuedFraction(a, x)
	return 1 - q, err
}

// RegularizedGammaQ computes Q(a, x) = 1 - P(a, x), the upper tail.
func RegularizedGammaQ(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), errors.New("stats: RegularizedGammaQ requires a > 0")
	case x < 0:
		return math.NaN(), errors.New("stats: RegularizedGammaQ requires x >= 0")
	case x == 0:
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		return 1 - p, err
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for n := 0; n < gammaMaxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return math.NaN(), errNoConverge
}

// gammaContinuedFraction evaluates Q(a,x) by the Lentz continued fraction.
func gammaContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.NaN(), errNoConverge
}

// ChiSquareSurvival returns Pr[X >= x] for a chi-squared variable with df
// degrees of freedom: Q(df/2, x/2).
func ChiSquareSurvival(x float64, df int) (float64, error) {
	if df <= 0 {
		return math.NaN(), errors.New("stats: degrees of freedom must be positive")
	}
	if x <= 0 {
		return 1, nil
	}
	return RegularizedGammaQ(float64(df)/2, x/2)
}

// TwoSidedNormalP converts a z statistic to a two-sided p-value. The paper
// always uses two-sided tests since a bias can be positive or negative.
func TwoSidedNormalP(z float64) float64 {
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	if p > 1 {
		p = 1
	}
	return p
}
