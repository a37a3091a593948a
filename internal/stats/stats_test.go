package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegularizedGammaKnownValues(t *testing.T) {
	// Reference values computed from the standard identities:
	// P(1, x) = 1 - e^-x; P(0.5, x) = erf(sqrt(x)).
	cases := []struct{ a, x float64 }{
		{1, 0.5}, {1, 2}, {1, 10},
		{0.5, 0.25}, {0.5, 1}, {0.5, 4},
	}
	for _, c := range cases {
		got, err := RegularizedGammaP(c.a, c.x)
		if err != nil {
			t.Fatalf("P(%v,%v): %v", c.a, c.x, err)
		}
		var want float64
		if c.a == 1 {
			want = 1 - math.Exp(-c.x)
		} else {
			want = math.Erf(math.Sqrt(c.x))
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%v,%v) = %v, want %v", c.a, c.x, got, want)
		}
	}
}

func TestGammaPQComplement(t *testing.T) {
	f := func(a, x float64) bool {
		a = math.Abs(a)
		x = math.Abs(x)
		if a == 0 || a > 1e6 || x > 1e6 {
			return true
		}
		p, err1 := RegularizedGammaP(a, x)
		q, err2 := RegularizedGammaQ(a, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p+q-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGammaErrors(t *testing.T) {
	if _, err := RegularizedGammaP(-1, 1); err == nil {
		t.Error("negative a accepted")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Error("negative x accepted")
	}
	if _, err := RegularizedGammaQ(0, 1); err == nil {
		t.Error("zero a accepted")
	}
	if p, err := RegularizedGammaP(3, 0); err != nil || p != 0 {
		t.Error("P(a,0) should be 0")
	}
	if q, err := RegularizedGammaQ(3, 0); err != nil || q != 1 {
		t.Error("Q(a,0) should be 1")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Chi-squared with 1 df: Pr[X >= z²] = 2*(1-Φ(z)).
	cases := []struct {
		x    float64
		df   int
		want float64
		tol  float64
	}{
		{3.841, 1, 0.05, 1e-3},  // 95th percentile, 1 df
		{6.635, 1, 0.01, 1e-3},  // 99th percentile, 1 df
		{11.070, 5, 0.05, 1e-3}, // 95th percentile, 5 df
		{293.25, 255, 0.05, 2e-3} /* 95th pct, 255 df */}
	for _, c := range cases {
		got, err := ChiSquareSurvival(c.x, c.df)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("ChiSquareSurvival(%v,%d) = %v, want ~%v", c.x, c.df, got, c.want)
		}
	}
	if p, _ := ChiSquareSurvival(-3, 4); p != 1 {
		t.Error("negative statistic should give p=1")
	}
	if _, err := ChiSquareSurvival(1, 0); err == nil {
		t.Error("df=0 accepted")
	}
}

func TestChiSquareUniformDetectsBias(t *testing.T) {
	// Uniform data should not be rejected; strongly biased data should be.
	rng := rand.New(rand.NewSource(42))
	uniform := make([]uint64, 256)
	biased := make([]uint64, 256)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		uniform[rng.Intn(256)]++
		// Value 0 twice as likely — the Mantin–Shamir Z2 shape.
		v := rng.Intn(257)
		if v >= 256 {
			v = 0
		}
		biased[v]++
	}
	ru, err := ChiSquareUniform(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Rejected() {
		t.Errorf("uniform data rejected: p=%g chi2=%g", ru.P, ru.Statistic)
	}
	rb, err := ChiSquareUniform(biased)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Rejected() {
		t.Errorf("biased data not rejected: p=%g", rb.P)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, err := ChiSquareUniform(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := ChiSquareUniform([]uint64{0, 0}); err == nil {
		t.Error("all-zero accepted")
	}
}

func TestMTestIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 16
	indep := make([]uint64, dim*dim)
	dep := make([]uint64, dim*dim)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		indep[rng.Intn(dim)*dim+rng.Intn(dim)]++
		// Dependent: one cell (3,5) boosted, like a single FM-style digraph.
		if rng.Float64() < 0.002 {
			dep[3*dim+5]++
		} else {
			dep[rng.Intn(dim)*dim+rng.Intn(dim)]++
		}
	}
	ri, err := MTest(indep, dim)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Rejected() {
		t.Errorf("independent table rejected: M=%v p=%g", ri.Statistic, ri.P)
	}
	rd, err := MTest(dep, dim)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Rejected() {
		t.Errorf("dependent table not rejected: M=%v p=%g", rd.Statistic, rd.P)
	}
}

func TestMTestMorePowerfulThanChiSqForOutliers(t *testing.T) {
	// The reason the paper picks the M-test: a single outlying cell in a
	// large table. Build a table where the M-test rejects decisively.
	rng := rand.New(rand.NewSource(99))
	const dim = 64
	tbl := make([]uint64, dim*dim)
	const n = 1 << 22
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.0004 {
			tbl[10*dim+20]++
		} else {
			tbl[rng.Intn(dim)*dim+rng.Intn(dim)]++
		}
	}
	rm, err := MTest(tbl, dim)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Rejected() {
		t.Errorf("M-test failed to find single outlier cell: p=%g", rm.P)
	}
}

func TestMTestErrors(t *testing.T) {
	if _, err := MTest([]uint64{1, 2, 3}, 2); err == nil {
		t.Error("ragged table accepted")
	}
	if _, err := MTest([]uint64{1, 2}, 2); err == nil {
		t.Error("single row accepted")
	}
	if _, err := MTest(make([]uint64, 4), 2); err == nil {
		t.Error("empty table accepted")
	}
}

func TestProportionTest(t *testing.T) {
	// Exact null proportion: z ~ 0.
	r, err := ProportionTest(500000, 1000000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Statistic) > 0.01 || r.P < 0.9 {
		t.Errorf("null proportion: z=%v p=%v", r.Statistic, r.P)
	}
	// A 2x bias at p0=1/256 with 10^6 trials is decisively detected.
	r, err = ProportionTest(7812, 1000000, 1.0/256)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rejected() {
		t.Errorf("2x bias not detected: p=%g", r.P)
	}
	if _, err := ProportionTest(1, 0, 0.5); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := ProportionTest(1, 10, 0); err == nil {
		t.Error("p0=0 accepted")
	}
	if _, err := ProportionTest(1, 10, 1); err == nil {
		t.Error("p0=1 accepted")
	}
}

func TestHolmCorrection(t *testing.T) {
	// Canonical example: p = (0.01, 0.04, 0.03) with m=3.
	// Sorted: 0.01*3=0.03, 0.03*2=0.06, 0.04*1=0.04 -> monotone: 0.03, 0.06, 0.06.
	adj := HolmCorrection([]float64{0.01, 0.04, 0.03})
	want := []float64{0.03, 0.06, 0.06}
	for i := range want {
		if math.Abs(adj[i]-want[i]) > 1e-12 {
			t.Errorf("adj[%d] = %v, want %v", i, adj[i], want[i])
		}
	}
	if len(HolmCorrection(nil)) != 0 {
		t.Error("nil input should give empty output")
	}
	// Property: adjusted >= raw, capped at 1, order of rejections preserved.
	f := func(raw []float64) bool {
		for i := range raw {
			raw[i] = math.Abs(math.Mod(raw[i], 1))
		}
		adj := HolmCorrection(raw)
		for i := range raw {
			if adj[i] < raw[i]-1e-15 || adj[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelativeBias(t *testing.T) {
	if q := RelativeBias(1.5, 1.0); math.Abs(q-0.5) > 1e-15 {
		t.Errorf("q = %v, want 0.5", q)
	}
	if q := RelativeBias(0.5, 1.0); math.Abs(q+0.5) > 1e-15 {
		t.Errorf("q = %v, want -0.5", q)
	}
	if q := RelativeBias(1, 0); q != 0 {
		t.Error("zero expected should yield 0")
	}
	// 2^-8 relative bias reports as 8 on the figure scale.
	if l := Log2RelativeBias(1.0 / 256); math.Abs(l-8) > 1e-12 {
		t.Errorf("Log2RelativeBias = %v, want 8", l)
	}
}

func TestChiSquareIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const dim = 8
	indep := make([]uint64, dim*dim)
	dep := make([]uint64, dim*dim)
	const n = 1 << 18
	for i := 0; i < n; i++ {
		indep[rng.Intn(dim)*dim+rng.Intn(dim)]++
		// Dependent: diagonal boosted.
		if rng.Float64() < 0.05 {
			d := rng.Intn(dim)
			dep[d*dim+d]++
		} else {
			dep[rng.Intn(dim)*dim+rng.Intn(dim)]++
		}
	}
	ri, err := ChiSquareIndependence(indep, dim)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Rejected() {
		t.Errorf("independent table rejected: p=%g", ri.P)
	}
	rd, err := ChiSquareIndependence(dep, dim)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Rejected() {
		t.Errorf("dependent table not rejected: p=%g", rd.P)
	}
}

func TestChiSquareIndependenceErrors(t *testing.T) {
	if _, err := ChiSquareIndependence([]uint64{1, 2, 3}, 2); err == nil {
		t.Error("ragged table accepted")
	}
	if _, err := ChiSquareIndependence([]uint64{1, 2}, 2); err == nil {
		t.Error("single row accepted")
	}
	if _, err := ChiSquareIndependence(make([]uint64, 4), 2); err == nil {
		t.Error("empty table accepted")
	}
	// Degenerate: all mass in one row.
	if _, err := ChiSquareIndependence([]uint64{5, 7, 0, 0}, 2); err == nil {
		t.Error("degenerate table accepted")
	}
}

func TestMTestPowerAdvantage(t *testing.T) {
	// The §3.1 design rationale made measurable: with a single outlying
	// cell in a large table, the M-test must produce a (much) smaller
	// p-value than the chi-squared independence test. This is Fuchs &
	// Kenett's asymptotic result at finite scale.
	rng := rand.New(rand.NewSource(33))
	const dim = 64
	tbl := make([]uint64, dim*dim)
	const n = 1 << 21
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.0006 {
			tbl[17*dim+42]++
		} else {
			tbl[rng.Intn(dim)*dim+rng.Intn(dim)]++
		}
	}
	rm, err := MTest(tbl, dim)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ChiSquareIndependence(tbl, dim)
	if err != nil {
		t.Fatal(err)
	}
	if rm.P >= rc.P {
		t.Errorf("M-test p=%g should beat chi-squared p=%g on a single outlier", rm.P, rc.P)
	}
	if !rm.Rejected() {
		t.Errorf("M-test failed to reject: p=%g", rm.P)
	}
}
