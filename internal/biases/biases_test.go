package biases

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFMCellsDisjoint(t *testing.T) {
	// At every i, the biased cells must be distinct (the likelihood code
	// assumes each cell appears once).
	for i := 0; i < 256; i++ {
		seen := map[[2]byte]FMDigraph{}
		for _, c := range FMCells(i) {
			k := [2]byte{c.X, c.Y}
			if prev, dup := seen[k]; dup {
				t.Fatalf("i=%d: cell (%d,%d) in both %v and %v", i, c.X, c.Y, prev, c.Class)
			}
			seen[k] = c.Class
		}
	}
}

func TestFMCellsCountBound(t *testing.T) {
	// The paper: "at any position at most 8 out of 65536 value pairs show
	// a clear bias" — our generalized table allows a few more classes per i
	// but must stay small (that's what makes eq. 15 fast).
	for i := 0; i < 256; i++ {
		n := len(FMCells(i))
		if n == 0 || n > 10 {
			t.Fatalf("i=%d: %d biased cells", i, n)
		}
	}
}

func TestFMCellsTable1Conditions(t *testing.T) {
	has := func(i int, x, y byte, class FMDigraph) bool {
		for _, c := range FMCells(i) {
			if c.X == x && c.Y == y && c.Class == class {
				return true
			}
		}
		return false
	}
	if !has(1, 0, 0, FMZeroZeroI1) {
		t.Error("(0,0)@i=1 missing")
	}
	if has(255, 0, 0, FMZeroZero) {
		t.Error("(0,0) should be absent at i=255")
	}
	if !has(7, 0, 8, FMZeroIPlus1) {
		t.Error("(0,i+1) missing at i=7")
	}
	if !has(2, 129, 129, FM129_129) {
		t.Error("(129,129)@i=2 missing")
	}
	if has(3, 129, 129, FM129_129) {
		t.Error("(129,129) present at i=3")
	}
	if !has(254, 255, 0, FM255_Zero) {
		t.Error("(255,0)@i=254 missing")
	}
	if !has(255, 255, 1, FM255_One) {
		t.Error("(255,1)@i=255 missing")
	}
	if !has(0, 255, 2, FM255_Two) || !has(1, 255, 2, FM255_Two) {
		t.Error("(255,2)@i=0,1 missing")
	}
	if has(254, 255, 255, FM255_255) {
		t.Error("(255,255) present at i=254")
	}
	if !has(10, 255, 255, FM255_255) {
		t.Error("(255,255) missing at i=10")
	}
}

func TestFMRelativeBiasSigns(t *testing.T) {
	if FMZeroZeroI1.RelativeBias() != 1.0/128 {
		t.Error("(0,0)@i=1 should be 2^-7")
	}
	for _, neg := range []FMDigraph{FMZeroIPlus1, FM255_255} {
		if neg.RelativeBias() >= 0 {
			t.Errorf("%v should be negative", neg)
		}
	}
	if FMZeroZero.Probability() <= UPair {
		t.Error("(0,0) should exceed uniform")
	}
	if FMDigraph(-1).String() != "unknown" {
		t.Error("bad String for invalid class")
	}
	if FMZeroZero.String() != "(0,0)" {
		t.Errorf("String = %q", FMZeroZero.String())
	}
}

func TestFMDistributionNormalized(t *testing.T) {
	for _, i := range []int{0, 1, 2, 100, 254, 255} {
		dist := FMDistribution(i)
		var sum float64
		for _, p := range dist {
			if p <= 0 {
				t.Fatalf("i=%d: non-positive probability", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("i=%d: sum = %v", i, sum)
		}
		// Biased cells must deviate in the right direction.
		for _, c := range FMCells(i) {
			got := dist[int(c.X)*256+int(c.Y)]
			if (c.P > UPair) != (got > UPair) {
				t.Fatalf("i=%d cell (%d,%d): direction lost", i, c.X, c.Y)
			}
		}
	}
}

func TestABSABAlpha(t *testing.T) {
	// g=0: α = 2^-16 (1 + 2^-8 e^{-4/256}).
	want := UPair * (1 + math.Exp(-4.0/256)/256)
	if got := ABSABAlpha(0); math.Abs(got-want) > 1e-20 {
		t.Errorf("alpha(0) = %v, want %v", got, want)
	}
	// Monotonically decreasing toward uniform as the gap grows.
	prev := ABSABAlpha(0)
	for g := 1; g <= 256; g++ {
		cur := ABSABAlpha(g)
		if cur >= prev {
			t.Fatalf("alpha not decreasing at g=%d", g)
		}
		if cur <= UPair {
			t.Fatalf("alpha fell to uniform at g=%d", g)
		}
		prev = cur
	}
}

func TestABSABCopyProbConsistent(t *testing.T) {
	// The generative model must reproduce α: β + (1-β)u = α.
	for g := 0; g <= MaxUsefulGap; g++ {
		beta := ABSABCopyProb(g)
		if beta <= 0 || beta >= 1 {
			t.Fatalf("beta(%d) = %v out of range", g, beta)
		}
		got := beta + (1-beta)*UPair
		if math.Abs(got-ABSABAlpha(g)) > 1e-18 {
			t.Fatalf("beta inconsistent at g=%d", g)
		}
	}
}

func TestTable2Probabilities(t *testing.T) {
	// All Table 2 probabilities must be near 2^-16 (they are pair
	// probabilities with small relative biases).
	for _, b := range append(append([]PairBias{}, ConsecutiveKeyLengthBiases...), NonConsecutiveBiases...) {
		if p := b.P(); p < UPair/2 || p > UPair*2 {
			t.Errorf("bias at (%d,%d): probability %v implausible", b.A, b.B, p)
		}
		if b.A >= b.B {
			t.Errorf("bias rows must have A < B: (%d,%d)", b.A, b.B)
		}
		if b.RelSign != 1 && b.RelSign != -1 {
			t.Errorf("bias at (%d,%d): RelSign %d", b.A, b.B, b.RelSign)
		}
		// P must decompose as Base * (1 + q).
		if math.Abs(b.P()-b.Base()*(1+b.RelativeBias())) > 1e-18 {
			t.Errorf("bias at (%d,%d): decomposition inconsistent", b.A, b.B)
		}
	}
	// The consecutive family must be eq. 2: positions (16w-1, 16w), both
	// values 256-16w, negative dependency bias that weakens with w.
	for w := 1; w <= 7; w++ {
		b := ConsecutiveKeyLengthBiases[w-1]
		if b.A != 16*w-1 || b.B != 16*w {
			t.Errorf("w=%d: positions (%d,%d)", w, b.A, b.B)
		}
		if b.X != byte(256-16*w) || b.Y != b.X {
			t.Errorf("w=%d: values (%d,%d)", w, b.X, b.Y)
		}
		if b.RelativeBias() >= 0 {
			t.Errorf("w=%d: dependency bias should be negative", w)
		}
	}
	// Weakening: |dependency bias| decreases with w.
	for w := 1; w < 7; w++ {
		qa := math.Abs(ConsecutiveKeyLengthBiases[w-1].RelativeBias())
		qb := math.Abs(ConsecutiveKeyLengthBiases[w].RelativeBias())
		if qb >= qa {
			t.Errorf("dependency bias should weaken: w=%d %v -> %v", w, qa, qb)
		}
	}
}

func TestEqualityBiases(t *testing.T) {
	for _, e := range EqualityBiases {
		if e.P < USingle/2 || e.P > USingle*2 {
			t.Errorf("equality (%d,%d): probability %v implausible", e.A, e.B, e.P)
		}
	}
	// Signs: Z1=Z3 negative, Z1=Z4 positive, Z2=Z4 negative.
	if EqualityBiases[0].P >= USingle {
		t.Error("Pr[Z1=Z3] should be below uniform")
	}
	if EqualityBiases[1].P <= USingle {
		t.Error("Pr[Z1=Z4] should be above uniform")
	}
	if EqualityBiases[2].P >= USingle {
		t.Error("Pr[Z2=Z4] should be below uniform")
	}
}

func TestZ1Z2SetCells(t *testing.T) {
	for s := SetZ1_257mI_Zi0; s <= SetZ2_0_ZiI; s++ {
		for _, i := range []int{3, 16, 100, 256} {
			a, _, b, _ := s.Cell(i)
			if b != i {
				t.Errorf("set %d: target position %d != %d", s, b, i)
			}
			if a != 1 && a != 2 {
				t.Errorf("set %d: conditioning position %d", s, a)
			}
		}
	}
	// Spot-check set 1 at i=100: Z1 = 257-100 = 157, Zi = 0.
	a, x, b, y := SetZ1_257mI_Zi0.Cell(100)
	if a != 1 || x != 157 || b != 100 || y != 0 {
		t.Errorf("set 1 cell = (%d,%d,%d,%d)", a, x, b, y)
	}
}

func TestKeyLengthBiases(t *testing.T) {
	pos, val := SingleByteKeyLengthBias(1)
	if pos != 272 || val != 32 {
		t.Errorf("SingleByteKeyLengthBias(1) = (%d,%d)", pos, val)
	}
	pos, val = SingleByteKeyLengthBias(7)
	if pos != 368 || val != 224 {
		t.Errorf("SingleByteKeyLengthBias(7) = (%d,%d)", pos, val)
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	s := NewSampler(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[s.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestSamplerPanics(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v: no panic", weights)
				}
			}()
			NewSampler(weights)
		}()
	}
}

func TestSamplerProperty(t *testing.T) {
	// Every drawn index is within range and has positive weight.
	f := func(raw []uint8, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			weights[i] = float64(r)
			sum += weights[i]
		}
		if sum == 0 {
			return true
		}
		s := NewSampler(weights)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := s.Draw(rng)
			if v < 0 || v >= len(weights) {
				return false
			}
			if weights[v] == 0 {
				// Zero-weight cells may only be drawn with vanishing
				// probability from alias residue; treat as failure.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFMSamplerFrequencies(t *testing.T) {
	// The FM biases are 2^-7/2^-8 relative — far below what a unit-test
	// sample can resolve — so here we only check the sampler's plumbing:
	// the (0,0) frequency at i=1 must sit within generous bounds of its
	// model probability, and draws must cover the full digraph range.
	s := NewSampler(FMDistribution(1))
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 21
	var zz int
	minV, maxV := 1<<30, -1
	for i := 0; i < n; i++ {
		v := s.Draw(rng)
		if v == 0 {
			zz++
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	p := FMZeroZeroI1.Probability()
	want := p * n
	if math.Abs(float64(zz)-want) > 6*math.Sqrt(want) {
		t.Errorf("(0,0) count %d, want ~%.0f", zz, want)
	}
	if minV < 0 || maxV > 65535 {
		t.Errorf("draw range [%d,%d] out of bounds", minV, maxV)
	}
	if maxV-minV < 60000 {
		t.Errorf("draws cover only [%d,%d]", minV, maxV)
	}
}

func TestFMSamplerAmplifiedBias(t *testing.T) {
	// Sampler correctness on an FM-shaped but amplified distribution: give
	// (0,0) a 10% boost and confirm it shows up in the draws.
	dist := FMDistribution(1)
	dist[0] *= 1.10
	s := NewSampler(dist)
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 23
	var zz, ref int
	for i := 0; i < n; i++ {
		v := s.Draw(rng)
		if v == 0 {
			zz++
		}
		if v == 0x0304 {
			ref++
		}
	}
	if float64(zz) < 1.04*float64(ref) {
		t.Errorf("amplified cell not visible: %d vs %d", zz, ref)
	}
}

// TestFMModelMatchesDistribution pins FMModelAt against FMDistribution at
// every counter: expanded to a dense table, the model's probabilities are
// bit-equal to the table's.
func TestFMModelMatchesDistribution(t *testing.T) {
	for i := 0; i < 256; i++ {
		m := FMModelAt(i)
		dense := make([]float64, 65536)
		for n := range dense {
			dense[n] = m.uniform
		}
		for _, c := range m.cells {
			dense[int(c.X)<<8|int(c.Y)] = c.P
		}
		want := FMDistribution(i)
		for n := range want {
			if math.Float64bits(dense[n]) != math.Float64bits(want[n]) {
				t.Fatalf("i=%d cell %#04x: model %v, FMDistribution %v", i, n, dense[n], want[n])
			}
		}
	}
	if FMModelAt(256+7) != FMModelAt(7) {
		t.Error("counter not taken mod 256")
	}
}
