package recovery

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rc4break/internal/biases"
	"rc4break/internal/httpmodel"
)

// sampleCiphertexts encrypts the plaintext byte pt many times with keystream
// bytes drawn from dist, returning the ciphertext histogram.
func sampleCiphertexts(t *testing.T, pt byte, dist []float64, n int, seed int64) *[256]uint64 {
	t.Helper()
	s := biases.NewSampler(dist)
	rng := rand.New(rand.NewSource(seed))
	var counts [256]uint64
	for i := 0; i < n; i++ {
		z := byte(s.Draw(rng))
		counts[z^pt]++
	}
	return &counts
}

// skewedDist is a single-byte distribution with a strong positive bias on
// value 0 and a weaker one on value 77 — a caricature of the §5.1 per-TSC
// distributions, strong enough to resolve with few samples.
func skewedDist() []float64 {
	d := make([]float64, 256)
	for i := range d {
		d[i] = 1.0 / 256
	}
	d[0] *= 1.5
	d[77] *= 1.2
	var sum float64
	for _, p := range d {
		sum += p
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

func TestSingleByteLikelihoodsRecovery(t *testing.T) {
	dist := skewedDist()
	const truth = byte('S')
	counts := sampleCiphertexts(t, truth, dist, 1<<16, 1)
	l, err := SingleByteLikelihoods(counts, dist)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Best(); got != truth {
		t.Errorf("recovered %q, want %q", got, truth)
	}
}

func TestSingleByteLikelihoodsErrors(t *testing.T) {
	var counts [256]uint64
	if _, err := SingleByteLikelihoods(&counts, make([]float64, 255)); err == nil {
		t.Error("short distribution accepted")
	}
	bad := make([]float64, 256)
	if _, err := SingleByteLikelihoods(&counts, bad); err == nil {
		t.Error("zero-probability distribution accepted")
	}
}

func TestSingleByteLikelihoodsUniformIsFlat(t *testing.T) {
	// Under a uniform keystream model, all plaintexts are equally likely:
	// the likelihood table must be constant.
	uniform := make([]float64, 256)
	for i := range uniform {
		uniform[i] = 1.0 / 256
	}
	var counts [256]uint64
	for i := range counts {
		counts[i] = uint64(i * i) // arbitrary
	}
	l, err := SingleByteLikelihoods(&counts, uniform)
	if err != nil {
		t.Fatal(err)
	}
	for mu := 1; mu < 256; mu++ {
		if math.Abs(l[mu]-l[0]) > 1e-6 {
			t.Fatalf("uniform model should give flat likelihood: l[%d]-l[0] = %v", mu, l[mu]-l[0])
		}
	}
}

// samplePairHistogram encrypts the plaintext pair many times with digraphs
// drawn from the FM distribution at counter i, returning the ciphertext
// digraph histogram.
func samplePairHistogram(pt1, pt2 byte, i, n int, seed int64) []uint64 {
	s := biases.NewSampler(biases.FMDistribution(i))
	rng := rand.New(rand.NewSource(seed))
	hist := make([]uint64, 65536)
	for j := 0; j < n; j++ {
		v := s.Draw(rng)
		z1, z2 := byte(v>>8), byte(v&0xff)
		hist[int(z1^pt1)*256+int(z2^pt2)]++
	}
	return hist
}

func TestSparseMatchesNaive(t *testing.T) {
	// The eq. 15 optimization must rank identically to the full eq. 13
	// computation (scores differ only by a constant).
	const i = 5
	hist := samplePairHistogram('a', 'b', i, 1<<16, 3)
	naive, err := PairLikelihoodsNaive(hist, biases.FMDistribution(i))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FMPairLikelihoods(hist, i)
	if err != nil {
		t.Fatal(err)
	}
	// Compare differences against a reference cell; they must agree to
	// floating-point tolerance (the dropped constant cancels). The naive
	// path uses the normalized distribution, so allow a small tolerance.
	ref := 0
	for idx := 1; idx < 65536; idx += 257 {
		dn := naive[idx] - naive[ref]
		ds := sparse[idx] - sparse[ref]
		if math.Abs(dn-ds) > 1e-3*(1+math.Abs(dn)) {
			t.Fatalf("idx %d: naive Δ=%v sparse Δ=%v", idx, dn, ds)
		}
	}
	n1, n2 := naive.Best()
	s1, s2 := sparse.Best()
	if n1 != s1 || n2 != s2 {
		t.Fatalf("best candidates differ: naive (%d,%d) sparse (%d,%d)", n1, n2, s1, s2)
	}
}

func TestSparsePairLikelihoodRecoversAmplified(t *testing.T) {
	// True FM biases need ~2^34 ciphertexts (Fig. 7) — out of unit-test
	// range — so validate the sparse-likelihood machinery on an FM-shaped
	// distribution with amplified cells: same code path, resolvable signal.
	cells := []BiasedCell{
		{K1: 0, K2: 0, P: 2 * biases.UPair},
		{K1: 0, K2: 6, P: 0.5 * biases.UPair},
		{K1: 255, K2: 255, P: 1.5 * biases.UPair},
	}
	dist := make([]float64, 65536)
	for i := range dist {
		dist[i] = biases.UPair
	}
	for _, c := range cells {
		dist[int(c.K1)*256+int(c.K2)] = c.P
	}
	s := biases.NewSampler(dist)
	rng := rand.New(rand.NewSource(4))
	const truth1, truth2 = 'O', 'K'
	hist := make([]uint64, 65536)
	const n = 1 << 22
	for j := 0; j < n; j++ {
		v := s.Draw(rng)
		hist[(int(v>>8)^truth1)*256+(int(v&0xff)^truth2)]++
	}
	lk := new(PairLikelihoods)
	if err := PairLikelihoodsSparseInto(lk, hist, cells, biases.UPair); err != nil {
		t.Fatal(err)
	}
	m1, m2 := lk.Best()
	if m1 != truth1 || m2 != truth2 {
		t.Errorf("recovered (%q,%q), want (%q,%q)", m1, m2, truth1, truth2)
	}
}

func TestPairLikelihoodErrors(t *testing.T) {
	if _, err := PairLikelihoodsNaive(make([]uint64, 10), make([]float64, 65536)); err == nil {
		t.Error("short histogram accepted")
	}
	if _, err := PairLikelihoodsNaive(make([]uint64, 65536), make([]float64, 65536)); err == nil {
		t.Error("zero distribution accepted")
	}
	if err := PairLikelihoodsSparseInto(new(PairLikelihoods), make([]uint64, 3), nil, biases.UPair); err == nil {
		t.Error("short histogram accepted")
	}
	if err := PairLikelihoodsSparseInto(new(PairLikelihoods), make([]uint64, 65536), nil, 0); err == nil {
		t.Error("zero uniform accepted")
	}
	if err := PairLikelihoodsSparseInto(new(PairLikelihoods), make([]uint64, 65536), []BiasedCell{{P: -1}}, biases.UPair); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := ABSABPairLikelihoods(make([]uint64, 3), 0, 0, 0); err == nil {
		t.Error("short differential histogram accepted")
	}
	if _, err := ABSABPairLikelihoods(make([]uint64, 65536), -1, 0, 0); err == nil {
		t.Error("negative gap accepted")
	}
}

func TestABSABLikelihoodRecovery(t *testing.T) {
	// Generative model of §4.2: the unknown pair sits at (r, r+1); a known
	// pair (k1,k2) sits g bytes later. With probability β(g) the keystream
	// digraphs coincide, making the ciphertext differential equal the
	// plaintext differential. We amplify β to keep the test fast; the
	// likelihood machinery itself is linear in the evidence either way.
	const gap = 2
	const truth1, truth2 = 'n', 'o'
	const known1, known2 = 'X', 'Y'
	rng := rand.New(rand.NewSource(5))
	hist := make([]uint64, 65536)
	beta := 0.01
	const n = 1 << 20
	for j := 0; j < n; j++ {
		var d1, d2 byte
		if rng.Float64() < beta {
			d1, d2 = 0, 0 // keystream digraph repeats: Ẑ = (0,0)
		} else {
			v := rng.Intn(65536)
			d1, d2 = byte(v>>8), byte(v&0xff)
		}
		// Ĉ = Ẑ ⊕ P̂ with P̂ = (truth ⊕ known).
		c1 := d1 ^ truth1 ^ known1
		c2 := d2 ^ truth2 ^ known2
		hist[int(c1)*256+int(c2)]++
	}
	lk, err := ABSABPairLikelihoods(hist, gap, known1, known2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := lk.Best()
	if m1 != truth1 || m2 != truth2 {
		t.Errorf("recovered (%q,%q), want (%q,%q)", m1, m2, truth1, truth2)
	}
}

func TestCombineLikelihoods(t *testing.T) {
	// Eq. 25: summing two weakly informative tables must beat each alone.
	// Construct two tables each mildly favoring the truth plus noise.
	rng := rand.New(rand.NewSource(6))
	const truth = 0x1234
	mk := func() *PairLikelihoods {
		var p PairLikelihoods
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		p[truth] += 2.5 // weak signal, below the max of 65536 N(0,1) draws
		return &p
	}
	a, b, c := mk(), mk(), mk()
	combined := new(PairLikelihoods)
	combined.Add(a)
	combined.Add(b)
	combined.Add(c)
	m1, m2 := combined.Best()
	if int(m1)*256+int(m2) != truth {
		t.Errorf("combination failed to amplify the truth: got (%d,%d)", m1, m2)
	}
}

func TestSingleByteEnumeratorOrderAndCompleteness(t *testing.T) {
	// Two positions with known likelihoods: enumeration must be in strictly
	// non-increasing score order and must not repeat candidates.
	mk := func(vals map[byte]float64) *ByteLikelihoods {
		var l ByteLikelihoods
		for i := range l {
			l[i] = -100
		}
		for v, s := range vals {
			l[v] = s
		}
		return &l
	}
	l1 := mk(map[byte]float64{'a': 0, 'b': -1, 'c': -3.5})
	l2 := mk(map[byte]float64{'x': 0, 'y': -2})
	e, err := NewSingleByteEnumerator([]*ByteLikelihoods{l1, l2})
	if err != nil {
		t.Fatal(err)
	}
	// Scores: ax=0, bx=-1, ay=-2, by=-3, cx=-3.5, cy=-5.5 (no ties).
	wantOrder := []string{"ax", "bx", "ay", "by", "cx", "cy"}
	prev := math.Inf(1)
	seen := map[string]bool{}
	for i := 0; i < len(wantOrder); i++ {
		c, ok := e.Next()
		if !ok {
			t.Fatalf("exhausted after %d", i)
		}
		if c.Score > prev+1e-12 {
			t.Fatalf("score increased at %d", i)
		}
		prev = c.Score
		s := string(c.Plaintext)
		if seen[s] {
			t.Fatalf("duplicate candidate %q", s)
		}
		seen[s] = true
		if s != wantOrder[i] {
			t.Fatalf("candidate %d = %q, want %q", i, s, wantOrder[i])
		}
	}
}

func TestSingleByteEnumeratorExhaustsSpace(t *testing.T) {
	// One position: exactly 256 candidates, all distinct.
	var l ByteLikelihoods
	for i := range l {
		l[i] = float64(-i)
	}
	e, err := NewSingleByteEnumerator([]*ByteLikelihoods{&l})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, ok := e.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 256 {
		t.Fatalf("enumerated %d candidates, want 256", count)
	}
}

func TestSingleByteCandidates(t *testing.T) {
	var l ByteLikelihoods
	for i := range l {
		l[i] = float64(-i)
	}
	cands, err := SingleByteCandidates([]*ByteLikelihoods{&l, &l}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if !bytes.Equal(cands[0].Plaintext, []byte{0, 0}) {
		t.Errorf("best candidate %v", cands[0].Plaintext)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not in decreasing order")
		}
	}
	if _, err := SingleByteCandidates(nil, 5); err == nil {
		t.Error("no positions accepted")
	}
	if _, err := SingleByteCandidates([]*ByteLikelihoods{&l}, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSearchSingleByte(t *testing.T) {
	var l ByteLikelihoods
	for i := range l {
		l[i] = float64(-i)
	}
	target := []byte{2, 1}
	c, depth, err := SearchSingleByte([]*ByteLikelihoods{&l, &l}, func(pt []byte) bool {
		return bytes.Equal(pt, target)
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Plaintext, target) {
		t.Errorf("found %v", c.Plaintext)
	}
	if depth < 2 {
		t.Errorf("depth %d too shallow", depth)
	}
	// maxDepth bound respected.
	if _, _, err := SearchSingleByte([]*ByteLikelihoods{&l, &l}, func(pt []byte) bool {
		return bytes.Equal(pt, []byte{255, 255})
	}, 3); err == nil {
		t.Error("depth bound ignored")
	}
}

func TestDoubleByteCandidatesViterbi(t *testing.T) {
	// Construct a 4-byte plaintext "A??Z" with pair likelihoods that
	// uniquely favor "AbcZ", and verify ordering.
	L := 4
	lks := make([]*PairLikelihoods, L-1)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = -10
		}
	}
	set := func(r int, a, b byte, v float64) { lks[r][int(a)*256+int(b)] = v }
	set(0, 'A', 'b', 0)
	set(0, 'A', 'x', -1)
	set(1, 'b', 'c', 0)
	set(1, 'x', 'c', -0.5)
	set(2, 'c', 'Z', 0)
	cands, err := DoubleByteCandidates(lks, 'A', 'Z', 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(cands[0].Plaintext) != "AbcZ" {
		t.Fatalf("best = %q", cands[0].Plaintext)
	}
	if string(cands[1].Plaintext) != "AxcZ" {
		t.Fatalf("second = %q", cands[1].Plaintext)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score+1e-12 {
			t.Fatal("not in decreasing order")
		}
	}
	// Scores must equal the chain sum.
	for _, c := range cands {
		if math.Abs(ScoreSequence(lks, c.Plaintext)-c.Score) > 1e-9 {
			t.Fatalf("score mismatch for %q", c.Plaintext)
		}
	}
}

func TestDoubleByteCandidatesExactTopN(t *testing.T) {
	// Brute-force cross-check on a small charset: the N-best list must
	// exactly match the sorted enumeration of all candidates.
	charset := []byte{'a', 'b', 'c', 'd'}
	rng := rand.New(rand.NewSource(8))
	L := 5
	lks := make([]*PairLikelihoods, L-1)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = rng.NormFloat64()
		}
	}
	const m1, mL = 'a', 'd'
	cands, err := DoubleByteCandidates(lks, m1, mL, 20, charset)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate all 4^3 = 64 interiors.
	type sc struct {
		pt    string
		score float64
	}
	var all []sc
	for _, b2 := range charset {
		for _, b3 := range charset {
			for _, b4 := range charset {
				pt := []byte{m1, b2, b3, b4, mL}
				all = append(all, sc{string(pt), ScoreSequence(lks, pt)})
			}
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].score > all[i].score {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if len(cands) != 20 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i, c := range cands {
		if math.Abs(c.Score-all[i].score) > 1e-9 {
			t.Fatalf("rank %d: score %v, brute-force %v (%q vs %q)",
				i, c.Score, all[i].score, c.Plaintext, all[i].pt)
		}
	}
}

func TestDoubleByteCandidatesCharsetRestriction(t *testing.T) {
	lks := make([]*PairLikelihoods, 2)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
	}
	charset := []byte("0123456789")
	cands, err := DoubleByteCandidates(lks, 'G', 'H', 50, charset)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 10 {
		t.Fatalf("got %d candidates, want 10 (charset size)", len(cands))
	}
	for _, c := range cands {
		if c.Plaintext[0] != 'G' || c.Plaintext[2] != 'H' {
			t.Fatal("anchors not preserved")
		}
		if !bytes.ContainsRune(charset, rune(c.Plaintext[1])) {
			t.Fatalf("interior byte %q outside charset", c.Plaintext[1])
		}
	}
}

func TestDoubleByteCandidatesErrors(t *testing.T) {
	lks := []*PairLikelihoods{new(PairLikelihoods)}
	if _, err := DoubleByteCandidates(lks, 0, 0, 0, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := DoubleByteCandidates(nil, 0, 0, 1, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := DoubleByteCandidates(lks, 0, 0, 1, nil); err == nil {
		t.Error("chain with no unknown byte accepted")
	}
	lks2 := []*PairLikelihoods{new(PairLikelihoods), new(PairLikelihoods)}
	if _, err := DoubleByteCandidates(lks2, 0, 0, 1, []byte{}); err == nil {
		t.Error("empty charset accepted")
	}
}

func TestScoreSequenceLengthMismatch(t *testing.T) {
	lks := []*PairLikelihoods{new(PairLikelihoods)}
	if s := ScoreSequence(lks, []byte{1, 2, 3}); !math.IsInf(s, -1) {
		t.Error("length mismatch should score -Inf")
	}
}

func BenchmarkSparseLikelihoods(b *testing.B) {
	hist := samplePairHistogram('a', 'b', 5, 1<<16, 3)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := FMPairLikelihoods(hist, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveLikelihoods(b *testing.B) {
	hist := samplePairHistogram('a', 'b', 5, 1<<16, 3)
	dist := biases.FMDistribution(5)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := PairLikelihoodsNaive(hist, dist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDoubleByteCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	lks := make([]*PairLikelihoods, 17)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = rng.NormFloat64()
		}
	}
	charset := []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := DoubleByteCandidates(lks, '=', ';', 256, charset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoubleByteCandidatesCookie9 decodes a 9-link chain (an
// 8-character cookie) over the 90-value cookie charset at the online
// runtime's 2^13 depth with one reused PairDecoder.
func BenchmarkDoubleByteCandidatesCookie9(b *testing.B) {
	lks := randomChain(rand.New(rand.NewSource(9)), 9)
	charset := httpmodel.CookieCharset()
	var dec PairDecoder
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := dec.Decode(lks, '=', ';', 1<<13, charset); err != nil {
			b.Fatal(err)
		}
	}
}
