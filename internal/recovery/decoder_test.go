package recovery

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomChain builds a random pair-likelihood chain of the given length.
func randomChain(rng *rand.Rand, links int) []*PairLikelihoods {
	lks := make([]*PairLikelihoods, links)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = rng.NormFloat64()
		}
	}
	return lks
}

// TestPairDecoderWorkerInvarianceAndReuse pins the PairDecoder contract the
// online runtime depends on: output is bitwise identical for any worker
// count, identical to the one-shot DoubleByteCandidates path, and identical
// across repeated Decode calls on one decoder (table reuse never changes
// merge order), including calls with different depths and charsets in
// between.
func TestPairDecoderWorkerInvarianceAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	charset := []byte("abcdefghij0123456789")
	lks := randomChain(rng, 6)
	m1, mL := charset[3], charset[7]
	const n = 200

	ref, err := DoubleByteCandidates(lks, m1, mL, n, charset)
	if err != nil {
		t.Fatal(err)
	}

	same := func(label string, got []Candidate) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("%s: %d candidates, want %d", label, len(got), len(ref))
		}
		for i := range got {
			if !bytes.Equal(got[i].Plaintext, ref[i].Plaintext) || got[i].Score != ref[i].Score {
				t.Fatalf("%s: candidate %d differs (%q %v vs %q %v)", label, i,
					got[i].Plaintext, got[i].Score, ref[i].Plaintext, ref[i].Score)
			}
		}
	}

	for _, workers := range []int{1, 2, 5, 16} {
		d := &PairDecoder{Workers: workers}
		got, err := d.Decode(lks, m1, mL, n, charset)
		if err != nil {
			t.Fatal(err)
		}
		same("fresh decoder", got)

		// Interleave decodes with other shapes, then repeat the original:
		// reused capacity must not leak between calls.
		if _, err := d.Decode(lks[:3], 'a', 'b', 17, []byte("abcxyz")); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decode(lks, m1, mL, 31, nil); err != nil {
			t.Fatal(err)
		}
		got, err = d.Decode(lks, m1, mL, n, charset)
		if err != nil {
			t.Fatal(err)
		}
		same("reused decoder", got)
	}
}

// TestSliceSource checks the CandidateSource adapter drains in order.
func TestSliceSource(t *testing.T) {
	cands := []Candidate{
		{Plaintext: []byte("a"), Score: 3},
		{Plaintext: []byte("b"), Score: 1},
	}
	src := SliceSource(cands)
	for i := 0; i < len(cands); i++ {
		c, ok := src.Next()
		if !ok || !bytes.Equal(c.Plaintext, cands[i].Plaintext) {
			t.Fatalf("candidate %d: got %q ok=%v", i, c.Plaintext, ok)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source did not report exhaustion")
	}
}

// TestSingleByteLikelihoodsFromLogMatches pins the four-lane kernel
// bitwise against a naive scalar reference (the historical
// SingleByteLikelihoods loop, reproduced here verbatim), including sparse
// count rows whose zero cells the reference skips entirely.
func TestSingleByteLikelihoodsFromLogMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		var counts [256]uint64
		dist := make([]float64, 256)
		var total float64
		for v := range dist {
			dist[v] = rng.Float64() + 0.01
			total += dist[v]
		}
		for v := range dist {
			dist[v] /= total
		}
		for v := range counts {
			if trial%2 == 0 || rng.Intn(4) == 0 { // odd trials: sparse rows
				counts[v] = uint64(rng.Intn(1000))
			}
		}
		logp, err := LogDistribution(dist)
		if err != nil {
			t.Fatal(err)
		}
		var want ByteLikelihoods
		for mu := 0; mu < 256; mu++ {
			var sum float64
			for c := 0; c < 256; c++ {
				if n := counts[c]; n != 0 {
					sum += float64(n) * logp[c^mu]
				}
			}
			want[mu] = sum
		}
		got := new(ByteLikelihoods)
		SingleByteLikelihoodsFromLog(got, counts[:], logp)
		if *got != want {
			t.Fatalf("trial %d: four-lane kernel differs from scalar reference", trial)
		}
		viaAPI, err := SingleByteLikelihoods(&counts, dist)
		if err != nil {
			t.Fatal(err)
		}
		if *viaAPI != want {
			t.Fatalf("trial %d: SingleByteLikelihoods differs from scalar reference", trial)
		}
	}
}

// TestPairLikelihoodsSparseIntoOverwrites confirms Into overwrites stale
// table contents rather than accumulating into them.
func TestPairLikelihoodsSparseIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hist := make([]uint64, 65536)
	for i := range hist {
		hist[i] = uint64(rng.Intn(50))
	}
	cells := []BiasedCell{{K1: 3, K2: 7, P: 2.0 / 65536}}
	want := new(PairLikelihoods)
	if err := PairLikelihoodsSparseInto(want, hist, cells, 1.0/65536); err != nil {
		t.Fatal(err)
	}
	got := new(PairLikelihoods)
	for i := range got {
		got[i] = 1e9 // stale garbage that must be overwritten
	}
	if err := PairLikelihoodsSparseInto(got, hist, cells, 1.0/65536); err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatal("Into accumulated into a stale table")
	}
}
