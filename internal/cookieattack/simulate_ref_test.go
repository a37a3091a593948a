package cookieattack

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rc4break/internal/biases"
)

// This file keeps the dense model-mode sampler that the sparse
// biases.FMModel sampler replaced, verbatim apart from identifier names,
// as the reference SimulateStatistics is pinned against bitwise. The dense
// form builds the full FMDistribution table of every link on every call
// and takes a square root per cell.

// denseSimulateStatistics is SimulateStatistics over denseSimulateLink, run
// on the calling goroutine (the links are independent, so the order they
// run in never changed a bit).
func denseSimulateStatistics(a *Attack, rng *rand.Rand, truth []byte, nRecords uint64) {
	chainBytes := make([]byte, a.chain+1)
	chainBytes[0] = a.cfg.Plaintext[a.cfg.Offset-1]
	copy(chainBytes[1:], truth)
	chainBytes[a.chain] = a.cfg.Plaintext[a.cfg.Offset+a.cfg.CookieLen]

	seeds := make([]int64, a.chain)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	for r := 0; r < a.chain; r++ {
		denseSimulateLink(a, rand.New(rand.NewSource(seeds[r])), r, chainBytes[r], chainBytes[r+1], float64(nRecords))
	}
	a.Records += nRecords
}

func denseSimulateLink(a *Attack, rng *rand.Rand, r int, pt1, pt2 byte, n float64) {
	i := (a.cfg.CounterBase + r) % 256
	// FM histogram: cell (c1,c2) sees keystream digraph (c1⊕pt1, c2⊕pt2).
	dist := biases.FMDistribution(i)
	hist := a.fm[r]
	for c1 := 0; c1 < 256; c1++ {
		z1 := c1 ^ int(pt1)
		for c2 := 0; c2 < 256; c2++ {
			mean := n * dist[z1*256+(c2^int(pt2))]
			v := mean + math.Sqrt(mean)*rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			hist[c1*256+c2] += uint64(v + 0.5)
		}
	}
	// ABSAB: aggregate hit weight on the true cell, aggregate miss
	// noise across all cells.
	var hitW, missMean, missVar float64
	for _, an := range a.anchors[r] {
		beta := biases.ABSABCopyProb(an.gap)
		mean := n * beta
		hits := mean + math.Sqrt(mean*(1-beta))*rng.NormFloat64()
		if hits < 0 {
			hits = 0
		}
		hitW += hits * an.w
		misses := n - hits
		missMean += an.w * misses / 65536
		missVar += an.w * an.w * misses / 65536
	}
	tbl := a.absab[r]
	sd := math.Sqrt(missVar)
	for c := range tbl {
		v := missMean + sd*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		tbl[c] += v
	}
	tbl[int(pt1)*256+int(pt2)] += hitW
}

// TestSimulateStatisticsMatchesDense pins SimulateStatistics to the dense
// reference bitwise: fm and absab tables and the record count. CounterBase
// sweeps in steps of the chain length (17), so the links cover every
// counter 0..255. Each base runs an all-0xFF cookie, whose (255,255)
// interior pairs put the biased (255,255) cell at hist index 0 and the
// (0,0) cell at 65535, and a random cookie, at record counts from 1 to the
// paper's 9·2^27, under Workers 1 and 2. The first draw after New lands on
// zeroed tables; an odd run draws twice, so the second one adds to drawn
// counts.
func TestSimulateStatisticsMatchesDense(t *testing.T) {
	cfg := testConfig("0123456789abcdef")
	ns := []uint64{1, 1 << 16, 9 << 27}
	rng := rand.New(rand.NewSource(17))
	run := 0
	for base := 0; base < 256; base += cfg.CookieLen + 1 {
		for _, truth := range [][]byte{bytes.Repeat([]byte{0xff}, cfg.CookieLen), randomCookie(rng, cfg.CookieLen)} {
			cfg.CounterBase = base
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got.Workers = 1 + base/(cfg.CookieLen+1)%2
			seed := rng.Int63()
			grng, wrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			draws := []uint64{ns[run%3]}
			if run%2 == 1 {
				draws = append(draws, ns[(run+1)%3])
			}
			for _, n := range draws {
				if err := got.SimulateStatistics(grng, truth, n); err != nil {
					t.Fatal(err)
				}
				denseSimulateStatistics(want, wrng, truth, n)
			}
			if got.Records != want.Records {
				t.Fatalf("base %d: %d records, dense %d", base, got.Records, want.Records)
			}
			for r := range want.fm {
				for c := range want.fm[r] {
					if got.fm[r][c] != want.fm[r][c] {
						t.Fatalf("base %d workers %d draws %v link %d: fm[%#04x] %d, dense %d",
							base, got.Workers, draws, r, c, got.fm[r][c], want.fm[r][c])
					}
					if math.Float64bits(got.absab[r][c]) != math.Float64bits(want.absab[r][c]) {
						t.Fatalf("base %d workers %d draws %v link %d: absab[%#04x] %v, dense %v",
							base, got.Workers, draws, r, c, got.absab[r][c], want.absab[r][c])
					}
				}
			}
			run++
		}
	}
}

func randomCookie(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
