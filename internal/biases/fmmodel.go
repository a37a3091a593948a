package biases

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// FMModel is the Fluhrer–McGrew digraph distribution at one PRGA counter in
// sparse form: every unbiased cell shares one normalized probability, and
// the few biased cells (at most 8 per counter) carry their own. Its
// probabilities are bit-equal to FMDistribution's table, from which it is
// built.
type FMModel struct {
	uniform float64  // normalized probability of every unbiased cell
	cells   []FMCell // FMCells(i), with P normalized
}

// fmModels caches one FMModel per counter, each built on first use.
var fmModels [256]struct {
	once sync.Once
	m    FMModel
}

// FMModelAt returns the shared, read-only FMModel of PRGA counter i
// (taken mod 256).
func FMModelAt(i int) *FMModel {
	i &= 0xff
	s := &fmModels[i]
	s.once.Do(func() { s.m = newFMModel(i) })
	return &s.m
}

// newFMModel reads the sparse model off FMDistribution(i), so its uniform
// and biased probabilities share that table's index-order normalization.
func newFMModel(i int) FMModel {
	dist := FMDistribution(i)
	var m FMModel
	m.cells = FMCells(i)
	for k, c := range m.cells {
		idx := int(c.X)<<8 | int(c.Y)
		m.cells[k].P = dist[idx]
		dist[idx] = 0 // every probability is positive, so 0 marks a biased cell
	}
	for _, p := range dist {
		if p != 0 {
			m.uniform = p
			break
		}
	}
	return m
}

// SampleHistogram adds to hist (65536 cells, row-major c1*256+c2) the
// digraph counts of n records drawn by the normal approximation to their
// multinomial. Cell (c1,c2) sees keystream digraph (c1⊕pt1, c2⊕pt2), so its
// mean is n·p(c1⊕pt1, c2⊕pt2), and it adds mean + √mean·N(0,1), clamped at
// 0 and rounded. Cells draw in index order, one NormFloat64 each; unbiased
// cells share one mean and its square root, so the sampler is the dense
// per-cell loop over FMDistribution without the table or a per-cell sqrt.
func (m *FMModel) SampleHistogram(rng *rand.Rand, hist []uint64, pt1, pt2 byte, n float64) {
	h := (*[65536]uint64)(hist)
	// The biased cells' positions in hist, ascending.
	type span struct {
		at       int
		mean, sd float64
	}
	var buf [8]span
	spans := buf[:0]
	for _, c := range m.cells {
		mean := n * c.P
		spans = append(spans, span{at: int(c.X^pt1)<<8 | int(c.Y^pt2), mean: mean, sd: math.Sqrt(mean)})
	}
	slices.SortFunc(spans, func(a, b span) int { return a.at - b.at })
	um := n * m.uniform
	us := math.Sqrt(um)
	next := 0
	for _, s := range spans {
		sampleRun(rng, h[next:s.at], um, us)
		sampleRun(rng, h[s.at:s.at+1], s.mean, s.sd)
		next = s.at + 1
	}
	sampleRun(rng, h[next:], um, us)
}

// sampleRun adds one clamped, rounded draw of mean + sd·N(0,1) to each cell.
func sampleRun(rng *rand.Rand, cells []uint64, mean, sd float64) {
	for k := range cells {
		v := mean + sd*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		cells[k] += uint64(v + 0.5)
	}
}
