package biases

import "math/rand"

// Sampler draws values from an arbitrary discrete distribution using the
// Walker/Vose alias method: O(n) setup, O(1) per draw. The recovery and
// biases statistical tests draw their synthetic keystream histograms with
// it; model-mode capture uses the normal approximation instead.
type Sampler struct {
	prob  []float64
	alias []int32
}

// NewSampler builds a sampler over weights (need not be normalized; all
// weights must be non-negative with a positive sum).
func NewSampler(weights []float64) *Sampler {
	n := len(weights)
	if n == 0 {
		panic("biases: empty weight vector")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("biases: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("biases: zero total weight")
	}
	s := &Sampler{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		s.prob[g] = 1
	}
	for _, l := range small {
		s.prob[l] = 1 // numerical leftovers
	}
	return s
}

// Draw samples one value using rng.
func (s *Sampler) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return int(s.alias[i])
}
