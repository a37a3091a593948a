package recovery

import (
	"container/heap"
	"math/rand"
	"testing"
)

// frontierHeap's heap.Interface, for the container/heap reference: the
// eager decoder in eager_ref_test.go and the sift check below run
// container/heap on it. The lazy decoder uses the typed init and down.
func (h frontierHeap) Len() int            { return len(h) }
func (h frontierHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h frontierHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x interface{}) { *h = append(*h, x.(frontier)) }
func (h *frontierHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestFrontierHeapMatchesContainerHeap runs the typed init and down and
// container/heap's Init and Fix(h, 0) side by side on tie-heavy frontiers
// (scores from a handful of values, every element told apart by pv and
// idx), through the decoder's two frontier steps — replace the top and
// sift, or drop it for the last element and sift — and fails on the first
// element out of place.
func TestFrontierHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(300)
		ref := make(frontierHeap, size)
		for k := range ref {
			ref[k] = frontier{score: float64(rng.Intn(3)), pv: byte(k), idx: uint32(k)}
		}
		typed := append(frontierHeap(nil), ref...)
		heap.Init(&ref)
		typed.init()
		for step := 0; len(ref) > 0; step++ {
			for k := range ref {
				if typed[k] != ref[k] {
					t.Fatalf("trial %d step %d: element %d is %+v, container/heap has %+v", trial, step, k, typed[k], ref[k])
				}
			}
			if rng.Intn(3) > 0 {
				top := frontier{score: ref[0].score - float64(rng.Intn(2)), pv: ref[0].pv, idx: ref[0].idx + 1}
				ref[0], typed[0] = top, top
				heap.Fix(&ref, 0)
				typed.down(0)
				continue
			}
			last := len(ref) - 1
			ref[0], typed[0] = ref[last], typed[last]
			ref, typed = ref[:last], typed[:last]
			if last > 1 {
				heap.Fix(&ref, 0)
				typed.down(0)
			}
		}
	}
}
