package recovery

import (
	"container/heap"
	"errors"
	"math"
	"sort"
)

// Candidate is one plaintext guess with its log-likelihood score.
type Candidate struct {
	Plaintext []byte
	Score     float64
}

// SingleByteEnumerator lazily yields plaintext candidates in decreasing
// likelihood from per-position single-byte log-likelihoods — the role of
// the paper's Algorithm 1. Where Algorithm 1 materializes the N best
// candidates length by length, this enumerator performs a best-first walk
// of the rank lattice, which yields exactly the same order but lets callers
// walk arbitrarily deep lists without choosing N up front. That is what the
// TKIP attack needs: it traverses candidates until one passes the ICV check
// (§5.3, Figures 8 and 9), and the stopping depth is not known in advance.
type SingleByteEnumerator struct {
	// sortedVals[r][rank] is the plaintext byte with the rank-th highest
	// likelihood at position r; sortedScores[r][rank] its log-likelihood.
	sortedVals   [][]byte
	sortedScores [][]float64
	queue        candidateHeap
	seenGuard    map[string]struct{}
}

type heapNode struct {
	score float64
	ranks []uint8 // rank per position into sortedVals
}

type candidateHeap []heapNode

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].score > h[j].score } // max-heap
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(heapNode)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewSingleByteEnumerator builds an enumerator over len(likelihoods)
// plaintext byte positions.
func NewSingleByteEnumerator(likelihoods []*ByteLikelihoods) (*SingleByteEnumerator, error) {
	if len(likelihoods) == 0 {
		return nil, errors.New("recovery: no positions")
	}
	e := &SingleByteEnumerator{
		sortedVals:   make([][]byte, len(likelihoods)),
		sortedScores: make([][]float64, len(likelihoods)),
		seenGuard:    make(map[string]struct{}),
	}
	var first float64
	for r, l := range likelihoods {
		vals := make([]byte, 256)
		for v := range vals {
			vals[v] = byte(v)
		}
		sort.SliceStable(vals, func(a, b int) bool { return l[vals[a]] > l[vals[b]] })
		scores := make([]float64, 256)
		for rank, v := range vals {
			scores[rank] = l[v]
		}
		e.sortedVals[r] = vals
		e.sortedScores[r] = scores
		first += scores[0]
	}
	root := heapNode{score: first, ranks: make([]uint8, len(likelihoods))}
	heap.Push(&e.queue, root)
	e.seenGuard[string(root.ranks)] = struct{}{}
	return e, nil
}

// Next returns the next most likely candidate, or ok == false when the
// space (256^L candidates) is exhausted.
func (e *SingleByteEnumerator) Next() (Candidate, bool) {
	if e.queue.Len() == 0 {
		return Candidate{}, false
	}
	node := heap.Pop(&e.queue).(heapNode)
	// Children: bump the rank at each position. To avoid enumerating the
	// same rank vector twice we only bump positions at or after the last
	// non-zero rank (the standard lattice-enumeration de-duplication),
	// backed by a seen-set for safety at small depths.
	last := 0
	for r := len(node.ranks) - 1; r >= 0; r-- {
		if node.ranks[r] != 0 {
			last = r
			break
		}
	}
	for r := last; r < len(node.ranks); r++ {
		if int(node.ranks[r]) >= 255 {
			continue
		}
		child := heapNode{
			score: node.score - e.sortedScores[r][node.ranks[r]] + e.sortedScores[r][node.ranks[r]+1],
			ranks: append([]uint8(nil), node.ranks...),
		}
		child.ranks[r]++
		key := string(child.ranks)
		if _, dup := e.seenGuard[key]; dup {
			continue
		}
		e.seenGuard[key] = struct{}{}
		heap.Push(&e.queue, child)
	}
	pt := make([]byte, len(node.ranks))
	for r, rank := range node.ranks {
		pt[r] = e.sortedVals[r][rank]
	}
	return Candidate{Plaintext: pt, Score: node.score}, true
}

// SingleByteCandidates materializes the N most likely plaintexts — the
// paper's Algorithm 1 interface.
func SingleByteCandidates(likelihoods []*ByteLikelihoods, n int) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("recovery: need n > 0")
	}
	e, err := NewSingleByteEnumerator(likelihoods)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, 0, n)
	for len(out) < n {
		c, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out, nil
}

// SearchSingleByte walks the candidate list until accept returns true,
// returning that candidate and its 1-based position in the list. This is
// the §5.3 ICV-pruning loop. maxDepth bounds the walk (0 means unbounded).
func SearchSingleByte(likelihoods []*ByteLikelihoods, accept func([]byte) bool, maxDepth int) (Candidate, int, error) {
	e, err := NewSingleByteEnumerator(likelihoods)
	if err != nil {
		return Candidate{}, 0, err
	}
	for depth := 1; maxDepth == 0 || depth <= maxDepth; depth++ {
		c, ok := e.Next()
		if !ok {
			break
		}
		if accept(c.Plaintext) {
			return c, depth, nil
		}
	}
	return Candidate{}, 0, errors.New("recovery: no candidate accepted")
}

// CandidateSource yields plaintext candidates in decreasing likelihood —
// the decode-side currency of the online attack runtime. The lazy
// SingleByteEnumerator implements it directly (the TKIP search walks it
// until the ICV oracle accepts, without materializing the tail);
// materialized list-Viterbi output is adapted with SliceSource.
type CandidateSource interface {
	Next() (Candidate, bool)
}

type sliceSource struct{ cands []Candidate }

func (s *sliceSource) Next() (Candidate, bool) {
	if len(s.cands) == 0 {
		return Candidate{}, false
	}
	c := s.cands[0]
	s.cands = s.cands[1:]
	return c, true
}

// SliceSource adapts a materialized candidate list to CandidateSource.
func SliceSource(cands []Candidate) CandidateSource { return &sliceSource{cands: cands} }

// identityCharset is the full 256-value interior used when no charset
// restriction applies.
var identityCharset = func() (cs [256]byte) {
	for i := range cs {
		cs[i] = byte(i)
	}
	return
}()

// pairNode is one (chain position, plaintext value) node of the lazy
// list-Viterbi: the prefix of its N-best list built so far and the merge
// frontier that extends it. Each frontier element is the best unconsumed
// entry of one predecessor list.
type pairNode struct {
	list []entry2
	fh   frontierHeap
	// popped marks fh[0] as already emitted into list: it advances to its
	// predecessor's next entry only when the next entry here is asked for.
	popped bool
}

// pairLevel holds the nodes of one chain position, indexed by the
// position's plaintext byte value. A decode touches only the charset's
// values, and mL's node at the final position.
type pairLevel [256]pairNode

// PairDecoder runs Algorithm 2 decodes repeatedly, reusing its node
// allocations between calls. The decode is lazy, in the manner of
// Jiménez–Marzal's recursive enumeration of K shortest paths: the final
// node (L, mL) is asked for n entries, and a node asks predecessor
// (r−1, pv) for its next entry only when its own frontier for pv advances.
// Every node runs the same heap operations, in the same order, as the
// eager merge that built each full n-best list, so each node's list is a
// prefix of the eager one and the output — plaintexts, float scores and
// order, ties included — is bitwise identical to it.
//
// Cost: seeding every node's frontier over the charset is O(L·|cs|²);
// each of the n final entries then pulls at most one new entry per
// position, O(L·n·log|cs|) heap work. Retained memory is
// O(L·n + L·|cs|²): per position at most n entries plus |cs| frontiers of
// |cs| elements. Results are identical to a fresh decoder's: reused
// capacity never changes heap order.
type PairDecoder struct {
	// Workers is kept for callers that set it and is ignored: the decode
	// runs on the calling goroutine (its per-position work is a chain of
	// single heap steps, too fine to fan out), and its output never
	// depended on the worker count.
	Workers int
	// levels[r-2] holds the nodes of chain position r (paper indexing:
	// 2..L); grown lazily to the longest chain decoded.
	levels []*pairLevel
}

// Decode implements the paper's Algorithm 2: a list-Viterbi (N-best) decode
// over double-byte likelihoods modeled as a first-order time-inhomogeneous
// HMM (§4.4). likelihoods[r] scores the plaintext pair at positions
// (r+1, r+2) in 1-indexed paper notation; the plaintext has
// len(likelihoods)+1 bytes of which the first and last are known (m1, mL).
// charset, when non-nil, restricts the interior bytes to the allowed set —
// the §6.2 RFC 6265 cookie-alphabet optimization.
func (d *PairDecoder) Decode(likelihoods []*PairLikelihoods, m1, mL byte, n int, charset []byte) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("recovery: need n > 0")
	}
	L := len(likelihoods) + 1 // plaintext length including m1 and mL
	if L < 3 {
		return nil, errors.New("recovery: need at least one unknown byte between m1 and mL")
	}
	interior := charset
	if interior == nil {
		interior = identityCharset[:]
	}
	if len(interior) == 0 {
		return nil, errors.New("recovery: empty charset")
	}
	// Deduplicate the charset (first occurrence wins): a repeated value
	// would seed two frontiers from one predecessor list and emit every
	// prefix through it twice.
	var seen [256]bool
	dedup := interior[:0:0]
	for _, v := range interior {
		if !seen[v] {
			seen[v] = true
			dedup = append(dedup, v)
		}
	}
	interior = dedup
	for len(d.levels) < L-1 {
		d.levels = append(d.levels, new(pairLevel))
	}

	// Position 2 (paper indexing): the single prefix m1‖µ2 per value, with
	// an empty frontier, so it is exhausted after one entry.
	for _, v := range interior {
		nd := &d.levels[0][v]
		nd.list = append(nd.list[:0], entry2{score: likelihoods[0].At(m1, v)})
	}
	// Seed every later node's frontier with each predecessor's best entry,
	// in charset order, position by position (so those entries exist).
	final := [1]byte{mL}
	for r := 3; r <= L; r++ {
		targets := interior
		if r == L {
			targets = final[:]
		}
		lk := likelihoods[r-2]
		for _, v := range targets {
			nd := &d.levels[r-2][v]
			if cap(nd.fh) < len(interior) {
				nd.fh = make(frontierHeap, 0, len(interior))
			}
			fh := nd.fh[:0]
			for _, pv := range interior {
				if e, ok := d.at(likelihoods, r-1, pv, 0); ok {
					fh = append(fh, frontier{score: e.score + lk.At(pv, v), pv: pv, idx: 0})
				}
			}
			fh.init()
			nd.list, nd.fh, nd.popped = nd.list[:0], fh, false
		}
	}

	for k := 0; k < n; k++ {
		if _, ok := d.at(likelihoods, L, mL, k); !ok {
			break
		}
	}
	list := d.levels[L-2][mL].list
	out := make([]Candidate, len(list))
	for i, e := range list {
		pt := make([]byte, L)
		pt[L-1] = mL
		v, idx := e.prevV, e.prevI
		for r := L - 1; r >= 2; r-- {
			pt[r-1] = v
			ent := d.levels[r-2][v].list[idx]
			v, idx = ent.prevV, ent.prevI
		}
		pt[0] = m1
		out[i] = Candidate{Plaintext: pt, Score: e.score}
	}
	return out, nil
}

// DoubleByteCandidates is the one-shot form of PairDecoder.Decode, kept for
// callers that decode once per evidence pool. Repeated decoders (the online
// runtime) hold a PairDecoder instead, which reuses the node allocations.
func DoubleByteCandidates(likelihoods []*PairLikelihoods, m1, mL byte, n int, charset []byte) ([]Candidate, error) {
	return new(PairDecoder).Decode(likelihoods, m1, mL, n, charset)
}

// at returns entry k of node (r, v), extending its list on demand by one
// step of the eager merge — advance the frontier emitted last (asking its
// predecessor for the following entry), then emit the heap top; ok is
// false once the list is exhausted. Successors ask for a node's entries in
// order, so k ≤ len(list). No list grows past n entries, the eager merge's
// cap: the final node is asked for n, and a node asks a predecessor for
// entry idx+1 only when it is itself asked for an entry after having
// emitted entries 0..idx of that predecessor.
func (d *PairDecoder) at(lks []*PairLikelihoods, r int, v byte, k int) (entry2, bool) {
	nd := &d.levels[r-2][v]
	if k < len(nd.list) {
		return nd.list[k], true
	}
	fh := nd.fh
	if nd.popped {
		top := fh[0]
		if next, ok := d.at(lks, r-1, top.pv, int(top.idx)+1); ok {
			fh[0] = frontier{
				score: next.score + lks[r-2].At(top.pv, v),
				pv:    top.pv,
				idx:   top.idx + 1,
			}
			fh.down(0)
		} else {
			// Inline heap.Pop without the interface boxing (the popped
			// frontier is discarded): same comparisons, same heap order.
			last := len(fh) - 1
			fh[0] = fh[last]
			fh = fh[:last]
			if last > 1 {
				fh.down(0)
			}
		}
	}
	nd.fh, nd.popped = fh, len(fh) > 0
	if len(fh) == 0 {
		return entry2{}, false
	}
	e := entry2{score: fh[0].score, prevV: fh[0].pv, prevI: fh[0].idx}
	nd.list = append(nd.list, e)
	return e, true
}

// entry2 is one N-best list element: a prefix score plus the backpointer to
// the (value, rank) it extends.
type entry2 struct {
	score float64
	prevV byte
	prevI uint32
}

// frontier is the best unconsumed element of one predecessor list.
type frontier struct {
	score float64
	pv    byte
	idx   uint32
}

// frontierHeap is a max-heap on score. Its init and down are
// container/heap's Init and down on the concrete type, without interface
// calls: the same sift, so the same order, ties included. heap.Fix(h, 0)
// is down(0) alone, because up(0) never moves.
type frontierHeap []frontier

func (h frontierHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h frontierHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].score > h[j].score {
			j = j2 // right child
		}
		if !(h[j].score > h[i].score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ScoreSequence computes the total log-likelihood of a full plaintext under
// the double-byte likelihood chain — a convenience for tests and for
// checking where the true plaintext ranks.
func ScoreSequence(likelihoods []*PairLikelihoods, pt []byte) float64 {
	if len(pt) != len(likelihoods)+1 {
		return math.Inf(-1)
	}
	var sum float64
	for r := 0; r < len(likelihoods); r++ {
		sum += likelihoods[r].At(pt[r], pt[r+1])
	}
	return sum
}
