package recovery

import (
	"container/heap"
	"errors"

	"rc4break/internal/dataset"
)

// This file keeps the eager list-Viterbi decoder that PairDecoder replaced,
// verbatim apart from identifier names, as the reference the lazy decoder
// is pinned against bitwise. The eager form builds the full N-best list of
// every (position, value) node and fans each position's merges over a
// worker pool.

// eagerLevel holds the N-best prefix lists of one chain position, indexed
// by the position's plaintext byte value; values outside the active charset
// keep empty lists.
type eagerLevel [256][]entry2

func (lv *eagerLevel) reset() {
	for v := range lv {
		lv[v] = lv[v][:0]
	}
}

// eagerDecoder is the eager Algorithm 2 decoder.
type eagerDecoder struct {
	// Workers bounds the per-level merge parallelism; 0 means GOMAXPROCS.
	Workers int
	levels  []*eagerLevel
	fhs     [256]frontierHeap
}

func (d *eagerDecoder) Decode(likelihoods []*PairLikelihoods, m1, mL byte, n int, charset []byte) ([]Candidate, error) {
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
		d.levels = append(d.levels, new(eagerLevel))
	}

	first := d.levels[0]
	first.reset()
	for _, v := range interior {
		first[v] = append(first[v], entry2{score: likelihoods[0].At(m1, v)})
	}

	for r := 3; r <= L; r++ {
		prev, cur := d.levels[r-3], d.levels[r-2]
		cur.reset()
		targets := interior
		if r == L {
			targets = []byte{mL}
		}
		lk := likelihoods[r-2]
		err := dataset.ForShards(d.Workers, len(targets), func(ti int) error {
			v := targets[ti]
			cur[v] = eagerMergeNBest(cur[v], &d.fhs[v], prev, interior, lk, v, n)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	final := d.levels[L-2][mL]
	out := make([]Candidate, len(final))
	for i, e := range final {
		pt := make([]byte, L)
		pt[L-1] = mL
		v, idx := e.prevV, e.prevI
		for r := L - 1; r >= 2; r-- {
			pt[r-1] = v
			ent := d.levels[r-2][v][idx]
			v, idx = ent.prevV, ent.prevI
		}
		pt[0] = m1
		out[i] = Candidate{Plaintext: pt, Score: e.score}
	}
	return out, nil
}

func eagerMergeNBest(dst []entry2, fhp *frontierHeap, prev *eagerLevel, interior []byte, lk *PairLikelihoods, v byte, n int) []entry2 {
	fh := (*fhp)[:0]
	for _, pv := range interior {
		pl := prev[pv]
		if len(pl) == 0 {
			continue
		}
		fh = append(fh, frontier{score: pl[0].score + lk.At(pv, v), pv: pv, idx: 0})
	}
	heap.Init(&fh)
	for len(dst) < n && fh.Len() > 0 {
		top := fh[0]
		dst = append(dst, entry2{score: top.score, prevV: top.pv, prevI: top.idx})
		pl := prev[top.pv]
		if int(top.idx)+1 < len(pl) {
			fh[0] = frontier{
				score: pl[top.idx+1].score + lk.At(top.pv, v),
				pv:    top.pv,
				idx:   top.idx + 1,
			}
			heap.Fix(&fh, 0)
		} else {
			last := len(fh) - 1
			fh[0] = fh[last]
			fh = fh[:last]
			if last > 1 {
				heap.Fix(&fh, 0)
			}
		}
	}
	*fhp = fh
	return dst
}
