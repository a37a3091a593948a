// Package online implements the closed-loop attack runtime the paper's
// attacks actually run as: §6.2 brute-forces the candidate list against the
// real server *while* capture continues, and §7.4 verifies recovered TKIP
// trailers via the Michael MIC. Instead of capturing a fixed ciphertext
// budget and decoding exactly once, the runtime interleaves capture with
// decode attempts on a configurable cadence (geometric by default, so the
// total decode cost stays a constant factor of the capture cost), walks
// each round's ranked candidates against an oracle, and stops at the first
// confirmed hit — reporting rank, observations, and wall-clock at success.
// That turns one-shot success rates into measured records-to-first-success
// distributions.
//
// The runtime is attack-agnostic: cookieattack.Attack and tkip.Attack both
// implement Decoder (and Evidence, its checkpointable form), and
// netsim.CookieServer / tkip.TrailerOracle implement Oracle. Evidence
// arrives through a pluggable Feed: in-process capturers wrap a
// job.Runtime's CaptureTo in FeedFunc (the runtime walks the job's capture
// granules, so the CLIs, the service and the experiments share one
// schedule), and the fleet coordinator implements Feed directly, blocking
// until enough worker lanes have merged. Decode points are absolute
// observation counts, so a resumed run lands on exactly the cadence an
// uninterrupted run would use, and a feed that overshoots a point
// (whole-lane granularity) simply decodes at the overshot count. The
// schedule has no defaults here: job.Spec.Normalize owns them, and Run
// refuses a zero first decode or candidate bound.
package online

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// Decoder turns accumulated ciphertext evidence into ranked candidates —
// incremental evidence in, ranked candidates out.
type Decoder interface {
	// Observed reports the records/frames folded into the evidence so far.
	Observed() uint64
	// Decode ranks candidates from the current evidence, best first. max
	// bounds materialized decoders (the cookie list-Viterbi); lazy sources
	// (the TKIP enumerator) may ignore it — the runtime bounds its walk
	// either way.
	Decode(max int) (recovery.CandidateSource, error)
}

// Evidence is a Decoder whose state outlives one process: it is written
// as a snapshot envelope, carries the identity of the capture stream it
// was folded from, and opens other snapshots for merging. Both attacks
// implement it. Resume, the CLIs' -merge and fleet lane uploads all open
// snapshots through OpenShard, so each attack states once which evidence
// it may fold in.
type Evidence interface {
	Decoder
	// WriteSnapshot writes the evidence as one snapshot envelope, and
	// WriteSnapshotFile writes the same bytes durably to path.
	WriteSnapshot(w io.Writer) error
	WriteSnapshotFile(path string) error
	// CaptureStream is the identity of the capture stream the evidence
	// was folded from; a pool of many streams leaves it zero.
	CaptureStream() *snapshot.StreamInfo
	// OpenShard opens snapshot bytes and checks that they were taken
	// under the receiver's configuration. It reads only that
	// configuration, never the evidence, so it may run while the evidence
	// changes. The shard may keep snap until it merges, so the caller
	// must not modify snap before then.
	OpenShard(snap []byte) (Shard, error)
}

// Shard is a snapshot opened by Evidence.OpenShard, not yet folded in.
type Shard struct {
	// Stream and Observed are the shard's capture-stream identity and
	// observation count.
	Stream   snapshot.StreamInfo
	Observed uint64
	// Merge folds the shard into the Evidence that opened it.
	Merge func() error
}

// Oracle confirms one candidate against ground truth: presenting the
// cookie to the target server (§6.2), or the Michael-MIC/ICV trailer
// verification (§7.4). Check must be deterministic per candidate.
type Oracle interface {
	Check(candidate []byte) bool
}

// Feed supplies evidence between decode rounds — the pluggable replacement
// for an in-process capturer. AdvanceTo blocks until the decoder's evidence
// covers at least target observations. A feed may overshoot the target (a
// fleet coordinator merges whole worker lanes, so evidence advances in lane
// granules); Run then decodes at the actual observed count, and the cadence
// — whose points are absolute — simply skips past any overshot points.
type Feed interface {
	AdvanceTo(target uint64) error
}

// FeedFunc adapts a capture function that lands exactly on its target to
// the Feed interface — the shape in-process capturers use.
type FeedFunc func(target uint64) error

// AdvanceTo implements Feed.
func (f FeedFunc) AdvanceTo(target uint64) error { return f(target) }

// Cadence enumerates the observation counts at which decode rounds run.
type Cadence struct {
	// First is the observation count of the first decode attempt; Run
	// refuses 0.
	First uint64
	// Every, when nonzero, spaces decode points arithmetically (First,
	// First+Every, ...). Zero selects the geometric cadence First,
	// 2·First, 4·First, ... — with decode cost roughly linear in evidence
	// volume, geometric spacing keeps total decode work a constant factor
	// of one final decode.
	Every uint64
}

// String describes the cadence for status lines.
func (c Cadence) String() string {
	if c.Every != 0 {
		return fmt.Sprintf("every-%d", c.Every)
	}
	return "geometric"
}

// Next returns the first decode point strictly greater than observed.
// Points are absolute, not relative to the current run's start: a resumed
// run therefore decodes at the same observation counts as an uninterrupted
// one.
func (c Cadence) Next(observed uint64) uint64 {
	first := c.First
	if observed < first {
		return first
	}
	if c.Every != 0 {
		k := (observed - first) / c.Every
		return first + (k+1)*c.Every
	}
	p := first
	for p <= observed {
		if p > math.MaxUint64/2 {
			return math.MaxUint64
		}
		p *= 2
	}
	return p
}

// rejectCacheMax bounds the cross-round reject cache; beyond it, further
// rejected candidates are simply re-checked in later rounds.
const rejectCacheMax = 1 << 22

// Config wires one online run.
type Config struct {
	Decoder Decoder
	Oracle  Oracle
	Cadence Cadence
	// MaxCandidates bounds each round's candidate walk; Run refuses a
	// bound below 1.
	MaxCandidates int
	// Budget is the maximum total observations. The final decode runs at
	// Budget (or wherever the feed's last granule lands at or past it); if
	// it too fails the run returns ErrBudgetExhausted.
	Budget uint64
	// Feed advances the evidence to at least the target observation count.
	Feed Feed
	// Checkpoint, when non-nil, runs after every unsuccessful decode round
	// — with snapshot-backed decoders this makes the run resumable
	// mid-cadence.
	Checkpoint func() error
	// Logf, when non-nil, receives one progress line per round.
	Logf func(format string, args ...interface{})
	// Tracer, when non-nil, records one online.run span plus per-round
	// capture/decode/walk spans into the journal. The same spans time the
	// run with or without a Tracer: Result's phase times and Elapsed are
	// their End durations. A nil Tracer records nothing; tracing never
	// feeds evidence or candidate ranks, so outputs are bitwise identical
	// either way.
	Tracer *obs.Journal
	// TraceParent parents the online.run span — the coordinator's or job
	// server's span context, so a distributed run renders as one trace.
	TraceParent obs.SpanContext
}

// Result reports the outcome of an online run. On success Plaintext is the
// confirmed candidate; on ErrBudgetExhausted the counters still describe
// the work done.
type Result struct {
	Plaintext []byte
	// Rank is the confirmed candidate's 1-based position in the winning
	// round's list (skipped duplicates still occupy their positions).
	Rank int
	// Observed is the observation count at the winning decode point — the
	// records-to-first-success metric.
	Observed uint64
	// Rounds counts decode rounds run, including the winning one.
	Rounds int
	// Checks counts oracle queries; Skipped counts queries saved by the
	// cross-round reject cache (a candidate rejected once is not
	// re-presented to the oracle).
	Checks, Skipped uint64
	// CaptureTime, DecodeTime and OracleTime split Elapsed by phase: the
	// summed durations of the online.capture, online.decode and
	// online.walk spans. Elapsed is the online.run span's duration, set
	// on success and on budget exhaustion.
	CaptureTime, DecodeTime, OracleTime time.Duration
	Elapsed                             time.Duration
}

// ErrBudgetExhausted reports an online run that hit its observation budget
// without an oracle-confirmed candidate.
var ErrBudgetExhausted = errors.New("online: observation budget exhausted without an oracle-confirmed hit")

// ErrNoFirstDecode and ErrNoCandidates refuse a Config whose Cadence.First
// is 0 or whose MaxCandidates is below 1: such a run would never decode, or
// decode without walking a candidate.
var (
	ErrNoFirstDecode = errors.New("online: cadence has no first decode point")
	ErrNoCandidates  = errors.New("online: candidate bound below 1")
)

// Run drives the closed loop: capture to the next cadence point, decode,
// walk the list against the oracle, stop at the first confirmed hit.
func Run(cfg Config) (Result, error) {
	if cfg.Decoder == nil || cfg.Oracle == nil || cfg.Feed == nil {
		return Result{}, errors.New("online: Decoder, Oracle and an evidence Feed are required")
	}
	switch {
	case cfg.Budget == 0:
		return Result{}, errors.New("online: zero observation budget")
	case cfg.Cadence.First == 0:
		return Result{}, ErrNoFirstDecode
	case cfg.MaxCandidates <= 0:
		return Result{}, ErrNoCandidates
	}
	var res Result
	runSpan := cfg.Tracer.Start(cfg.TraceParent, "online.run",
		obs.U64("budget", cfg.Budget), obs.Str("cadence", cfg.Cadence.String()))
	defer runSpan.End()
	runCtx := runSpan.Context()
	rejected := make(map[string]struct{})
	for {
		target := cfg.Cadence.Next(cfg.Decoder.Observed())
		if target > cfg.Budget {
			target = cfg.Budget
		}
		if target > cfg.Decoder.Observed() {
			capSpan := cfg.Tracer.Start(runCtx, "online.capture", obs.U64("target", target))
			if err := cfg.Feed.AdvanceTo(target); err != nil {
				capSpan.End()
				res.Observed = cfg.Decoder.Observed()
				return res, err
			}
			capSpan.SetAttrs(obs.U64("observed", cfg.Decoder.Observed()))
			res.CaptureTime += capSpan.End()
			if got := cfg.Decoder.Observed(); got < target {
				res.Observed = got
				return res, fmt.Errorf("online: capture stopped at %d of %d observations", got, target)
			}
		}
		// The feed may have overshot the cadence point (whole-lane granules);
		// the decode sees whatever was actually observed, and the run ends
		// once the budget is covered.
		res.Observed = cfg.Decoder.Observed()
		last := res.Observed >= cfg.Budget

		res.Rounds++
		decSpan := cfg.Tracer.Start(runCtx, "online.decode",
			obs.Int("round", int64(res.Rounds)), obs.U64("observed", res.Observed))
		src, err := cfg.Decoder.Decode(cfg.MaxCandidates)
		if err != nil {
			decSpan.End()
			return res, err
		}
		res.DecodeTime += decSpan.End()

		walkSpan := cfg.Tracer.Start(runCtx, "online.walk", obs.Int("round", int64(res.Rounds)))
		hit, rank, walked := res.walk(src, cfg.Oracle, cfg.MaxCandidates, rejected, !last)
		walkSpan.SetAttrs(obs.Int("walked", int64(walked)), obs.U64("checks", res.Checks))
		res.OracleTime += walkSpan.End()
		if hit != nil {
			res.Plaintext = hit
			res.Rank = rank
			runSpan.SetAttrs(obs.Int("rank", int64(rank)), obs.U64("observed", res.Observed))
			res.Elapsed = runSpan.End()
			return res, nil
		}
		if cfg.Logf != nil {
			cfg.Logf("round %d at %d observations: %d candidates, no oracle hit", res.Rounds, res.Observed, walked)
		}
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(); err != nil {
				return res, err
			}
		}
		if last {
			res.Elapsed = runSpan.End()
			return res, ErrBudgetExhausted
		}
	}
}

// walk presents up to max candidates to the oracle, skipping candidates a
// previous round already rejected. remember adds this round's rejects to
// the cache; the final round skips that, since no later round reads them.
func (res *Result) walk(src recovery.CandidateSource, oracle Oracle, max int, rejected map[string]struct{}, remember bool) (hit []byte, rank, walked int) {
	for rank = 1; rank <= max; rank++ {
		c, ok := src.Next()
		if !ok {
			break
		}
		if _, seen := rejected[string(c.Plaintext)]; seen {
			res.Skipped++
			continue
		}
		res.Checks++
		if oracle.Check(c.Plaintext) {
			return c.Plaintext, rank, rank
		}
		if remember && len(rejected) < rejectCacheMax {
			rejected[string(c.Plaintext)] = struct{}{}
		}
	}
	return nil, 0, rank - 1
}
