package dataset

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rc4break/internal/obs"
	"rc4break/internal/rc4"
)

// This file is the unified parallel keystream-generation engine. Every
// fan-out loop in the repository — the short-term Observer datasets, the
// long-term digraph collectors, the ABSAB/eq.9 window scans, and TKIP per-TSC
// model training — runs through it: keys are cut into shards of consecutive
// key indices, each shard runs KSA + skip + generate per key into its own
// sink, and the sinks merge at the end. A shard draws exactly the keys its
// index range names, so a run's result depends on its shards' key ranges,
// never on how many goroutines work them. The Engine adds what hand-rolled
// loops lack: context cancellation and progress reporting for paper-scale
// runs.
//
// The delivery model is block-windowed: each key's keystream is delivered as
// Blocks windows of Overlap+BlockLen bytes, where the first Overlap bytes of
// a window repeat the tail of the previous one. Digraph counters set
// Overlap=1 so pairs spanning block boundaries are seen; the ABSAB scan sets
// Overlap=maxGap+4 so the second digraph of the largest gap fits; short-term
// observers set Overlap=0, Blocks=1 and receive each keystream prefix whole.

// Stream describes what to generate for every key of a run.
type Stream struct {
	// Master is the AES-128 master key all 16-byte RC4 keys derive from
	// (see KeySource). The zero value is valid and gives reproducible runs.
	Master [16]byte
	// KeyDeriver, when non-nil, post-processes each derived key before use;
	// lane is the shard's lane. TKIP training stamps its per-packet key
	// structure (K0..K2 from the TSC, §2.2) in here.
	KeyDeriver func(lane uint64, key []byte)
	// Skip discards this many initial keystream bytes per key.
	Skip int
	// Overlap is how many bytes of each window repeat the previous window's
	// tail (the cross-block carry digraph counters need). The first window's
	// overlap bytes are the first post-skip keystream bytes.
	Overlap int
	// BlockLen is how many fresh keystream bytes each window adds.
	BlockLen int
	// Blocks is the number of windows delivered per key; 0 means 1.
	Blocks int
}

func (st Stream) withDefaults() Stream {
	if st.Blocks == 0 {
		st.Blocks = 1
	}
	return st
}

func (st Stream) validate() error {
	if st.Skip < 0 || st.Overlap < 0 || st.BlockLen < 0 || st.Blocks < 1 {
		return fmt.Errorf("dataset: invalid stream (skip=%d overlap=%d blocklen=%d blocks=%d)",
			st.Skip, st.Overlap, st.BlockLen, st.Blocks)
	}
	return nil
}

// Shard is one unit of engine work: Keys consecutive keys of the KeySource
// lane Lane, starting at key index FirstKey.
type Shard struct {
	Lane     uint64
	FirstKey uint64
	Keys     uint64
}

// SplitKeys cuts keys [first, first+keys) of one lane into parts shards of
// consecutive index ranges, as evenly as possible (the first keys%parts
// shards get one extra). Key k of a lane is fixed by (master, lane, k), so
// the split only decides which goroutine draws a key: every split of a range
// yields the same key population. parts is clamped to [1, keys] (GOMAXPROCS
// when <= 0); zero keys yields no shards.
func SplitKeys(lane, first, keys uint64, parts int) []Shard {
	if keys == 0 {
		return nil
	}
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	if uint64(parts) > keys {
		parts = int(keys)
	}
	shards := make([]Shard, parts)
	per := keys / uint64(parts)
	extra := keys % uint64(parts)
	for w := range shards {
		n := per
		if uint64(w) < extra {
			n++
		}
		shards[w] = Shard{Lane: lane, FirstKey: first, Keys: n}
		first += n
	}
	return shards
}

// Sink consumes the windows of one shard and merges with sinks of other
// shards. Window runs once per generated window in the hot loop, so
// implementations must keep it cheap; the slice is only valid for the
// duration of the call. Merge is called on the shard-0 sink with every other
// shard's sink, in shard order, after all generation finishes.
//
// Window ordering: each key's windows arrive in order (window b before
// window b+1), but windows of *different* keys interleave — the engine
// generates up to rc4.MultiLanes keys in lockstep and delivers each window
// round for the whole batch before the next round. Sinks must therefore be
// insensitive to cross-key window order; every sink in this repository is a
// commutative counter, for which the interleaving is invisible.
type Sink interface {
	Window(win []byte)
	Merge(other Sink) error
}

// Engine runs parallel keystream generation. The zero value is ready to use:
// it runs one worker goroutine per GOMAXPROCS, capped at the shard count.
type Engine struct {
	// Workers is the number of parallel worker goroutines; 0 means
	// GOMAXPROCS. Shards are handed to workers from a queue (ForShards), so
	// Workers only bounds parallelism — results are identical for any value.
	Workers int
}

// Run generates every shard's keystream windows in parallel, folds them into
// per-shard sinks produced by newSink (called once per shard, in shard
// order, before generation starts), and merges the sinks in shard order.
// The merged sink is returned; it is nil when shards is empty.
//
// ctx cancellation aborts the run and returns the context error. A progress
// callback attached with WithProgress is invoked as keys complete.
func (e Engine) Run(ctx context.Context, st Stream, shards []Shard, newSink func(shard int) Sink) (Sink, error) {
	st = st.withDefaults()
	if err := st.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(shards) == 0 {
		return nil, nil
	}
	sinks := make([]Sink, len(shards))
	for i := range sinks {
		sinks[i] = newSink(i)
	}

	var total uint64
	for _, sh := range shards {
		total += sh.Keys
	}
	prog := newProgressMeter(ctx, total)

	// Tracing rides the context: with no journal attached, every StartSpan
	// below is one nil check. Spans are per-run and per-shard — never
	// per-window or per-key, which would sit inside the keystream hot loop.
	// bytesPerKey is the delivered window volume (overlap prefix + all
	// fresh block bytes), the attr throughput investigations divide by.
	bytesPerKey := uint64(st.Overlap) + uint64(st.Blocks)*uint64(st.BlockLen)
	ctx, runSpan := obs.StartSpan(ctx, "engine.run",
		obs.Int("shards", int64(len(shards))),
		obs.U64("keys", total),
		obs.U64("bytes", total*bytesPerKey))
	defer runSpan.End()

	err := ForShards(e.Workers, len(shards), func(i int) error {
		_, ss := obs.StartSpan(ctx, "engine.shard",
			obs.U64("lane", shards[i].Lane),
			obs.U64("keys", shards[i].Keys),
			obs.U64("bytes", shards[i].Keys*bytesPerKey))
		ss.SetTrack(int64(i))
		defer ss.End()
		return runShard(ctx, st, shards[i], sinks[i], prog)
	})
	if err != nil {
		return nil, err
	}
	merged := sinks[0]
	for _, s := range sinks[1:] {
		if err := merged.Merge(s); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// cancelCheckBlocks is how many windows a worker generates between context
// checks inside a single key. Long-term keys can span gigabytes of
// keystream, so per-key checks alone would not keep cancellation responsive.
const cancelCheckBlocks = 1024

// runShard generates one shard's keys and feeds the windows to its sink. It
// fills rc4.MultiLanes key-lanes at a time through one MultiCipher, so the
// kernel amortizes loop and index overhead across the whole batch. Keys are
// drawn from the KeySource in index order; a tail batch shorter than the
// lane count pads the spare lanes by re-keying them with the batch's first
// key *without* drawing from the source, and their output is never
// delivered — so the sink sees exactly each key's keystream windows, merely
// interleaved across the batch (see Sink).
func runShard(ctx context.Context, st Stream, sh Shard, sink Sink, prog *progressMeter) error {
	src := newKeySourceAt(st.Master, sh.Lane, sh.FirstKey)
	m := rc4.NewMulti()
	lanes := uint64(m.Lanes())
	keys := make([][]byte, lanes)
	wins := make([][]byte, lanes)
	tails := make([][]byte, lanes)
	winLen := st.Overlap + st.BlockLen
	buf := make([]byte, int(lanes)*winLen)
	for l := range keys {
		keys[l] = make([]byte, keyLen)
		wins[l] = buf[l*winLen : (l+1)*winLen]
		tails[l] = wins[l][st.Overlap:]
	}
	// Check the context about every cancelCheckBlocks windows: one batched
	// round generates lanes windows at once.
	checkEvery := cancelCheckBlocks / int(lanes)
	if checkEvery == 0 {
		checkEvery = 1
	}
	for k := uint64(0); k < sh.Keys; k += lanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := sh.Keys - k
		if n > lanes {
			n = lanes
		}
		for b := uint64(0); b < n; b++ {
			src.NextKey(keys[b])
			if st.KeyDeriver != nil {
				st.KeyDeriver(sh.Lane, keys[b])
			}
		}
		for b := n; b < lanes; b++ {
			copy(keys[b], keys[0]) // pad lanes: no source draw, output dropped
		}
		if err := m.Rekey(keys); err != nil {
			return err
		}
		m.SkipKeystream(st.Skip, wins)
		for b := uint64(0); b < n; b++ {
			sink.Window(wins[b])
		}
		for blk := 1; blk < st.Blocks; blk++ {
			if blk%checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Every lane advances — padded lanes too, to keep the
			// batch in lockstep — but only real lanes deliver.
			for l := range wins {
				copy(wins[l], wins[l][st.BlockLen:])
			}
			m.Keystream(tails)
			for b := uint64(0); b < n; b++ {
				sink.Window(wins[b])
			}
		}
		for b := uint64(0); b < n; b++ {
			prog.done()
		}
	}
	return nil
}

// progressKey is the context key WithProgress stores the callback under.
type progressKey struct{}

// Progress receives generation progress: keys completed so far out of the
// run's total. It may be invoked from multiple worker goroutines, but calls
// are serialized — implementations need no locking of their own.
type Progress func(keysDone, keysTotal uint64)

// WithProgress returns a context that carries a progress callback for engine
// runs (and everything built on them: Run, the long-term collectors, TKIP
// training). The callback fires roughly progressGranularity times per run
// plus once at completion.
func WithProgress(ctx context.Context, fn Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressGranularity is roughly how many times per run the progress
// callback fires (at most once per completed key).
const progressGranularity = 256

// progressMeter turns per-key completions into serialized Progress calls.
type progressMeter struct {
	fn       Progress
	total    uint64
	every    uint64
	count    atomic.Uint64
	mu       sync.Mutex
	reported uint64 // highest done value delivered, guarded by mu
}

func newProgressMeter(ctx context.Context, total uint64) *progressMeter {
	fn, _ := ctx.Value(progressKey{}).(Progress)
	if fn == nil {
		return nil
	}
	every := total / progressGranularity
	if every == 0 {
		every = 1
	}
	return &progressMeter{fn: fn, total: total, every: every}
}

// done records one completed key, invoking the callback on every crossing of
// the reporting granularity and at the final key. Delivered counts are
// strictly increasing: a worker that crossed an earlier threshold but lost
// the race for the lock stays silent rather than reporting stale progress.
func (p *progressMeter) done() {
	if p == nil {
		return
	}
	d := p.count.Add(1)
	if d%p.every == 0 || d == p.total {
		p.mu.Lock()
		if d > p.reported {
			p.reported = d
			p.fn(d, p.total)
		}
		p.mu.Unlock()
	}
}

// errIncompatibleSink is returned by sink Merge implementations on a type or
// shape mismatch.
var errIncompatibleSink = errors.New("dataset: incompatible sink merge")
