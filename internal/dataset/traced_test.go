package dataset

import (
	"context"
	"testing"

	"rc4break/internal/obs"
)

// TestEngineTracingBitwiseIdentical pins the observability invariant: a run
// with a live journal in the context produces a sink bitwise identical to
// the untraced run, and the journal holds the run/shard span structure.
func TestEngineTracingBitwiseIdentical(t *testing.T) {
	st := Stream{Skip: 3, Overlap: 1, BlockLen: 32, Blocks: 4}
	shards := SplitKeys(7, 0, 200, 4)
	run := func(ctx context.Context) *SingleByteCounts {
		sink, err := Engine{Workers: 2}.Run(ctx, st, shards,
			func(int) Sink { return NewSingleByteCounts(33) })
		if err != nil {
			t.Fatal(err)
		}
		return sink.(*SingleByteCounts)
	}

	plain := run(context.Background())
	j := obs.NewJournal("test", 256)
	traced := run(obs.NewContext(context.Background(), j))

	if plain.Keys != traced.Keys {
		t.Fatalf("keys diverge: %d vs %d", plain.Keys, traced.Keys)
	}
	for i := range plain.Counts {
		if plain.Counts[i] != traced.Counts[i] {
			t.Fatalf("tracing changed output at count %d", i)
		}
	}

	recs := j.Snapshot()
	var runs, shardSpans int
	var runCtx obs.SpanContext
	for _, r := range recs {
		switch r.Name {
		case "engine.run":
			runs++
			runCtx = obs.SpanContext{Trace: obs.TraceID(r.Trace), Span: obs.SpanID(r.Span)}
		case "engine.shard":
			shardSpans++
		}
	}
	if runs != 1 || shardSpans != len(shards) {
		t.Fatalf("got %d run + %d shard spans, want 1 + %d", runs, shardSpans, len(shards))
	}
	for _, r := range recs {
		if r.Name == "engine.shard" {
			if r.Parent != uint64(runCtx.Span) || r.Trace != uint64(runCtx.Trace) {
				t.Fatalf("shard span not parented under run span: %+v", r)
			}
		}
	}
}

// BenchmarkEngineTracedVsUntraced pins the hot-path rule from the obs
// package: tracing is per-run/per-shard only, so an enabled journal must
// cost the same as the disabled nil-check path to within noise. CI renames
// the two sub-benchmarks to a common name and gates the pair with
// scripts/benchdiff at a 2% threshold.
func BenchmarkEngineTracedVsUntraced(b *testing.B) {
	st := Stream{Skip: 256, BlockLen: 256, Blocks: 1}
	shards := SplitKeys(0, 0, 2048, 4)
	bench := func(b *testing.B, ctx context.Context) {
		b.SetBytes(int64(2048 * 256))
		for i := 0; i < b.N; i++ {
			_, err := Engine{Workers: 2}.Run(ctx, st, shards,
				func(int) Sink { return NewSingleByteCounts(256) })
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		bench(b, context.Background())
	})
	b.Run("traced", func(b *testing.B) {
		j := obs.NewJournal("bench", 4096)
		bench(b, obs.NewContext(context.Background(), j))
	})
}
