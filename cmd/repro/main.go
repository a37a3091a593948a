// Command repro regenerates every table and figure of the paper's
// evaluation at a configurable scale and prints them as text tables. With
// default flags it runs at laptop scale in minutes; larger -keys/-trials
// values approach paper scale. Keystream-generating runs can be bounded
// with -timeout, cancelled with Ctrl-C (the experiment stops at the next
// key boundary), and watched with -progress; the simulation-only drivers
// (fig7, fig10, charset) are not context-aware — a second Ctrl-C
// force-kills them.
//
// Usage:
//
//	repro [-keys N] [-trials N] [-candidates N] [-timeout D] [-progress] [-only table1,fig7,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"

	"rc4break/internal/dataset"
	"rc4break/internal/experiments"
	"rc4break/internal/obs"
)

func main() {
	keys := flag.Uint64("keys", 1<<20, "random keys for short-term bias experiments")
	ltKeys := flag.Int("ltkeys", 32, "keys for long-term experiments (each generates -ltblocks*256 bytes)")
	ltBlocks := flag.Int("ltblocks", 4096, "256-byte blocks per long-term key")
	trials := flag.Int("trials", 16, "simulation trials per point (paper: 256-2048)")
	candidates := flag.Int("candidates", 1<<12, "cookie candidate list depth (paper: 2^23)")
	tkipKeys := flag.Uint64("tkipkeys", 1<<12, "training keys per TSC class (paper: 2^32)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "report keystream-generation progress on stderr")
	only := flag.String("only", "", "comma-separated subset: table1,table2,eq2,eq35,fig4,fig5,fig6,eq8,broadcast,absab,eq9,fig7,fig89,fig10,online,trace,placement,charset")
	jsonOut := flag.Bool("json", false, "append machine-readable JSON result lines for experiments that produce them (trace)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (one span per experiment, engine shard spans nested) to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once the context is cancelled (first Ctrl-C or deadline), restore the
	// default SIGINT disposition: the generation-backed experiments stop at
	// the next key boundary, and a second Ctrl-C force-kills the
	// simulation-only drivers (fig7, fig10, charset), which do not take a
	// context yet.
	go func() {
		<-ctx.Done()
		stop()
	}()
	var progressLineOpen atomic.Bool
	if *progress {
		ctx = dataset.WithProgress(ctx, func(done, total uint64) {
			fmt.Fprintf(os.Stderr, "\rgenerated %d/%d keys (%.1f%%)", done, total,
				100*float64(done)/float64(total))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
			progressLineOpen.Store(done != total)
		})
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}

	// With -trace-out, each selected experiment gets one span under a shared
	// run span, and the engine's run/shard spans nest beneath via the
	// context; the journal is dumped as a Chrome trace-event file at exit.
	var (
		journal  *obs.Journal
		runSpan  *obs.Span
		expSpan  *obs.Span
		traceCtx context.Context // journal-bearing base the per-experiment contexts derive from
	)
	if *traceOut != "" {
		journal = obs.NewJournal("repro", obs.DefaultCapacity)
		runSpan = journal.Start(obs.SpanContext{}, "repro.run",
			obs.U64("keys", *keys), obs.Int("trials", int64(*trials)))
		traceCtx = obs.NewContext(ctx, journal)
	}
	run := func(key string) bool {
		ok := len(want) == 0 || want[key]
		if ok && journal != nil {
			expSpan.End() // close the previous experiment's span (nil-safe)
			expSpan = journal.Start(runSpan.Context(), "repro."+key)
			ctx = obs.WithParent(traceCtx, expSpan.Context())
		}
		return ok
	}
	flushTrace := func() {
		if journal == nil {
			return
		}
		expSpan.End()
		expSpan = nil
		runSpan.End()
		f, err := os.Create(*traceOut)
		if err == nil {
			if werr := obs.WriteChrome(f, journal.Snapshot()); werr == nil {
				err = f.Close()
			} else {
				f.Close()
				err = werr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: chrome trace -> %s\n", *traceOut)
	}
	fail := func(err error) {
		if progressLineOpen.Load() {
			fmt.Fprintln(os.Stderr) // close the partial \r-progress line
		}
		flushTrace()
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	if run("table1") {
		res, err := experiments.Table1(ctx, [16]byte{1}, *ltKeys, *ltBlocks, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("table2") {
		res, err := experiments.Table2(ctx, *keys, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("eq2") {
		res, err := experiments.ConsecutiveEq2(ctx, *keys, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("eq35") {
		res, err := experiments.Equalities(ctx, *keys, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig4") {
		res, err := experiments.Figure4(ctx, *keys, 0, 96)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig5") {
		res, err := experiments.Figure5(ctx, *keys, 0, nil)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig6") {
		res, err := experiments.Figure6(ctx, *keys, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("eq8") {
		res, err := experiments.LongTermZeroPairs(ctx, [16]byte{2}, *ltKeys, *ltBlocks, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("broadcast") {
		res, err := experiments.BroadcastAttack(ctx, *keys, *keys, 16, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("absab") {
		res, err := experiments.ABSABGapVerification(ctx, [16]byte{4}, *ltKeys, *ltBlocks, nil, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("eq9") {
		res, err := experiments.Equation9Search(ctx, [16]byte{5}, *ltKeys, *ltBlocks, nil, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig7") {
		res := experiments.Figure7(7, nil, *trials, 128)
		res.Render(os.Stdout)
	}
	if run("fig89") {
		res, err := experiments.Figures8and9(experiments.TKIPParams{
			KeysPerTSC: *tkipKeys,
			Trials:     *trials,
			Seed:       1,
			Ctx:        ctx,
		})
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("fig10") {
		res, err := experiments.Figure10(experiments.CookieParams{
			Trials:     *trials,
			Candidates: *candidates,
			Seed:       2,
		})
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("online") {
		res, err := experiments.OnlineCookieRecords(experiments.OnlineCookieParams{
			Trials:     *trials,
			Candidates: *candidates,
			Seed:       2,
		})
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("trace") {
		res, results, err := experiments.TraceVsSim(experiments.TraceParams{})
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
		if *jsonOut {
			for _, r := range results {
				if err := r.Write(os.Stdout); err != nil {
					fail(err)
				}
			}
		}
	}
	if run("placement") {
		trainKeys := *tkipKeys
		if trainKeys == 0 {
			trainKeys = 1 << 10 // placement always measures a trained model
		}
		res, err := experiments.PayloadPlacement(ctx, trainKeys, 0)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	if run("charset") {
		res, err := experiments.CharsetAblation(3, 9<<27, *trials, *candidates)
		if err != nil {
			fail(err)
		}
		res.Render(os.Stdout)
	}
	flushTrace()
}
