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
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"

	"rc4break/internal/dataset"
	"rc4break/internal/experiments"
	"rc4break/internal/obs"
)

// options carries the scale flags the experiment drivers read.
type options struct {
	keys               uint64
	ltKeys, ltBlocks   int
	trials, candidates int
	tkipKeys           uint64
	json               bool
}

// register defines the scale flags on fs, writing into o.
func (o *options) register(fs *flag.FlagSet) {
	fs.Uint64Var(&o.keys, "keys", 1<<20, "random keys for short-term bias experiments")
	fs.IntVar(&o.ltKeys, "ltkeys", 32, "keys for long-term experiments (each generates -ltblocks*256 bytes)")
	fs.IntVar(&o.ltBlocks, "ltblocks", 4096, "256-byte blocks per long-term key")
	fs.IntVar(&o.trials, "trials", 16, "simulation trials per point (paper: 256-2048)")
	fs.IntVar(&o.candidates, "candidates", 1<<12, "cookie candidate list depth (paper: 2^23)")
	fs.Uint64Var(&o.tkipKeys, "tkipkeys", 0, "training keys per TSC class (paper: 2^32); 0 runs fig89 on the calibrated synthetic model and placement on 2^10")
	fs.BoolVar(&o.json, "json", false, "append machine-readable JSON result lines for experiments that produce them (trace)")
}

// tkipParams is the Figures 8–9 configuration the options select: a model
// trained on -tkipkeys keys per TSC class, or the synthetic model when 0.
func (o options) tkipParams(ctx context.Context) experiments.TKIPParams {
	return experiments.TKIPParams{KeysPerTSC: o.tkipKeys, Trials: o.trials, Seed: 1, Ctx: ctx}
}

// experiment is one -only key and the driver that prints its table.
type experiment struct {
	key string
	run func(ctx context.Context, o options, w io.Writer) error
}

// show renders a driver's result, or passes its error on.
func show(w io.Writer) func(experiments.Result, error) error {
	return func(res experiments.Result, err error) error {
		if err != nil {
			return err
		}
		return res.Render(w)
	}
}

// experimentTable lists every experiment in run order.
var experimentTable = []experiment{
	{"table1", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Table1(ctx, [16]byte{1}, o.ltKeys, o.ltBlocks))
	}},
	{"table2", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Table2(ctx, o.keys))
	}},
	{"eq2", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.ConsecutiveEq2(ctx, o.keys))
	}},
	{"eq35", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Equalities(ctx, o.keys))
	}},
	{"fig4", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figure4(ctx, o.keys, 96))
	}},
	{"fig5", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figure5(ctx, o.keys, nil))
	}},
	{"fig6", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figure6(ctx, o.keys))
	}},
	{"eq8", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.LongTermZeroPairs(ctx, [16]byte{2}, o.ltKeys, o.ltBlocks))
	}},
	{"broadcast", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.BroadcastAttack(ctx, o.keys, o.keys, 16))
	}},
	{"absab", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.ABSABGapVerification(ctx, [16]byte{4}, o.ltKeys, o.ltBlocks, nil))
	}},
	{"eq9", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Equation9Search(ctx, [16]byte{5}, o.ltKeys, o.ltBlocks, nil))
	}},
	{"fig7", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figure7(7, nil, o.trials, 128), nil)
	}},
	{"fig89", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figures8and9(o.tkipParams(ctx)))
	}},
	{"fig10", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.Figure10(experiments.CookieParams{
			Trials: o.trials, Candidates: o.candidates, Seed: 2,
		}))
	}},
	{"online", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.OnlineCookieRecords(experiments.OnlineCookieParams{
			Trials: o.trials, Candidates: o.candidates, Seed: 2,
		}))
	}},
	{"trace", func(ctx context.Context, o options, w io.Writer) error {
		res, results, err := experiments.TraceVsSim(experiments.TraceParams{})
		if err := show(w)(res, err); err != nil || !o.json {
			return err
		}
		for _, r := range results {
			if err := r.Write(w); err != nil {
				return err
			}
		}
		return nil
	}},
	{"placement", func(ctx context.Context, o options, w io.Writer) error {
		trainKeys := o.tkipKeys
		if trainKeys == 0 {
			trainKeys = 1 << 10 // placement always measures a trained model
		}
		return show(w)(experiments.PayloadPlacement(ctx, trainKeys))
	}},
	{"charset", func(ctx context.Context, o options, w io.Writer) error {
		return show(w)(experiments.CharsetAblation(3, 9<<27, o.trials, o.candidates))
	}},
}

// experimentKeys lists the valid -only keys in run order.
func experimentKeys() []string {
	keys := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		keys[i] = e.key
	}
	return keys
}

// selectExperiments returns the experiments a comma-separated -only value
// names, in table order; an empty value selects all of them. An unknown
// key is an error that lists the valid ones.
func selectExperiments(only string) ([]experiment, error) {
	if only == "" {
		return experimentTable, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		want[strings.TrimSpace(k)] = true
	}
	var sel []experiment
	for _, e := range experimentTable {
		if want[e.key] {
			sel = append(sel, e)
			delete(want, e.key)
		}
	}
	delete(want, "") // tolerate stray commas
	if len(want) > 0 {
		var unknown []string
		for k := range want {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown -only key(s) %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(experimentKeys(), ","))
	}
	return sel, nil
}

func main() {
	var o options
	o.register(flag.CommandLine)
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "report keystream-generation progress on stderr")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(experimentKeys(), ","))
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (one span per experiment, engine shard spans nested) to this file")
	flag.Parse()

	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

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

	// With -trace-out, each selected experiment gets one span under a shared
	// run span, and the engine's run/shard spans nest beneath via the
	// context; the journal is dumped as a Chrome trace-event file at exit.
	var (
		journal  *obs.Journal
		runSpan  *obs.Span
		traceCtx context.Context // journal-bearing base the per-experiment contexts derive from
	)
	if *traceOut != "" {
		journal = obs.NewJournal("repro", obs.DefaultCapacity)
		runSpan = journal.Start(obs.SpanContext{}, "repro.run",
			obs.U64("keys", o.keys), obs.Int("trials", int64(o.trials)))
		traceCtx = obs.NewContext(ctx, journal)
	}
	flushTrace := func() {
		if journal == nil {
			return
		}
		runSpan.End()
		if err := obs.WriteChromeFile(*traceOut, journal); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: chrome trace -> %s\n", *traceOut)
	}

	for _, e := range selected {
		expCtx := ctx
		var expSpan *obs.Span
		if journal != nil {
			expSpan = journal.Start(runSpan.Context(), "repro."+e.key)
			expCtx = obs.WithParent(traceCtx, expSpan.Context())
		}
		err := e.run(expCtx, o, os.Stdout)
		expSpan.End()
		if err != nil {
			if progressLineOpen.Load() {
				fmt.Fprintln(os.Stderr) // close the partial \r-progress line
			}
			flushTrace()
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
	flushTrace()
}
