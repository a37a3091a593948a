// Command e2ebench is the repository's whole-job benchmark. It runs one
// named workload — a list of attack jobs generated from a seed through
// netsim.Population — against the program's public entry points
// (service.SoloRun, service.Server and its HTTP API, fleet.Coordinator and
// fleet.Worker), checks every job's output, and prints each end-to-end
// metric by name with its unit. With -trace 1 it instead runs the same jobs
// with the benchmark's own timers around calls into each layer and prints
// the per-layer metrics plus a layer budget. See README.md.
//
// Usage:
//
//	e2ebench -workload cookie-solo -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rc4break/internal/rc4"
)

const (
	// defaultSeed generates the workloads when -seed is not given; every
	// figure quoted while developing a change uses it.
	defaultSeed = 1
	// confirmSeed is reserved for confirming a claimed gain on inputs the
	// change was not tuned on: do not use it while writing the change.
	confirmSeed = 2016
	// setupReps is how many times each workload's set-up runs; setup_s is
	// the median.
	setupReps = 3
)

// workload is one named job mix. A run generates round(seconds×rate)|1 jobs,
// so the job list is a pure function of (seed, seconds). For the closed
// loops rate is the nominal job throughput on a 2-CPU host, so the timed
// window lasts about -seconds there; service-mix's burst is smaller than
// that (about 10 s of work) because every admitted job holds its evidence
// and decoder tables, about 40 MB, until it finishes.
type workload struct {
	name string
	rate float64
	run  func(b *bench) error
}

var workloads = []workload{
	{"cookie-solo", 1.0, runCookieSolo},
	{"exact-capture", 1.2, runExactCapture},
	{"service-mix", 2.0, runServiceMix},
	{"fleet-cookie", 1.45, runFleetCookie},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// pass is one timed execution of a workload's job list.
type pass struct {
	wall float64 // seconds of the timed window
	outs []outcome
	// ok marks a job that succeeded in the workload's sense: an
	// oracle-confirmed recovery, or for exact-capture a capture that matched
	// its reference.
	ok []bool
	// latency is each job's seconds from when it was due to its result.
	latency  []float64
	observed uint64 // records + frames added to evidence in the window
	proc     procDelta
}

// bench is the state of one benchmark run.
type bench struct {
	opts options
	jobs int
	// setupS and trainS are the per-repetition set-up and TKIP training
	// times.
	setupS, trainS []float64
	// main is the pass whose figures are reported: the untraced pass, or
	// the traced one under -trace 1. untraced is set on traced runs that
	// also timed an untraced pass, for the tracing overhead.
	main     *pass
	untraced *pass
	peakRSS  float64
	lay      *layers
	// budget lists the time metrics on the job's blocking path, which the
	// layer budget sums against the traced window; parallel lists time
	// spent off that path (fleet workers, concurrent service slots).
	budget, parallel []string
	// slots is the number of concurrent job slots the window can keep busy
	// (1 for a closed loop, the service capacity for service-mix).
	slots int
	// failed maps a job's index to the first check it failed.
	failed map[int]string
	out    io.Writer
}

// fail records that job i failed a check; a job counts once however many
// checks it fails.
func (b *bench) fail(i int, format string, args ...any) {
	if _, seen := b.failed[i]; !seen {
		b.failed[i] = fmt.Sprintf("job %d: ", i) + fmt.Sprintf(format, args...)
	}
}

// setup runs fn setupReps times, timing each repetition; fn keeps whatever
// the last repetition built for the run.
func (b *bench) setup(fn func(rep int) error) error {
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// measure times fn as one pass, with process counters around it. fn may
// set p.wall itself when its window is not the whole call.
func measure(fn func(p *pass)) *pass {
	p := &pass{}
	before := readProc()
	t0 := time.Now()
	fn(p)
	if p.wall == 0 {
		p.wall = time.Since(t0).Seconds()
	}
	p.proc = readProc().sub(before)
	return p
}

// procDelta is the change in process and host counters over a window.
type procDelta struct {
	allocMB, gcPauseS, cpuS float64
	// stealS is CPU time the hypervisor gave to other guests, summed over
	// all CPUs: context for a slow run on a shared host, never a metric.
	stealS float64
}

type procSnap struct {
	alloc, pause uint64
	cpu          time.Duration
	steal        float64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{alloc: ms.TotalAlloc, pause: ms.PauseTotalNs, cpu: cpu, steal: stealSeconds()}
}

// stealSeconds reads the host's cumulative steal time from /proc/stat (the
// eighth value of the "cpu" line, in USER_HZ ticks); 0 where it is absent.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func (s procSnap) sub(before procSnap) procDelta {
	return procDelta{
		allocMB:  float64(s.alloc-before.alloc) / 1e6,
		gcPauseS: float64(s.pause-before.pause) / 1e9,
		cpuS:     (s.cpu - before.cpu).Seconds(),
		stealS:   s.steal - before.steal,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_s_p50", "s"},
	{"capture_obs_per_s", "obs/s"},
	{"records_to_success_mean", "records"},
	{"oracle_checks_p50", "checks"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run reports. Each is measured around
// calls into the named layer's public functions; a layer the workload does
// not reach reads 0.
var perLayer = []metricDef{
	{"netsim.victim_s", "s"},
	{"netsim.victim_mb_per_s", "MB/s"},
	{"netsim.sniff_s", "s"},
	{"tlsrec.scan_s", "s"},
	{"tlsrec.scan_mb_per_s", "MB/s"},
	{"cookieattack.fold_s", "s"},
	{"cookieattack.fold_records_per_s", "records/s"},
	{"tkip.fold_s", "s"},
	{"tkip.fold_frames_per_s", "frames/s"},
	{"cookieattack.simulate_s", "s"},
	{"tkip.simulate_s", "s"},
	{"cookieattack.likelihood_s", "s"},
	{"tkip.likelihood_s", "s"},
	{"recovery.viterbi_s", "s"},
	{"recovery.enumerate_s", "s"},
	{"recovery.candidates", "count"},
	{"oracle.check_s", "s"},
	{"oracle.checks", "count"},
	{"oracle.skipped", "count"},
	{"oracle.checks_per_success", "checks"},
	{"online.rounds", "count"},
	{"online.rounds_per_success", "rounds"},
	{"online.capture_s", "s"},
	{"online.decode_s", "s"},
	{"online.walk_s", "s"},
	{"online.residual_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.encode_mb", "MB"},
	{"snapshot.decode_s", "s"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_lag_ms_max", "ms"},
	{"service.queue_wait_s_p50", "s"},
	{"service.granule_s", "s"},
	{"service.decode_s", "s"},
	{"service.store_write_mb", "MB"},
	{"service.blobs", "count"},
	{"fleet.collect_s", "s"},
	{"fleet.lane_roundtrip_s_p50", "s"},
	{"fleet.ingest_s", "s"},
	{"fleet.merge_s", "s"},
	{"fleet.decode_s", "s"},
	{"fleet.uploads", "count"},
	{"fleet.rejected", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_s", "s"},
	{"proc.cpu_s", "s"},
	{"proc.cpu_util", "cores"},
	{"tkip.train_s", "s"},
}

// costs returns, for the pass's jobs of one attack, the observations of
// each successful job and the oracle checks of every job.
func (p *pass) costs(attack string) (records, checks []float64) {
	for i, o := range p.outs {
		if o.Attack != attack {
			continue
		}
		checks = append(checks, float64(o.Checks))
		if p.ok[i] {
			records = append(records, float64(o.Observed))
		}
	}
	return records, checks
}

// endToEndValues computes every end-to-end metric from the reported pass.
func (b *bench) endToEndValues() map[string]float64 {
	p := b.main
	// records_to_success_mean and oracle_checks_p50 describe the §6 cookie
	// attack, which every workload runs, and do not mix in TKIP frames; TKIP
	// jobs count in success_rate and the cost model. Records are averaged,
	// not a median: success lands on a decode cadence point (1, 2, 4, 8 or
	// 9 × 2^27), so the median of a run's jobs jumps 2× whenever the share
	// of jobs done by 4·2^27 crosses one half.
	records, checks := p.costs("cookie")
	succ := 0
	for _, ok := range p.ok {
		if ok {
			succ++
		}
	}
	return map[string]float64{
		"setup_s":                 median(b.setupS),
		"jobs_per_s":              rate(float64(len(p.outs)), p.wall),
		"job_s_p50":               median(p.latency),
		"capture_obs_per_s":       rate(float64(p.observed), p.wall),
		"records_to_success_mean": mean(records),
		"oracle_checks_p50":       median(checks),
		"success_rate":            ratio(float64(succ), float64(len(p.outs))),
		"peak_rss_mb":             b.peakRSS,
	}
}

// perLayerValues computes every per-layer metric from the traced pass.
func (b *bench) perLayerValues() map[string]float64 {
	l, p := b.lay, b.main
	succ := 0
	for _, ok := range p.ok {
		if ok {
			succ++
		}
	}
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = l.get(m.name)
	}
	v["netsim.victim_mb_per_s"] = rate(l.get("netsim.victim_bytes")/1e6, l.get("netsim.victim_s"))
	v["tlsrec.scan_mb_per_s"] = rate(l.get("tlsrec.scan_bytes")/1e6, l.get("tlsrec.scan_s"))
	v["cookieattack.fold_records_per_s"] = rate(l.get("cookieattack.fold_records"), l.get("cookieattack.fold_s"))
	v["tkip.fold_frames_per_s"] = rate(l.get("tkip.fold_frames"), l.get("tkip.fold_s"))
	v["oracle.checks_per_success"] = ratio(l.get("oracle.checks"), float64(succ))
	v["online.rounds_per_success"] = ratio(l.get("online.rounds"), float64(succ))
	v["snapshot.encode_mb"] = l.get("snapshot.encode_bytes") / 1e6
	v["service.submit_ms_p50"] = median(l.samplesOf("service.submit_ms"))
	v["service.queue_wait_s_p50"] = median(l.samplesOf("service.queue_wait_s"))
	v["fleet.lane_roundtrip_s_p50"] = median(l.samplesOf("fleet.lane_roundtrip_s"))
	v["go.alloc_mb"] = p.proc.allocMB
	v["go.gc_pause_s"] = p.proc.gcPauseS
	v["proc.cpu_s"] = p.proc.cpuS
	v["proc.cpu_util"] = rate(p.proc.cpuS, p.wall)
	v["tkip.train_s"] = median(b.trainS)
	return v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDefs lists the metrics this run reports.
func (b *bench) metricDefs() []metricDef {
	if b.opts.trace {
		return perLayer
	}
	return endToEnd
}

// resultOf assembles the final JSON object. A job counts as failed when any
// check on it failed; budget exhaustion is not a failure.
func (b *bench) resultOf() result {
	vals := b.endToEndValues()
	if b.opts.trace {
		vals = b.perLayerValues()
	}
	defs := b.metricDefs()
	r := result{
		Attempted: len(b.main.outs),
		Failed:    len(b.failed),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		x := vals[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		r.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return r
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "cookie-solo", "workload to run")
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (%d is reserved for confirming claims)", confirmSeed))
	fs.IntVar(&o.seconds, "seconds", 15, "approximate length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	return o, nil
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// execute runs one workload and returns its result; the human-readable
// report goes to out.
func execute(o options, out io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	// An odd job count makes every median one job's own value.
	jobs := int(math.Round(float64(o.seconds)*w.rate)) | 1
	b := &bench{opts: o, jobs: jobs, lay: newLayers(), slots: 1, failed: make(map[int]string), out: out}
	backend, err := rc4.BackendAuto.Resolve()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d jobs %d trace %v\n", w.name, o.seed, jobs, o.trace)
	fmt.Fprintf(out, "env nproc %d GOMAXPROCS %d go %s rc4 backend %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), backend)
	if err := w.run(b); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "setup reps %.4f s, tkip training %.4f s; timed window %.3f s, process CPU %.3f s, host steal %.2f s\n",
		b.setupS, b.trainS, b.main.wall, b.main.proc.cpuS, b.main.proc.stealS)
	fmt.Fprintf(out, "outcome digest %s\n", digest(b.main.outs))
	failed := make([]int, 0, len(b.failed))
	for i := range b.failed {
		failed = append(failed, i)
	}
	sort.Ints(failed)
	for _, i := range failed {
		fmt.Fprintf(out, "FAILED %s\n", b.failed[i])
	}
	r := b.resultOf()
	for _, d := range b.metricDefs() {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	b.printCostModel()
	if o.trace {
		b.printBudget()
	}
	return r, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	r, err := execute(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
