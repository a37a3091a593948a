package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// testTrainKeys keeps the per-TSC model small: the pin is about evidence
// bytes, not attack success.
const testTrainKeys = 1 << 6

// TestCheckpointMatchesSoloRun pins the CLI's evidence to the service's
// reference runtime: the -checkpoint snapshot the built binary writes must
// be byte-identical to service.SoloRun's evidence for the equivalent spec.
// Offline collection captures to the budget, so its spec decodes only
// there; online runs share the CLI's cadence and per-round depth. Both
// walk the spec's default capture granules, as SoloRun does.
func TestCheckpointMatchesSoloRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	cases := []struct {
		name   string
		mode   string
		budget uint64
		first  uint64 // 0: offline -collect-only
	}{
		{"offline/exact", "exact", 4096, 0},
		{"offline/model", "model", 1 << 16, 0},
		{"online/exact", "exact", 4096, 1024},
		{"online/model", "model", 1 << 14, 1 << 12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := filepath.Join(t.TempDir(), "run.snap")
			args := []string{"-mode", c.mode, "-seed", "3",
				"-trainkeys", strconv.Itoa(testTrainKeys),
				"-copies", strconv.FormatUint(c.budget, 10), "-checkpoint", snap}
			first := c.budget
			if c.first == 0 {
				args = append(args, "-collect-only")
			} else {
				first = c.first
				args = append(args, "-online", "-first-decode", strconv.FormatUint(c.first, 10),
					"-maxdepth", "1")
			}
			runCLI(t, bin, c.first != 0, args...)
			got, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := service.SoloRun(service.JobSpec{
				Attack: "tkip", Mode: c.mode, Seed: 3, TrainKeys: testTrainKeys,
				Budget: c.budget, FirstDecode: first, MaxCandidates: 1,
			})
			if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("CLI checkpoint (%d bytes) differs from SoloRun evidence (%d bytes)", len(got), len(want))
			}
		})
	}
}

// runCLI runs the binary; online runs may exhaust their budget (exit 1) —
// the last round's checkpoint still holds the final evidence.
func runCLI(t *testing.T, bin string, online bool, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !(online && errors.As(err, &exit) && exit.ExitCode() == 1) {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
}

// TestOfflineRecoveryMatchesReference pins the offline recovery phase: the
// -json result of a full run must equal RecoverTrailer over the run's own
// -checkpoint snapshot.
func TestOfflineRecoveryMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model, snap := filepath.Join(dir, "tkip.model"), filepath.Join(dir, "run.snap")
	// 1152 frames from seed 4 put the true trailer deep enough in the list
	// that the walk, not just the decode, is pinned.
	got, _ := runJSON(t, bin, 0, "-seed", "4", "-trainkeys", strconv.Itoa(testTrainKeys),
		"-model", model, "-copies", "1152", "-checkpoint", snap, "-json")
	want := referenceResult(t, readShard(t, model, snap))
	if got.Rank < 2 {
		t.Fatalf("rank %d: the pin needs a trailer below the top of the list", got.Rank)
	}
	compareResults(t, got, want)
}

// TestMergeMatchesReference pins the -merge pool: two independently seeded
// shards merged by the CLI must recover exactly what an in-test Merge of
// the same snapshots recovers, and a second shard of one capture stream is
// refused with exit 1.
func TestMergeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "tkip.model")
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	for i, shard := range []string{a, b} {
		runJSON(t, bin, 0, "-seed", strconv.Itoa(i+1), "-trainkeys", strconv.Itoa(testTrainKeys),
			"-model", model, "-copies", "1024", "-checkpoint", shard, "-collect-only")
	}
	got, _ := runJSON(t, bin, 0, "-model", model, "-copies", "0", "-merge", a+","+b, "-json")
	pool := readShard(t, model, a)
	if err := pool.Merge(readShard(t, model, b)); err != nil {
		t.Fatal(err)
	}
	compareResults(t, got, referenceResult(t, pool))

	dup := filepath.Join(dir, "dup.snap")
	raw, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dup, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, stderr := runJSON(t, bin, 1, "-model", model, "-copies", "0", "-merge", a+","+dup); !strings.Contains(stderr, "same capture stream") {
		t.Fatalf("same-stream merge refused for another reason: %s", stderr)
	}
}

// TestInterruptFlushesCheckpoint pins the SIGINT flush of exact and trace
// collection: a signal once collection has begun exits 130 with the
// shard's -checkpoint written, and a -resume of it ends with the bytes of
// the uninterrupted run's checkpoint.
func TestInterruptFlushesCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	const frames = "262144"
	model, pcap := filepath.Join(dir, "tkip.model"), filepath.Join(dir, "tkip.pcap")
	runCLI(t, bin, false, "-write-pcap", pcap, "-copies", frames)
	for _, c := range []struct {
		name   string
		source []string
	}{
		{"exact", []string{"-mode", "exact"}},
		{"trace", []string{"-pcap", pcap}},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-trainkeys", strconv.Itoa(testTrainKeys), "-model", model,
				"-copies", frames, "-collect-only"}, c.source...)
			whole, cut := filepath.Join(dir, c.name+".snap"), filepath.Join(dir, c.name+"-cut.snap")
			runCLI(t, bin, false, append(args, "-checkpoint", whole)...)
			interrupt(t, bin, append(args, "-checkpoint", cut)...)
			runCLI(t, bin, false, append(args, "-checkpoint", cut, "-resume", cut)...)
			if !bytes.Equal(readFile(t, cut), readFile(t, whole)) {
				t.Fatal("interrupted and resumed shard differs from the uninterrupted one")
			}
		})
	}
}

// TestShortTraceShard pins a -pcap shard that holds fewer frames than
// -copies asks for: collection takes what the file holds and exits 0.
func TestShortTraceShard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	pcap := filepath.Join(t.TempDir(), "short.pcap")
	runCLI(t, bin, false, "-write-pcap", pcap, "-copies", "4096")
	out, err := exec.Command(bin, "-pcap", pcap, "-copies", "8192", "-trainkeys", strconv.Itoa(testTrainKeys), "-collect-only").CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("shard evidence: 4096 frames\n")) {
		t.Fatalf("short shard: %v\n%s", err, out)
	}
}

// TestRefusesIgnoredFlag pins the usage error for a flag the chosen flow
// never reads: a fleet worker uploads its lanes and writes no -checkpoint,
// and -write-pcap joins no fleet. Each exits 2 before any file is written.
func TestRefusesIgnoredFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	snap, pcap := filepath.Join(dir, "w.snap"), filepath.Join(dir, "x.pcap")
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-fleet-worker", "127.0.0.1:1", "-checkpoint", snap}, "-fleet-worker ignores -checkpoint"},
		{[]string{"-write-pcap", pcap, "-copies", "4096", "-fleet-worker", "127.0.0.1:1"}, "-write-pcap ignores -fleet-worker"},
	} {
		if _, stderr := runJSON(t, bin, 2, c.args...); !strings.Contains(stderr, c.msg) {
			t.Fatalf("%v refused for another reason: %s", c.args, stderr)
		}
	}
	for _, path := range []string{snap, pcap} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("refused run left %s: %v", path, err)
		}
	}
}

// interrupt runs the binary, sends it SIGINT once collection has begun, and
// requires exit 130 after a flushed checkpoint.
func interrupt(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	lines := bufio.NewScanner(io.TeeReader(stdout, &out))
	for lines.Scan() && !strings.Contains(lines.Text(), "collecting") {
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	io.Copy(&out, stdout)
	var exit *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 130 || !strings.Contains(out.String(), "checkpoint flushed") {
		t.Fatalf("%v: interrupted run ended with %v, want exit 130 after a flush\n%s", args, err, out.Bytes())
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// referenceResult runs the §5.3 ICV-pruned search over attack at the
// CLI's default depth, independently of the CLI's recovery code.
func referenceResult(t *testing.T, attack *tkip.Attack) cliutil.RunResult {
	t.Helper()
	session := tkip.DemoSession()
	msdu := netsim.NewWiFiVictim(session, tkip.DemoPayload).MSDU
	want := cliutil.RunResult{Observations: attack.Frames}
	if key, rank, err := attack.RecoverTrailer(session.DA, session.SA, msdu, 1<<20); err == nil {
		want.Success, want.Rank, want.Plaintext = true, rank, hex.EncodeToString(key[:])
	}
	return want
}

func readShard(t *testing.T, modelPath, path string) *tkip.Attack {
	t.Helper()
	model, err := tkip.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := tkip.ReadAttackSnapshot(bytes.NewReader(raw), model)
	if err != nil {
		t.Fatal(err)
	}
	return attack
}

func compareResults(t *testing.T, got, want cliutil.RunResult) {
	t.Helper()
	if got.Success != want.Success || got.Rank != want.Rank ||
		got.Plaintext != want.Plaintext || got.Observations != want.Observations {
		t.Fatalf("CLI result success=%v rank=%d plaintext=%s observations=%d; reference success=%v rank=%d plaintext=%s observations=%d",
			got.Success, got.Rank, got.Plaintext, got.Observations,
			want.Success, want.Rank, want.Plaintext, want.Observations)
	}
}

// TestFlagSurface pins the command's flags as -h lists them: every name,
// its type and its default. Usage text may change; these may not.
func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	want := []flagRow{
		{"capture-chunk", "uint", ""},
		{"checkpoint", "string", ""},
		{"collect-only", "bool", ""},
		{"copies", "uint", `9437184`},
		{"decode-every", "uint", ""},
		{"first-decode", "uint", ""},
		{"fleet-worker", "string", ""},
		{"json", "bool", ""},
		{"maxdepth", "int", ""},
		{"merge", "string", ""},
		{"mode", "string", `"model"`},
		{"model", "string", ""},
		{"online", "bool", ""},
		{"pcap", "string", ""},
		{"resume", "string", ""},
		{"seed", "int", `1`},
		{"trainkeys", "uint", ""},
		{"worker-id", "string", ""},
		{"workers", "int", ""},
		{"write-pcap", "string", ""},
	}
	got := helpFlags(t, buildCLI(t))
	if !slices.Equal(got, want) {
		t.Fatalf("flags from -h:\n%v\nwant (20 flags):\n%v", got, want)
	}
}

// flagRow is one flag as -h lists it. A bool prints no type, and a zero
// default prints none.
type flagRow struct{ name, typ, def string }

// helpFlags parses bin -h: each "  -name type" line starts a flag, and its
// usage text's last line may end in " (default X)", a string's default
// quoted (so usage prose such as "(default hostname-pid)" is not taken).
func helpFlags(t *testing.T, bin string) []flagRow {
	t.Helper()
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	var rows []flagRow
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			f := strings.Fields(line)
			row := flagRow{name: f[0][1:], typ: "bool"}
			if len(f) > 1 {
				row.typ = f[1]
			}
			rows = append(rows, row)
			continue
		}
		i := strings.LastIndex(line, " (default ")
		if i < 0 || len(rows) == 0 || !strings.HasSuffix(line, ")") {
			continue
		}
		row := &rows[len(rows)-1]
		if def := line[i+len(" (default ") : len(line)-1]; row.typ != "string" || strings.HasPrefix(def, `"`) {
			row.def = def
		}
	}
	return rows
}

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tkipattack")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runJSON runs the binary, requires exit code wantExit, and returns the
// decoded -json result line (zero when the run printed none) and stderr.
func runJSON(t *testing.T, bin string, wantExit int, args ...string) (cliutil.RunResult, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	exit := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if exit != wantExit {
		t.Fatalf("%v: exit %d, want %d\n%s%s", args, exit, wantExit, out, stderr.Bytes())
	}
	var res cliutil.RunResult
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if last := lines[len(lines)-1]; bytes.HasPrefix(last, []byte("{")) {
		if err := json.Unmarshal(last, &res); err != nil {
			t.Fatalf("%v: result line %q: %v", args, last, err)
		}
	}
	return res, stderr.String()
}
