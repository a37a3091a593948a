package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// Offline collection draws in one shot, so its spec decodes only at the
// budget; online runs share the CLI's cadence and per-round depth, and a
// capture chunk of the whole budget leaves the cadence as the only chunking.
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
				Budget: c.budget, FirstDecode: first, MaxCandidates: 1, CaptureChunk: c.budget,
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
	// 640 frames from seed 1 put the true trailer deep enough in the list
	// that the walk, not just the decode, is pinned.
	got, _ := runJSON(t, bin, 0, "-seed", "1", "-trainkeys", strconv.Itoa(testTrainKeys),
		"-model", model, "-copies", "640", "-checkpoint", snap, "-json")
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
