package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"rc4break/internal/online"
	"rc4break/internal/service"
)

const testSecret = "Secur3C00kieVal+"

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
	bin := filepath.Join(t.TempDir(), "cookieattack")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name   string
		mode   string
		budget uint64
		first  uint64 // 0: offline -collect-only
	}{
		{"offline/exact", "exact", 4096, 0},
		{"offline/model", "model", 1 << 20, 0},
		{"online/exact", "exact", 4096, 1024},
		{"online/model", "model", 1 << 22, 1 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := filepath.Join(t.TempDir(), "run.snap")
			args := []string{"-mode", c.mode, "-seed", "3", "-secret", testSecret,
				"-ciphertexts", strconv.FormatUint(c.budget, 10), "-checkpoint", snap}
			first := c.budget
			if c.first == 0 {
				args = append(args, "-collect-only")
			} else {
				first = c.first
				args = append(args, "-online", "-first-decode", strconv.FormatUint(c.first, 10),
					"-max-candidates-per-round", "1")
			}
			runCLI(t, bin, c.first != 0, args...)
			got, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := service.SoloRun(service.JobSpec{
				Attack: "cookie", Mode: c.mode, Seed: 3, Secret: testSecret,
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
