package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rc4break/internal/cliutil"
)

// TestLoopbackFleetRecoversCookie builds fleetd and cookieattack, runs a
// loopback coordinator for a 6-character cookie with one model-mode
// -fleet-worker, and requires the coordinator's -json line to report the
// cookie recovered. Every schedule flag is left at its default, so the run
// takes the job package's cookie defaults end to end.
func TestLoopbackFleetRecoversCookie(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fleetd and cookieattack")
	}
	const secret = "C00kie"
	dir := t.TempDir()
	fleetd, worker := filepath.Join(dir, "fleetd"), filepath.Join(dir, "cookieattack")
	for bin, pkg := range map[string]string{fleetd: ".", worker: "../cookieattack"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	coord := exec.CommandContext(ctx, fleetd, "-listen", "127.0.0.1:0", "-secret", secret, "-linger", "0", "-json")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	var addr string
	for addr == "" && lines.Scan() {
		// "[fleet] coordinating cookie/model on ADDR: budget ..."
		if rest, ok := strings.CutPrefix(lines.Text(), "[fleet] coordinating cookie/model on "); ok {
			addr, _, _ = strings.Cut(rest, ": ")
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never reported its address: %v", coord.Wait())
	}
	w := exec.CommandContext(ctx, worker, "-fleet-worker", addr, "-secret", secret, "-mode", "model")
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	var last string
	for lines.Scan() {
		last = lines.Text()
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("fleetd: %v (last line %q)", err, last)
	}
	// With -linger 0 the coordinator may close before the worker hears
	// stop; the worker's exit status is not part of the result.
	_ = w.Process.Kill()
	_ = w.Wait()

	var res cliutil.RunResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("result line %q: %v", last, err)
	}
	if !res.Success || res.Plaintext != hex.EncodeToString([]byte(secret)) {
		t.Fatalf("fleet result %+v, want %q recovered", res, secret)
	}
	t.Logf("recovered at rank %d after %d records", res.Rank, res.Observations)
}
