package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
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
	fleetd, worker := buildFleet(t)
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
	addr := coordinatorAddr(t, lines)
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

// buildFleet builds fleetd and cookieattack into a temporary directory.
func buildFleet(t *testing.T) (fleetd, worker string) {
	t.Helper()
	dir := t.TempDir()
	fleetd, worker = filepath.Join(dir, "fleetd"), filepath.Join(dir, "cookieattack")
	for bin, pkg := range map[string]string{fleetd: ".", worker: "../cookieattack"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return fleetd, worker
}

// TestSigtermFlushesPool stops a coordinator with SIGTERM after lanes have
// merged past its last decode round (its first round is far off, so none
// has run): it must write its -checkpoint pool on the way out, and a
// coordinator started with -resume on that file must report at least the
// merged lanes' records.
func TestSigtermFlushesPool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fleetd and cookieattack")
	}
	const laneRecords = 1 << 16
	fleetd, worker := buildFleet(t)
	pool := filepath.Join(t.TempDir(), "pool.snap")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	job := []string{"-listen", "127.0.0.1:0", "-secret", "C00kie", "-budget", strconv.Itoa(1 << 30),
		"-lane-records", strconv.Itoa(laneRecords), "-first-decode", strconv.Itoa(1 << 29), "-linger", "0"}

	coord := exec.CommandContext(ctx, fleetd, append(job, "-checkpoint", pool)...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	addr := coordinatorAddr(t, lines)
	w := exec.CommandContext(ctx, worker, "-fleet-worker", addr, "-secret", "C00kie", "-mode", "model")
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = w.Process.Kill()
		_ = w.Wait()
	}()
	// Wait until three lanes have merged; none has been decoded.
	const merged = 3
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "[fleet] merged lane "+strconv.Itoa(merged-1)+" ") {
			break
		}
	}
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
	}
	// A cancelled run flushes, then exits 1; killed by the signal, it
	// would not have flushed at all.
	if err := coord.Wait(); !coord.ProcessState.Exited() {
		t.Fatalf("fleetd killed by SIGTERM instead of exiting: %v", err)
	}
	if _, err := os.Stat(pool); err != nil {
		t.Fatalf("no -checkpoint pool after SIGTERM: %v", err)
	}

	resumed := exec.CommandContext(ctx, fleetd, append(job, "-resume", pool)...)
	out, err := resumed.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = resumed.Process.Kill()
		_ = resumed.Wait()
	}()
	lines = bufio.NewScanner(out)
	prefix := "[fleet] resumed pool " + pool + ": "
	for lines.Scan() {
		rest, ok := strings.CutPrefix(lines.Text(), prefix)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(rest, " observations"), 10, 64)
		if err != nil {
			t.Fatalf("resume line %q: %v", lines.Text(), err)
		}
		if n < merged*laneRecords || n%laneRecords != 0 {
			t.Fatalf("resumed pool holds %d records, want a whole number of lanes >= %d", n, merged*laneRecords)
		}
		return
	}
	t.Fatalf("resumed coordinator never reported its pool: %v", resumed.Wait())
}

// coordinatorAddr reads a coordinator's stdout up to its listen address.
func coordinatorAddr(t *testing.T, lines *bufio.Scanner) string {
	t.Helper()
	for lines.Scan() {
		// "[fleet] coordinating cookie/model on ADDR: budget ..."
		if rest, ok := strings.CutPrefix(lines.Text(), "[fleet] coordinating cookie/model on "); ok {
			addr, _, _ := strings.Cut(rest, ": ")
			return addr
		}
	}
	t.Fatal("coordinator never reported its address")
	return ""
}
