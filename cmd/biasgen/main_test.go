package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rc4break/internal/dataset"
)

// TestResumeMatchesUninterruptedRun pins checkpointed generation: a run
// stopped after two chunks and resumed under a different -checkpoint-every
// and -workers writes the same bytes as one uninterrupted run, because a
// chunk is just the next key range of the lane.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	chunked := filepath.Join(dir, "chunked.gob")
	whole := filepath.Join(dir, "whole.gob")
	gen := []string{"-kind", "digraph", "-positions", "4", "-seed", "9"}
	run(t, bin, 0, append(gen, "-keys", "2000", "-checkpoint-every", "1000", "-workers", "1", "-out", chunked)...)
	run(t, bin, 0, append(gen, "-keys", "5000", "-checkpoint-every", "700", "-workers", "3", "-out", chunked, "-resume")...)
	run(t, bin, 0, append(gen, "-keys", "5000", "-workers", "2", "-out", whole)...)
	a, err := os.ReadFile(chunked)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed checkpointed run differs from the uninterrupted run")
	}
}

// TestShardReadsExactlyItsLane pins -lanebase: a shard holds keys 0..N-1 of
// its own lane whatever -workers is, so shards on lanes 0 and 2 share no key
// and their merge counts every key once.
func TestShardReadsExactlyItsLane(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	var paths []string
	for _, lane := range []uint64{0, 2} {
		p := filepath.Join(dir, "shard"+strconv.FormatUint(lane, 10)+".gob")
		run(t, bin, 0, "-positions", "8", "-keys", "4096", "-workers", "4",
			"-lanebase", strconv.FormatUint(lane, 10), "-out", p)
		got, _, err := dataset.LoadFileMeta(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dataset.Run(dataset.Config{Keys: 4096, Lane: lane},
			func() dataset.Observer { return dataset.NewSingleByteCounts(8) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-lanebase %d shard differs from dataset.Run on lane %d", lane, lane)
		}
		paths = append(paths, p)
	}
	merged := filepath.Join(dir, "all.gob")
	run(t, bin, 0, "-merge", strings.Join(paths, ","), "-out", merged)
	obs, _, err := dataset.LoadFileMeta(merged)
	if err != nil {
		t.Fatal(err)
	}
	if n := dataset.KeysObserved(obs); n != 8192 {
		t.Fatalf("merged dataset holds %d keys, want 8192", n)
	}
}

// TestOldLayoutRefused pins the refusal of datasets written under the
// per-worker key layout, whose metadata pins -workers and -checkpoint-every:
// their keys cannot be continued or told apart from a lane's, so -resume
// and -merge ask for regeneration.
func TestOldLayoutRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	obs, err := dataset.Run(dataset.Config{Keys: 64}, func() dataset.Observer { return dataset.NewSingleByteCounts(8) })
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.gob")
	meta := map[string]uint64{"seed": 0, "lanebase": 0, "checkpoint-every": 32, "workers": 2}
	if err := dataset.SaveFileMeta(old, obs, meta); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.gob")
	run(t, bin, 0, "-positions", "8", "-keys", "64", "-lanebase", "1", "-out", fresh)

	for name, args := range map[string][]string{
		"resume": {"-positions", "8", "-keys", "128", "-checkpoint-every", "32", "-out", old, "-resume"},
		"merge":  {"-merge", fresh + "," + old, "-out", filepath.Join(dir, "all.gob")},
	} {
		if out := run(t, bin, 1, args...); !strings.Contains(out, "regenerate") {
			t.Errorf("%s: want a regenerate refusal, got:\n%s", name, out)
		}
	}
}

// TestMergeRefusesOverlap pins merge lineage: a merged file records the
// (seed, lanebase) of every source, so merging it with one of its own
// shards — or resuming it — exits 1 instead of double-counting keys, while
// a disjoint shard still merges on top of it.
func TestMergeRefusesOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	shard := func(lane string) string {
		p := filepath.Join(dir, "lane"+lane+".gob")
		run(t, bin, 0, "-positions", "4", "-keys", "1024", "-lanebase", lane, "-out", p)
		return p
	}
	a, b, c := shard("0"), shard("1"), shard("2")
	ab := filepath.Join(dir, "ab.gob")
	run(t, bin, 0, "-merge", a+","+b, "-out", ab)

	if out := run(t, bin, 1, "-merge", ab+","+a, "-out", filepath.Join(dir, "bad.gob")); !strings.Contains(out, "double-counted") {
		t.Errorf("merge of a file with its own shard: want a double-count refusal, got:\n%s", out)
	}
	abc := filepath.Join(dir, "abc.gob")
	run(t, bin, 0, "-merge", ab+","+c, "-out", abc)
	if out := run(t, bin, 1, "-merge", b+","+abc, "-out", filepath.Join(dir, "bad.gob")); !strings.Contains(out, "double-counted") {
		t.Errorf("merge of a shard with a merge holding it: want a double-count refusal, got:\n%s", out)
	}
	obs, _, err := dataset.LoadFileMeta(abc)
	if err != nil {
		t.Fatal(err)
	}
	if n := dataset.KeysObserved(obs); n != 3072 {
		t.Fatalf("three-shard merge holds %d keys, want 3072", n)
	}
	run(t, bin, 1, "-positions", "4", "-keys", "4096", "-checkpoint-every", "1024", "-out", ab, "-resume")
}

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "biasgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run runs the binary, requires exit code wantExit, and returns its
// combined output.
func run(t *testing.T, bin string, wantExit int, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != wantExit {
		t.Fatalf("%v: exit %d, want %d\n%s", args, code, wantExit, out)
	}
	return string(out)
}
