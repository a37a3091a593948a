// Package cliutil holds the small helpers the attack CLIs share, so the
// three drivers parse their common flags identically and run the same
// checkpointed-capture loop.
package cliutil

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// SplitList parses a comma-separated flag value, trimming whitespace and
// dropping empty entries (a trailing comma is not an error).
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ExpandGlobs parses a comma-separated flag value of capture paths and
// globs into the ordered file list a trace ingest walks. Glob entries
// expand sorted (filepath.Glob order), so shard files named in sequence
// concatenate into one logical stream; an entry that matches nothing is an
// error — a silently empty shard would read as "covered" when it was not.
func ExpandGlobs(list string) ([]string, error) {
	var out []string
	for _, entry := range SplitList(list) {
		if !strings.ContainsAny(entry, "*?[") {
			out = append(out, entry)
			continue
		}
		matches, err := filepath.Glob(entry)
		if err != nil {
			return nil, fmt.Errorf("glob %q: %w", entry, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("glob %q matched no files", entry)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	if len(out) == 0 {
		return nil, errors.New("no capture files named")
	}
	return out, nil
}

// TraceStreamSeed digests an ordered capture file list into the stream
// seed of a trace-fed shard's snapshot.StreamInfo: two shards ingested
// from the same file set share an identity (so -merge rejects the
// double-count), different sets get distinct ones. FNV-1a over the joined
// paths — an accident check, like the config fingerprints.
func TraceStreamSeed(paths []string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, p := range paths {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * prime64
		}
		h = (h ^ 0) * prime64 // path separator
	}
	return int64(h)
}

// ErrInterrupted is returned by CheckpointLoop.Run after a SIGINT/SIGTERM
// flush; drivers exit 130 on it.
var ErrInterrupted = errors.New("cliutil: capture interrupted")

// OnlineCheckpoint returns the Checkpoint hook the online attack drivers
// share: write the snapshot after every unsuccessful decode round (no-op
// when path is empty) and report it in the drivers' indented style.
func OnlineCheckpoint(path, unit string, save func(string) error, progress func() uint64) func() error {
	return func() error {
		if path == "" {
			return nil
		}
		if err := save(path); err != nil {
			return err
		}
		fmt.Printf("      checkpoint: %d %s -> %s\n", progress(), unit, path)
		return nil
	}
}

// IndentLogf prints a runtime progress line in the drivers' indented style
// — the online.Config Logf both attack CLIs use.
func IndentLogf(format string, args ...interface{}) {
	fmt.Printf("      "+format+"\n", args...)
}

// ContinuationSeed derives the RNG seed for a model-mode top-up that
// continues from observed records: the first chunk of a run uses the shard
// seed itself, and every later chunk derives a distinct stream from the
// continuation point so a resumed shard never replays noise draws already
// folded into its snapshot. Every model-mode driver (offline resume, the
// online runtime's cadence chunks, the experiments) must use this exact
// derivation — kill-and-resume determinism depends on it being
// bit-identical everywhere.
func ContinuationSeed(seed int64, observed uint64) int64 {
	if observed == 0 {
		return seed
	}
	return int64(uint64(seed) ^ observed*0x9E3779B97F4A7C15)
}

// LaneSeed derives the RNG seed for fleet capture lane `lane` of a run's
// base seed: every lane draws from its own stream, distinct from the base
// seed itself and from every other lane, and both the coordinator's
// single-process equivalent and any worker that captures the lane derive
// the identical seed — lane evidence is a pure function of (base seed,
// lane), which is what makes a re-leased lane's recapture byte-identical.
func LaneSeed(seed int64, lane uint64) int64 {
	return ContinuationSeed(seed, lane+1)
}

// checkpointStep bounds one CheckpointLoop advance: small enough that a
// signal is answered within a few tens of milliseconds of capture, large
// enough that the batched fold behind AdvanceTo runs on full batches.
const checkpointStep = 4096

// CheckpointLoop is the exact-mode capture loop the attack CLIs drive:
// AdvanceTo moves the capture to Target in bounded chunks that stop at
// every Every-th observation past the start, where Save runs (when Path is
// set). SIGINT/SIGTERM flushes a final Save and returns ErrInterrupted, so
// a kill loses at most one checkpoint interval.
type CheckpointLoop struct {
	Target    uint64
	Path      string        // checkpoint file; "" disables writes
	Every     uint64        // observations between periodic writes
	Unit      string        // progress unit for messages ("records", "frames")
	Save      func() error  // atomically writes the snapshot to Path
	Progress  func() uint64 // observations captured so far
	AdvanceTo func(target uint64) error
}

// Run drives the loop. Status lines match the drivers' indented style.
func (l CheckpointLoop) Run() error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	periodic := l.Path != "" && l.Every > 0
	at := l.Progress()
	nextWrite := at + l.Every
	for at < l.Target {
		select {
		case <-sig:
			if l.Path == "" {
				fmt.Printf("      interrupted at %d %s (no -checkpoint set; progress lost)\n", l.Progress(), l.Unit)
				return ErrInterrupted
			}
			if err := l.Save(); err != nil {
				return err
			}
			fmt.Printf("      interrupted: checkpoint flushed at %d %s -> %s (rerun with -resume %s)\n",
				l.Progress(), l.Unit, l.Path, l.Path)
			return ErrInterrupted
		default:
		}
		at = min(l.Target, at+checkpointStep)
		if periodic {
			at = min(at, nextWrite)
		}
		if err := l.AdvanceTo(at); err != nil {
			return err
		}
		if periodic && at == nextWrite {
			if err := l.Save(); err != nil {
				return err
			}
			fmt.Printf("      checkpoint: %d %s -> %s\n", l.Progress(), l.Unit, l.Path)
			nextWrite += l.Every
		}
	}
	return nil
}
