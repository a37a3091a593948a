// Package cliutil holds the small helpers the attack CLIs and daemons
// share, so the drivers parse their common flags identically, derive the
// same model-mode seeds and serve HTTP under the same timeouts.
package cliutil

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// HTTPServer wraps a daemon's handler (attackd's job API, fleetd's -http
// metrics and debug surface) in a server whose header and idle timeouts
// bound slow or parked clients. There is no write timeout: attackd's
// /api/v1/jobs/{id}/stream stays open for a job's lifetime.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

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

// IndentLogf prints a runtime progress line in the drivers' indented style
// — the online.Config Logf both attack CLIs use.
func IndentLogf(format string, args ...interface{}) {
	fmt.Printf("      "+format+"\n", args...)
}

// ContinuationSeed derives the RNG seed for a model-mode top-up that
// continues from observed records: the first granule of a run uses the
// shard seed itself, and every later granule derives a distinct stream from
// the continuation point so a resumed shard never replays noise draws
// already folded into its snapshot. job.Runtime.CaptureTo draws every
// model-mode granule from it — kill-and-resume determinism depends on this
// derivation being bit-identical everywhere.
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
