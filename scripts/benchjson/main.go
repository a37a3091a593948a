// Command benchjson converts `go test -bench` text output on stdin to
// machine-readable JSON on stdout, so CI bench runs accumulate as diffable
// perf-trajectory files:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x ./... | tee bench.txt
//	go run ./scripts/benchjson < bench.txt > bench.json
//
// -min collapses `-count N` repeats to the fastest run per benchmark — the
// statistic the keystream perf gate diffs. Input containing no benchmark
// lines at all is an error (exit 1), never an empty JSON document: a bench
// step whose output vanished is a broken bench step.
package main

import (
	"flag"
	"fmt"
	"os"

	"rc4break/internal/cliutil"
)

func main() {
	minRuns := flag.Bool("min", false, "collapse -count N repeats to the minimum ns/op per benchmark")
	flag.Parse()
	if err := cliutil.WriteBenchJSON(os.Stdin, os.Stdout, *minRuns); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
