#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cookie-solo --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# files, the service-mix store) stays under .bench_build in the repository
# root, and the go command is kept offline.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
