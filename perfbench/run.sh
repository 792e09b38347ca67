#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload round-1m --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
