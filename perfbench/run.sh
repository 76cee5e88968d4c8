#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments.  Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload mesh-e5 --seed 1 --seconds 30 --trace 0
#
# The build writes only under .bench_build/ in the checkout (binary, Go build
# cache, temporary files, Go tool state); per-run reports and span files go
# to .bench_out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
(cd "$root/perfbench" &&
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
