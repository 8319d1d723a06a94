#!/bin/bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload write_small_raid5 --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run write stays in .bench_build/ of the current
# directory: the go build and module caches, the go command's own config and
# temp files, the binary, and the benchmark's temp directories. The binary
# replaces this shell (exec), so no process outlives the run; never `go run`.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
bin="$build/csar-benchmark"

# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$here/.." -name .bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(
		cd "$here"
		export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
		export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
		go build -o "$bin" .
	)
fi
exec "$bin" "$@"
