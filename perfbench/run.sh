#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload agg-fresh --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL state directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -state-root "$out/state" "$@"
