#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload edge-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces,
# temporary checkpoints) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/kdesel-bench" .)
exec "$out/kdesel-bench" "$@"
