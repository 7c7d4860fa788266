#!/usr/bin/env bash
# Builds the FVEval benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash bench/run.sh --workload design2sva --seed 1 --seconds 22 --trace 0
#   bash bench/run.sh --seed 1            # every workload, both modes
#
# The binary, the Go build cache, Go's temporary files and the go
# command's own configuration and telemetry all live under .bench_build
# in the working directory, and the toolchain is kept offline: the
# benchmark depends only on the repository itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/fvbench" .)
exec "$out/fvbench" "$@"
