#!/usr/bin/env bash
# Builds the round benchmark from source and runs it with the given flags:
#
#   bash roundbench/run.sh --workload pkd-inproc --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, traces) stays under .bench_build/ in that directory. When the
# module it measures is absent, the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd "$root/roundbench" && go build -o "$out/roundbench" .) >&2
exec "$out/roundbench" -out "$out/traces" "$@"
