#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash fgbench/run.sh --workload device-bound --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache, Go's own state) stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/fgbench" && go build -o "$out/bin/fgbench" .)
cd "$root"
exec "$out/bin/fgbench" "$@"
