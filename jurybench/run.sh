#!/usr/bin/env bash
# Builds juryd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash jurybench/run.sh --workload live-benign --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and run reports go to .bench_build/
# in the repository root, so nothing is written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"

# Without the program's sources there is nothing to measure: fail before
# starting any process.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/juryd" ]]; then
	echo "jurybench: $root holds no JURY sources (go.mod, cmd/juryd)" >&2
	exit 1
fi

mkdir -p "$out/bin" "$out/home/.config/go/telemetry" "$out/tmp"

# Keep the toolchain's cache, module, config and scratch directories
# inside the checkout, and never reach for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

# Turn Go telemetry off in that config directory. Otherwise the first go
# command run under a fresh HOME forks a detached telemetry process that
# outlives this script.
echo off >"$out/home/.config/go/telemetry/mode"

(cd "$root" && go build -o "$out/bin/juryd" ./cmd/juryd)
(cd "$root/jurybench" && go build -o "$out/bin/jurybench" .)

cd "$root"
exec "$out/bin/jurybench" -juryd "$out/bin/juryd" -out "$out/results" "$@"
