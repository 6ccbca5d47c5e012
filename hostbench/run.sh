#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash hostbench/run.sh --workload rack-scale --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Build state (Go build cache and the
# binary) stays under .bench_build/ there; the traced run writes its CPU
# profile and spans to .bench_build/trace/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/hostbench/go.mod" ]]; then
	echo "hostbench: run from the repository root (need go.mod and hostbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# Keep everything the go command writes (build cache, temporary work
# directories, its config and telemetry files) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
