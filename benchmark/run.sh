#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the
# build and the run write (Go build cache, binaries, server logs, the
# trace file) lands under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/psi-benchmark" .)
exec "$out/psi-benchmark" -root "$root" "$@"
