#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through. Run it from the repository root, e.g.
#
#   bash e2ebench/run.sh --workload stall-execute --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes live under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" "$@"
