#!/usr/bin/env bash
# Builds the benchmark driver from the sources of the checkout it is run in
# and executes it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload overlap-diff --seed 1 --seconds 18 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
# Every path the go command writes to stays inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
