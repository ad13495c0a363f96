#!/usr/bin/env bash
# Builds the benchmark and the vsmartjoind daemon from the checkout it
# runs in, then runs one workload. Everything it writes (Go build
# cache, binaries, data dirs, span files) goes under .bench_build/ in
# the current directory, which must be the repository root.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go build -o "$out/bin/vsmartjoind" ./cmd/vsmartjoind
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/vsmartjoind" "$@"
