#!/usr/bin/env bash
# Builds the binaries under test and the benchmark driver from source, then
# runs the driver with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, binaries, daemon logs, snapshots,
# traces) stays under .bench_build/ in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ksetserved || ! -d internal ]]; then
  echo "perfbench: run from the repository root: the sources under test (go.mod, cmd/, internal/) are missing" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/ksetexperiments ./cmd/ksetserved ./cmd/ksetsweepd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
