#!/usr/bin/env bash
# Builds iokserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload classify --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -runs 10
#
# Everything it writes stays under .bench_build/ at the root of the
# checkout: the Go build cache, the binaries, per-run data directories
# (removed when a run ends) and the traced runs' spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/iokserve" ./cmd/iokserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
flags=(-server-bin "$out/bin/iokserve" -workdir "$out/runs")
if [ "${1:-}" != steady ]; then
	flags+=(-spans-dir "$out/spans")
fi
exec "$out/bin/perfbench" "$@" "${flags[@]}"
