#!/usr/bin/env bash
# Builds the step-time benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload liftedjet-serial --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) and run artifacts (checkpoints,
# span files) go under $CARGO_TARGET_DIR, default .bench_build, inside the
# repository; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/s3d.go" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (the s3d module sources are missing here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/config" "$out/run"

# The go tool keeps its build cache, module cache and telemetry counters
# (under the user config directory) outside the tree by default.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/run" --reference "$root/perfbench/reference.json" --spec "$root/BENCHMARK.json" "$@"
