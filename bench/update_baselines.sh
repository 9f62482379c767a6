#!/usr/bin/env bash
# Regenerates the committed perf-gate baselines (bench/baselines/): k runs
# of each gated bench, saved as <bench>/run<i>.json. `trace_tools
# perf-gate` compares a fresh BENCH_*.json against the per-metric MEDIAN
# of these runs, so k >= 3 keeps one noisy run from shifting the gate.
#
# Run from the repo root after an intentional perf change:
#
#   cmake --build build -j
#   bench/update_baselines.sh [runs]
#
# then commit the refreshed bench/baselines/ tree. The work metrics
# (iterations, cells, max_chips, ...) are deterministic — if they moved,
# the change is behavioral, not noise; say so in the commit message.
set -euo pipefail

RUNS="${1:-3}"
# Pinned workload scale: the NPB work metrics (instructions, DES events)
# scale with AQUA_NPB_SCALE, so a gate run must use the same value as the
# baselines. 0.2 keeps a full regeneration to a few minutes; the emitted
# npb_scale metric itself is gated, so a mismatched run fails loudly
# instead of comparing apples to oranges.
export AQUA_NPB_SCALE="${AQUA_NPB_SCALE:-0.2}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="$ROOT/bench/baselines"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# bench binary -> BENCH_<name>.json it writes
declare -A BENCHES=(
  ["bench/fig07_lowpower_stack"]="fig07_lowpower"
  ["bench/fig08_highfreq_stack"]="fig08_highfreq"
  ["bench/fig10_npb_6chip_lowpower"]="fig10"
  ["bench/perf_noc"]="perf_noc"
  ["bench/perf_sweep_parallel"]="sweep_parallel"
)

for bin in "${!BENCHES[@]}"; do
  name="${BENCHES[$bin]}"
  [ -x "$BUILD/$bin" ] || { echo "missing $BUILD/$bin — build first" >&2; exit 1; }
  mkdir -p "$OUT/$name"
  for i in $(seq 1 "$RUNS"); do
    echo "[$name] run $i/$RUNS"
    (
      cd "$WORK"
      # Cold, serial-independent runs: no cache reuse, and the shortest
      # microbench budget (tables and counters don't depend on it).
      env -u AQUA_SWEEP_CACHE -u AQUA_FAULT_CELL -u AQUA_TRACE \
          "$BUILD/$bin" --benchmark_min_time=0.01 > /dev/null
    )
    mv "$WORK/BENCH_$name.json" "$OUT/$name/run$i.json"
  done
done

echo "baselines refreshed under $OUT — review and commit"
