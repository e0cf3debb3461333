#!/usr/bin/env bash
# Build the end-to-end benchmark (Release, into build-e2e/ at the repository
# root) and run it.
#
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--smoke] [--results DIR]
#
#   --workload W   cold_mix, hot_mix, exact_sweep or sim_fct (default: all four)
#   --seed S       input seed (default 1)
#   --seconds N    measured seconds per workload (default 15)
#   --trace        per-layer run: untraced + traced measurement, in-process
#                  replay, trace_<w>.jsonl and layers_<w>.json in build-e2e/work
#   --smoke        the e2e unit tests, then every workload at 1/20 scale
#   --results DIR  append each run's JSON result line to DIR/<workload>.jsonl
#                  (compare two such directories with bench/e2e/compare.py)
#
# Each run prints a report whose last line is one JSON object; the exit
# status is non-zero when any run failed its correctness checks.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

workloads=(cold_mix hot_mix exact_sweep sim_fct)
seed=1
seconds=15
trace=0
smoke=0
results=""
usage() {
  sed -n '2,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; workloads=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || usage; seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --results) [[ $# -ge 2 ]] || usage; results="$2"; shift 2 ;;
    *) usage ;;
  esac
done

if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/examples/closfair_serve.cpp" ]]; then
  echo "run.sh: closfair sources not found under $root" >&2
  exit 2
fi

mkdir -p "$build"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } > "$build/build.log" 2>&1 ||
   ! cmake --build "$build" -j 4 >> "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

status=0
if [[ "$smoke" == 1 ]]; then
  (cd "$build" && ctest --output-on-failure) || status=1
  seconds="$(awk -v s="$seconds" 'BEGIN { print s / 20 }')"
fi
for workload in "${workloads[@]}"; do
  set +e
  "$build/closfair_bench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --workdir "$build/work" | tee "$build/last_run.txt"
  rc="${PIPESTATUS[0]}"
  set -e
  [[ "$rc" == 0 ]] || status=1
  if [[ -n "$results" ]] && tail -n 1 "$build/last_run.txt" | grep -q '^{'; then
    mkdir -p "$results"
    tail -n 1 "$build/last_run.txt" >> "$results/$workload.jsonl"
  fi
done
exit "$status"
