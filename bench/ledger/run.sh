#!/usr/bin/env bash
# run.sh — build and drive perf_ledger. Run from anywhere; paths resolve
# against the repository root, and everything is built into build/ledger.
#
#   run.sh bench ARGS...   build, then run `perf_ledger ARGS` from the root
#                          (the command BENCHMARK.json names)
#   run.sh build           build perf_ledger and ledger_selftest only
#   run.sh selftest        the ledger's own statistics and JSON tests
#   run.sh smoke           every workload for about 1 s, all checks on
#   run.sh check [N]       N (>= 3, default 3) runs of every workload plus one
#                          traced run each; medians against baseline.json with
#                          the bounds in BENCHMARK.json
#   run.sh baseline [N]    the same runs, written to baseline.json instead
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/ledger"
workloads=(hil_full sweep_ideal fleet_mixed ingest_replay)

build() {
  if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "run.sh: platform sources not found under $root/src" >&2
    exit 2
  fi
  mkdir -p "$build"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  (( jobs > 4 )) && jobs=4
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    local gen=()
    command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)
    if ! cmake -S "$here" -B "$build" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release \
        >"$build/configure.log" 2>&1; then
      tail -n 30 "$build/configure.log" >&2
      rm -f "$build/CMakeCache.txt"
      exit 2
    fi
  fi
  if ! cmake --build "$build" -j "$jobs" >"$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    exit 2
  fi
}

# N runs of every workload (interleaved, seeds 2026…) plus one traced run
# each, as JSON files in $1. Sets run_failed when a run exits non-zero.
run_failed=0
collect() {
  local out="$1" n="$2" i w
  rm -rf "$out"
  mkdir -p "$out"
  for ((i = 0; i < n; i++)); do
    for w in "${workloads[@]}"; do
      echo "run.sh: $w seed $((2026 + i))" >&2
      "$build/perf_ledger" --workload "$w" --seed $((2026 + i)) \
        --json "$out/$w-$i.json" >"$out/$w-$i.log" || {
        echo "run.sh: $w run $i FAILED (see $out/$w-$i.log)" >&2
        run_failed=1
      }
    done
  done
  for w in "${workloads[@]}"; do
    echo "run.sh: $w traced" >&2
    "$build/perf_ledger" --workload "$w" --trace 1 --json "$out/$w-traced.json" \
      --trace-out "$out/traces/$w.json" >"$out/$w-traced.log" || {
      echo "run.sh: $w traced run FAILED (see $out/$w-traced.log)" >&2
      run_failed=1
    }
  done
}

cmd="${1:-}"
shift || true
case "$cmd" in
  bench)
    build
    cd "$root"
    exec "$build/perf_ledger" "$@"
    ;;
  build)
    build
    ;;
  selftest)
    build
    "$build/ledger_selftest"
    ;;
  smoke)
    build
    cd "$root"
    for w in "${workloads[@]}"; do
      "$build/perf_ledger" --workload "$w" --smoke | tail -n 1
    done
    ;;
  check | baseline)
    n="${1:-3}"
    if (( n < 3 )); then
      echo "run.sh: $cmd needs at least 3 runs per workload" >&2
      exit 2
    fi
    build
    cd "$root"
    collect "$build/$cmd" "$n"
    if (( run_failed )); then
      exit 1
    elif [[ "$cmd" == baseline ]]; then
      "$build/perf_ledger" --check --write-baseline "$here/baseline.json" "$build/$cmd"/*.json
    else
      "$build/perf_ledger" --check --bounds "$root/BENCHMARK.json" \
        --baseline "$here/baseline.json" "$build/$cmd"/*.json
    fi
    ;;
  *)
    sed -n '2,14p' "$0" >&2
    exit 2
    ;;
esac
