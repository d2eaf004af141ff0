#!/usr/bin/env bash
# Builds and runs sim_perf, the repository's performance benchmark.
#
#   bench/perf/run.sh                  every workload, end-to-end metrics
#   bench/perf/run.sh --trace          every workload, per-layer metrics and
#                                      Chrome traces in build/sim-perf/trace/
#   bench/perf/run.sh --quick          one pass and one cold + warm sweep per
#                                      workload: all checks, no timing
#   bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                      one workload in this process; S must be
#                                      BENCHMARK.json's run_seconds
#   bench/perf/run.sh compare A.json B.json
#
# The project is configured into build/sim-perf with the default build type
# (RelWithDebInfo, so SMT_CHECK/SMT_DCHECK match the tier-1 build), and
# bench/perf/targets.cmake adds the sim_perf target through
# CMAKE_PROJECT_INCLUDE. Build output goes to build/sim-perf/*.log.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root is not a source checkout of the simulator" >&2
  exit 2
fi

build=build/sim-perf
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_PROJECT_INCLUDE="$root/bench/perf/targets.cmake" \
      >"$build/configure.log" 2>&1; then
    tail -n 40 "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 2
  fi
fi
if ! cmake --build "$build" --target sim_perf smt_sweep -j "$(nproc)" \
    >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  exit 2
fi

# A bare --trace means --trace 1.
args=()
while (($#)); do
  if [[ "$1" == --trace && ! "${2:-}" =~ ^[01]$ ]]; then
    args+=(--trace 1)
  else
    args+=("$1")
  fi
  shift
done
exec "$build/sim_perf" "${args[@]}"
