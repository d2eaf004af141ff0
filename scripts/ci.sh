#!/usr/bin/env bash
# Tier-1 CI: configure (warnings as errors), build, run the full test
# suite (which includes the bench-report and bench-trace smoke tests),
# then double-check that a bench binary emits parseable RunReport JSON
# artifacts — once plain, once with telemetry enabled so the reports carry
# the timeseries section and a Perfetto-loadable trace lands next to them.
#
# The sanitizer matrix rides behind the main job (skip with SMT_CI_FAST=1):
#   asan  ASan+UBSan build, full test suite;
#   tsan  TSan build, host-parallelism surfaces only (host_test,
#         metrics_test, and a metrics+trace sweep) — guest simulation is
#         single-threaded; the job pool and metrics registry are what
#         TSan is for.
#
# The tail gates the host observability artifacts: a --metrics/--trace
# sweep must validate against its index, and smt_history must both
# accept a fresh deterministic run (vs the committed bench/history
# baselines) and flag a perturbed one. It also proves the result
# cache's determinism contract on the full registry: two sweeps against
# one store must produce a 100%-hit warm run whose index is
# byte-identical modulo wall-clock fields, and a --cache-verify sample
# must re-simulate hits against the stored bytes.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every scratch directory goes on one list that a single EXIT trap removes.
cleanup_dirs=()
trap 'rm -rf ${cleanup_dirs[@]+"${cleanup_dirs[@]}"}' EXIT
# make_temp_dir VAR: creates a scratch directory, registers it for cleanup
# and stores its path in VAR (no command substitution, so the
# registration survives).
make_temp_dir() {
  local dir
  dir=$(mktemp -d)
  cleanup_dirs+=("$dir")
  printf -v "$1" '%s' "$dir"
}

cmake -B build -S . -DSMT_WERROR=ON
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Static front end of the guest-program verifier over the full registry
# (also exercised by the lint_smoke ctest; run explicitly so a CI log
# always shows the error/warning counts), plus the structured JSON
# report validated by check_reports, the seeded-violation selftest, and
# clang-tidy when available.
./build/tools/smt_lint
make_temp_dir lint_dir
./build/tools/smt_lint --format=json > "$lint_dir/lint.json"
grep -q '"schema":"smt-lint-report/1"' "$lint_dir/lint.json"
grep -q '"errors":0' "$lint_dir/lint.json"
./build/tools/check_reports --lint-report "$lint_dir/lint.json"
# Every seeded violation — one per lint rule — must be caught.
./build/tools/smt_lint --selftest > "$lint_dir/selftest.txt"
for rule in uninit-read missing-pause lock-pairing sync-region-write \
    out-of-extent range-out-of-extent unreachable fall-off-end \
    barrier-mismatch lock-order; do
  grep -q "caught $rule" "$lint_dir/selftest.txt"
done
# The sweep-side pre-run gate: a registry program broken under the
# selftest env knob must be indexed as lint_failed without ever running.
if SMT_SELFTEST_LINT_BREAK=1 ./build/tools/smt_sweep --quiet --lint \
    --out "$lint_dir/sweep" --metrics "$lint_dir/sweep/metrics.json" \
    selftest.lint mm.serial.n64 2> /dev/null; then
  echo "smt_sweep --lint ignored a seeded lint violation" >&2
  exit 1
fi
grep -q '"outcome":"lint_failed"' "$lint_dir/sweep/sweep_index.json"
./build/tools/check_reports "$lint_dir/sweep/reports" \
  --metrics "$lint_dir/sweep/metrics.json" \
  --index "$lint_dir/sweep/sweep_index.json"
if command -v clang-tidy > /dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet \
    $(find src/host src/analysis -name '*.cc') 2> /dev/null
  # The analysis layer additionally holds to the performance and
  # const-correctness profiles (warnings promoted to errors).
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet \
    -checks='performance-*,misc-const-correctness' \
    -warnings-as-errors='performance-*,misc-const-correctness' \
    $(find src/analysis -name '*.cc') 2> /dev/null
else
  echo "ci: clang-tidy not installed, skipping tidy pass" >&2
fi

if [[ "${SMT_CI_FAST:-0}" != "1" ]]; then
  cmake -B build-asan -S . -DSMT_WERROR=ON -DSMT_SANITIZE=asan
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

  cmake -B build-tsan -S . -DSMT_WERROR=ON -DSMT_SANITIZE=tsan
  cmake --build build-tsan -j "$(nproc)" \
    --target host_test metrics_test smt_sweep check_reports
  ./build-tsan/tests/host_test
  ./build-tsan/tests/metrics_test
  make_temp_dir tsan_sweep_dir
  # Metrics + tracing on under TSan: the registry and the on_attempt
  # trace collection are exactly the cross-thread surfaces it checks.
  ./build-tsan/tools/smt_sweep --jobs 4 --out "$tsan_sweep_dir" \
    --metrics "$tsan_sweep_dir/metrics.json" \
    --trace "$tsan_sweep_dir/trace/sweep.trace.json" \
    mm.serial.n64 bt.serial cg.serial > /dev/null
  ./build-tsan/tools/check_reports "$tsan_sweep_dir/reports" \
    "$tsan_sweep_dir/trace" \
    --metrics "$tsan_sweep_dir/metrics.json" \
    --index "$tsan_sweep_dir/sweep_index.json"
fi

# Belt-and-braces: drive the cheapest bench with reporting on and validate.
make_temp_dir report_dir
make_temp_dir trace_dir
SMT_BENCH_REPORT_DIR="$report_dir" ./build/bench/ablation_sync > /dev/null
./build/tools/check_reports "$report_dir"

# Same bench with tracing on: schema /2 reports + Chrome trace-event files.
rm -rf "$report_dir" && mkdir -p "$report_dir"
SMT_BENCH_REPORT_DIR="$report_dir" SMT_BENCH_TRACE_DIR="$trace_dir" \
  ./build/bench/ablation_sync > /dev/null
./build/tools/check_reports "$report_dir" "$trace_dir"

# Profiled run of the fig3 matmul bench: schema /3 reports whose per-PC
# attributions must validate, annotate cleanly, and gate regressions.
make_temp_dir profile_dir
SMT_BENCH_REPORT_DIR="$profile_dir" SMT_BENCH_PROFILE=1 \
  ./build/bench/fig3_matmul > /dev/null
./build/tools/check_reports "$profile_dir"

# The annotated disassembly must surface ALU0 traffic (the paper's
# mask-instruction serialization signature of the blocked-layout MM).
mm_report="$profile_dir/fig3_matmul.mm.serial.n64.json"
./build/tools/smt_annotate "$mm_report" --cpu 0 > "$profile_dir/annotated.txt"
grep -q "alu0" "$profile_dir/annotated.txt"

# report_diff is the regression gate: a report diffed against itself must
# pass, and a perturbed counter must trip a nonzero exit.
./build/tools/report_diff "$mm_report" "$mm_report"
sed -E 's/"uops_retired":[0-9]+/"uops_retired":1/' "$mm_report" \
  > "$profile_dir/perturbed.json"
if ./build/tools/report_diff "$mm_report" "$profile_dir/perturbed.json"; then
  echo "report_diff failed to flag a perturbed counter" >&2
  exit 1
fi

# Sweep orchestrator: a small manifest with an injected deadlock job must
# exit nonzero yet still deliver a complete index and valid reports for
# every job — failures are data, not process aborts.
make_temp_dir sweep_dir
if ./build/tools/smt_sweep --jobs 2 --out "$sweep_dir" \
    mm.serial.n64 selftest.deadlock bt.serial 2> "$sweep_dir/stderr.txt"; then
  echo "smt_sweep ignored an injected deadlock job" >&2
  exit 1
fi
grep -q "selftest.deadlock" "$sweep_dir/stderr.txt"
grep -q '"schema":"smt-sweep-index/1"' "$sweep_dir/sweep_index.json"
grep -q '"outcome":"deadlock"' "$sweep_dir/sweep_index.json"
test "$(ls "$sweep_dir"/reports/*.json | wc -l)" -eq 3
./build/tools/check_reports "$sweep_dir/reports"

# Host observability: the same orchestrator with --metrics/--trace must
# write a smt-sweep-metrics/1 snapshot that cross-checks against the
# sweep index and a Perfetto-loadable Chrome trace of the workers.
make_temp_dir obs_dir
make_temp_dir hist_dir
./build/tools/smt_sweep --jobs 2 --out "$obs_dir" \
  --metrics "$obs_dir/metrics.json" \
  --trace "$obs_dir/trace/sweep.trace.json" \
  mm.serial.n64 bt.serial cg.serial > /dev/null
grep -q '"schema":"smt-sweep-metrics/1"' "$obs_dir/metrics.json"
./build/tools/check_reports "$obs_dir/reports" "$obs_dir/trace" \
  --metrics "$obs_dir/metrics.json" --index "$obs_dir/sweep_index.json"

# Benchmark history: ingest + self-compare must pass through a fresh
# store, the committed bench/history baselines must accept the fresh
# deterministic run, and a perturbed report must trip the gate nonzero.
./build/tools/smt_history ingest --sweep "$obs_dir" --history "$hist_dir" \
  > /dev/null
./build/tools/smt_history check --sweep "$obs_dir" --history "$hist_dir"
./build/tools/smt_history check --sweep "$obs_dir" --history bench/history
cp -r "$obs_dir" "$hist_dir/perturbed"
sed -E -i 's/"cycles":[0-9]+/"cycles":1/' \
  "$hist_dir/perturbed/reports/mm.serial.n64.json"
if ./build/tools/smt_history check --sweep "$hist_dir/perturbed" \
    --history "$hist_dir" > /dev/null; then
  echo "smt_history failed to flag a perturbed run" >&2
  exit 1
fi

# Interference attribution: a /4 report whose self+sibling sums must
# reproduce the stall counters bit-exactly (validated by check_reports),
# and report_diff must accept a self-diff of the interference section.
make_temp_dir inter_dir
SMT_BENCH_REPORT_DIR="$inter_dir" SMT_BENCH_INTERFERENCE=1 \
  ./build/bench/ablation_sync > /dev/null
grep -q '"schema":"smt-run-report/4"' "$inter_dir"/*.json
./build/tools/check_reports "$inter_dir"
inter_report=$(ls "$inter_dir"/*.json | head -1)
./build/tools/report_diff "$inter_report" "$inter_report"

# Pipeline lifetime traces: a pipeview'd fig3 matmul run must drop a
# non-empty, window-bounded Kanata file beside each report (the C/C=
# cycle advances must sum to no more than the configured window).
make_temp_dir pview_dir
SMT_BENCH_REPORT_DIR="$pview_dir" SMT_BENCH_PIPEVIEW=1 \
  SMT_BENCH_PIPEVIEW_WINDOW=0:20000 \
  ./build/bench/fig3_matmul > /dev/null
mm_kanata="$pview_dir/fig3_matmul.mm.serial.n64.kanata"
head -1 "$mm_kanata" | grep -q "Kanata"
test "$(wc -l < "$mm_kanata")" -gt 10
awk -F'\t' '/^C=/{start=$2} /^C\t/{adv+=$2}
  END{exit (start+adv <= 20000) ? 0 : 1}' "$mm_kanata"

# Cache determinism gate: the full default registry swept twice against
# one content-addressed store. The warm run must hit on every job
# ("cached":false never appears), its index must be byte-identical to
# the cold run's modulo wall-clock fields, and a --cache-verify sample
# must re-simulate hits and confirm the stored bytes. This is the
# end-to-end proof of the determinism contract the cache rests on: a
# key collision, a nondeterministic kernel, or host state leaking into
# reports would all surface here.
make_temp_dir cache_dir
./build/tools/smt_sweep --quiet --out "$cache_dir/cold" \
  --cache "$cache_dir/store" \
  --metrics "$cache_dir/cold/metrics.json" > /dev/null
./build/tools/smt_sweep --quiet --out "$cache_dir/warm" \
  --cache "$cache_dir/store" \
  --metrics "$cache_dir/warm/metrics.json" > /dev/null
if grep -q '"cached":false' "$cache_dir/warm/sweep_index.json"; then
  echo "warm registry sweep missed the cache" >&2
  exit 1
fi
strip_wallclock() {
  sed -E -e 's/"wall_ms":[0-9.e+-]+/"wall_ms":0/g' \
    -e 's/"cached":(true|false)/"cached":x/g' "$1"
}
if ! cmp -s <(strip_wallclock "$cache_dir/cold/sweep_index.json") \
    <(strip_wallclock "$cache_dir/warm/sweep_index.json"); then
  echo "warm sweep index differs from cold beyond wall-clock fields" >&2
  exit 1
fi
for run in cold warm; do
  ./build/tools/check_reports "$cache_dir/$run/reports" \
    --metrics "$cache_dir/$run/metrics.json" \
    --index "$cache_dir/$run/sweep_index.json"
done
./build/tools/smt_sweep --quiet --out "$cache_dir/audit" \
  --cache "$cache_dir/store" --cache-verify=3 \
  --metrics "$cache_dir/audit/metrics.json" > /dev/null
grep -q '"cache.verified":3' "$cache_dir/audit/metrics.json"
grep -q '"cache.verify_failed":0' "$cache_dir/audit/metrics.json"

# Post-mortem flight recorder: an injected deadlock must leave a core
# dump the smt_explain diagnoser renders into an explanation naming the
# actual death cycle and the lost wake-up.
make_temp_dir explain_dir
./build/tools/smt_sweep --quiet --out "$explain_dir" selftest.deadlock \
  || true
dump="$explain_dir/dumps/selftest.deadlock.dump.json"
./build/tools/check_reports "$explain_dir/reports" --dumps "$explain_dir/dumps"
death_cycle=$(grep -o '"cycle":[0-9]*' "$dump" | head -1 | cut -d: -f2)
./build/tools/smt_explain "$dump" > "$explain_dir/diagnosis.txt"
grep -q "deadlock at cycle $death_cycle" "$explain_dir/diagnosis.txt"
grep -q "awaiting IPI" "$explain_dir/diagnosis.txt"
