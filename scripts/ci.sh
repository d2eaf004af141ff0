#!/usr/bin/env bash
# Tier-1 CI: configure (warnings as errors), build, run the full test
# suite and the host-performance benchmark's correctness gates, then run
# only the end-to-end assertions no ctest makes: the result cache's audit
# sample, profiled and interference-attributed sweep reports, pipeline
# traces, and every other manifest's sweep against its bench/history
# baselines and golden tables.
#
# The ctest step already covers, among others: the lint, report, trace,
# sweep, cache, explain and figure smoke tests, and the registry_sweep
# fixture, one cold sweep of the default manifest (Figures 3-5) into
# build/registry_sweep/cold that is the only default-manifest sweep of
# this script. Its dependents moved there from this script's tail:
# registry_gates (the exact bench/history gate, check_reports on reports,
# metrics and index, Figures 3-5 against tests/golden/figures.txt, a warm
# all-hit sweep whose index equals the cold one modulo wall-clock fields)
# and StaticPerfRegistry.* (the static CPI bound against every default
# job's measured CPI). The fixture's store is audited here, right after
# ctest, by a --cache-verify=3 sweep from the repo root.
#
# The sanitizer matrix rides behind the main job (skip with SMT_CI_FAST=1):
#   asan  ASan+UBSan build, full test suite;
#   tsan  TSan build, host-parallelism surfaces only (host_test,
#         metrics_test, and a metrics+trace sweep) — guest simulation is
#         single-threaded; the job pool and metrics registry are what
#         TSan is for.
#
# The tail sweeps the ablation, streams, table1, sync, multiprog and full
# manifests once each: every job must match its committed bench/history
# baseline exactly, and every paper table rendered from them (with the
# registry_sweep fixture's index where a table needs default jobs) must
# equal its golden file in tests/golden/. The full manifest (n = 256 and
# the full NAS sizes, about 100 s on 4 cores) is the only check of the
# full-size Figures 3-5.
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

# The result cache's audit, on the registry_sweep fixture's store: a
# --cache-verify=3 sweep must re-simulate three hits and confirm their
# stored bytes. Run from the repo root, smt_sweep claims jobs longest
# first by bench/history, so the three audited are the first three
# claimed, the default manifest's longest by baseline cycles (the CG
# tlp-pfetch+work, tlp-coarse and serial runs); each audited hit logs
# "cache hit verified" with its job name.
make_temp_dir audit_dir
./build/tools/smt_sweep --out "$audit_dir" \
  --cache build/registry_sweep/store --cache-verify=3 \
  --metrics "$audit_dir/metrics.json" > /dev/null 2> "$audit_dir/audit.log"
grep -Eq '"cache.verified":3[,}]' "$audit_dir/metrics.json"
grep -Eq '"cache.verify_failed":0[,}]' "$audit_dir/metrics.json"
audited=$(sed -n 's/.*cache hit verified  *job=//p' "$audit_dir/audit.log" |
  sort | tr '\n' ' ')
if [[ "$audited" != "cg.serial cg.tlp-coarse cg.tlp-pfetch+work " ]]; then
  echo "cache audit sampled: $audited" >&2
  exit 1
fi

# The performance benchmark's checks, without its timing runs (builds
# build/sim-perf): seed-0 counters equal to bench/history, observed
# counters equal to detached ones, in-process report bytes equal to
# smt_sweep's, and every warm sweep an all-hit run. A core change that
# breaks the benchmark fails here rather than in a timing pipeline.
bash bench/perf/run.sh --quick

# Static front end of the guest-program verifier over the full registry,
# run explicitly so a CI log always shows the error/warning counts (the
# lint_smoke ctest gates it, its JSON report through check_reports, the
# seeded-violation selftest and smt_sweep's --lint gate), and clang-tidy
# when available.
./build/tools/smt_lint
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

# Table 1's profiled sweep: its MM and LU columns (six default-manifest
# jobs) and the table1 manifest, with the per-PC profiler attached.
# Reports whose per-PC attributions must validate, match the
# bench/history baselines (the profiler is a pure observer), annotate
# cleanly, gate regressions, and render Table 1 equal to its golden file.
table1_jobs=(mm.serial.n64 mm.tlp-coarse.n64 mm.tlp-pfetch.n64
  lu.serial.n64 lu.tlp-coarse.n64 lu.tlp-pfetch.n64)
make_temp_dir profile_dir
./build/tools/smt_sweep --quiet --profile --manifest table1 \
  --out "$profile_dir" "${table1_jobs[@]}" > /dev/null
./build/tools/check_reports "$profile_dir/reports"
./build/tools/smt_history check --sweep "$profile_dir" --history bench/history
./build/tools/smt_figures --index "$profile_dir/sweep_index.json" \
  --figure table1 > "$profile_dir/table1.txt"
diff -u tests/golden/table1.txt "$profile_dir/table1.txt"

# The annotated disassembly must surface ALU0 traffic (the paper's
# mask-instruction serialization signature of the blocked-layout MM).
mm_report="$profile_dir/reports/mm.serial.n64.json"
./build/tools/smt_annotate "$mm_report" --cpu 0 > "$profile_dir/annotated.txt"
# The port table's alu0 row must count uops: a bare grep for "alu0" would
# also match the hotspot column header.
awk '$1 == "alu0" && $2 != "0" { found = 1 } END { exit !found }' \
  "$profile_dir/annotated.txt"

# report_diff is the regression gate: a report diffed against itself must
# pass, and a perturbed counter must trip a nonzero exit. The counter is
# one no profile invariant covers, so the perturbed report stays valid and
# the gate, not report_diff's input validation, has to catch it.
./build/tools/report_diff "$mm_report" "$mm_report"
sed -E 's/"branches_retired":[0-9]+/"branches_retired":1/' "$mm_report" \
  > "$profile_dir/perturbed.json"
if ./build/tools/report_diff "$mm_report" "$profile_dir/perturbed.json"; then
  echo "report_diff failed to flag a perturbed counter" >&2
  exit 1
fi

# Interference attribution: a report with an interference section whose
# self+sibling sums must reproduce the stall counters bit-exactly
# (validated by check_reports), and report_diff must accept a self-diff
# of the interference section.
make_temp_dir inter_dir
./build/tools/smt_sweep --quiet --interference --manifest sync \
  --out "$inter_dir" > /dev/null
grep -q '"interference":\[' "$inter_dir"/reports/*.json
./build/tools/check_reports "$inter_dir/reports"
inter_report=$(ls "$inter_dir"/reports/*.json | head -1)
./build/tools/report_diff "$inter_report" "$inter_report"

# Pipeline lifetime traces: a pipeview'd sweep of Table 1's jobs must drop
# a non-empty, window-bounded Kanata file per job in <out>/pipeview/ (the
# C/C= cycle advances must sum to no more than the configured window).
make_temp_dir pview_dir
./build/tools/smt_sweep --quiet --pipeview=0:20000 --manifest table1 \
  --out "$pview_dir" "${table1_jobs[@]}" > /dev/null
mm_kanata="$pview_dir/pipeview/mm.serial.n64.kanata"
head -1 "$mm_kanata" | grep -q "Kanata"
test "$(wc -l < "$mm_kanata")" -gt 10
awk -F'\t' '/^C=/{start=$2} /^C\t/{adv+=$2}
  END{exit (start+adv <= 20000) ? 0 : 1}' "$mm_kanata"
# A window that starts mid-run, so the recorder's first captured uid is
# nonzero: every cycle in every Kanata file must lie in [5000, 20000].
# (A run that retires nothing inside this window leaves a file holding
# only the header; the MM serial file must have lifetimes.)
make_temp_dir pview_mid_dir
./build/tools/smt_sweep --quiet --pipeview=5000:20000 --manifest table1 \
  --out "$pview_mid_dir" "${table1_jobs[@]}" > /dev/null
test "$(wc -l < "$pview_mid_dir/pipeview/mm.serial.n64.kanata")" -gt 10
for kanata in "$pview_mid_dir"/pipeview/*.kanata; do
  awk -F'\t' '/^C=/{cyc=$2; if (cyc < 5000) bad=1} /^C\t/{cyc+=$2}
    END{exit (!bad && cyc <= 20000) ? 0 : 1}' "$kanata"
done

# Every other manifest, swept once each: its jobs must match their
# bench/history baselines and the tables it renders must equal their
# golden files. The default manifest (Figures 3-5) was swept once by the
# ctest step's registry_sweep fixture into build/registry_sweep/cold,
# and its gates ran there (registry_gates); the kernel ablations and the
# multiprogram table read that sweep too, and so do the full-size
# Figures 3-5.
registry_index=build/registry_sweep/cold/sweep_index.json
make_temp_dir sweep_dir
for manifest in ablation streams table1 sync multiprog full; do
  ./build/tools/smt_sweep --quiet --manifest "$manifest" \
    --out "$sweep_dir/$manifest" > /dev/null
  ./build/tools/smt_history check --sweep "$sweep_dir/$manifest" \
    --history bench/history
done
./build/tools/smt_figures --index "$registry_index" \
  --index "$sweep_dir/ablation/sweep_index.json" \
  --figure spr-span --figure partitioning > "$sweep_dir/ablations.txt"
diff -u tests/golden/ablations.txt "$sweep_dir/ablations.txt"
streams_index="$sweep_dir/streams/sweep_index.json"
./build/tools/smt_figures --index "$streams_index" --figure 1 \
  > "$sweep_dir/fig1.txt"
diff -u tests/golden/fig1.txt "$sweep_dir/fig1.txt"
./build/tools/smt_figures --index "$streams_index" --figure 2 \
  > "$sweep_dir/fig2.txt"
diff -u tests/golden/fig2.txt "$sweep_dir/fig2.txt"
./build/tools/smt_figures --index "$sweep_dir/sync/sweep_index.json" \
  --figure sync > "$sweep_dir/sync.txt"
diff -u tests/golden/sync.txt "$sweep_dir/sync.txt"
./build/tools/smt_figures --index "$registry_index" \
  --index "$sweep_dir/multiprog/sweep_index.json" --figure multiprog \
  > "$sweep_dir/multiprog.txt"
diff -u tests/golden/multiprog.txt "$sweep_dir/multiprog.txt"
./build/tools/smt_figures --index "$registry_index" \
  --index "$sweep_dir/full/sweep_index.json" \
  --figure 3 --figure 4 --figure 5 > "$sweep_dir/figures_full.txt"
diff -u tests/golden/figures_full.txt "$sweep_dir/figures_full.txt"
