// Named experiment definitions for the sweep orchestrator: every run
// behind the paper's figures and tables (rendered by tools/smt_figures),
// the ablations, the full-size runs, and a few deliberately failing
// self-test jobs used to exercise the structured failure paths in CI.
// Each job belongs to one named manifest (kManifests), which smt_sweep
// --manifest selects; a table that reuses another manifest's jobs reads
// both sweeps.
//
// Every definition is fully deterministic: the factory builds a fresh
// Workload with fixed sizes and seeds, so a job's report depends only on
// its name — never on which worker ran it or in what order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/json.h"
#include "common/types.h"
#include "core/machine.h"
#include "core/workload.h"
#include "isa/program.h"
#include "streams/stream_gen.h"

namespace smt::host {

/// The registry's manifests, in registry order: "default" (Figures 3-5
/// at the bench sizes), "ablation" (the SPR-span and partitioning
/// ablations' own jobs), "full" (the largest, paper-scale-ratio sizes),
/// "streams" (Figures 1-2's stream runs), "table1" (Table 1's CG and BT
/// runs; its MM and LU columns are default jobs), "sync" (the paper 3.1
/// spin/pause/halt ablation), "multiprog" (the multiprogrammed kernel
/// pairs and the solo runs no other manifest holds) and "selftest"
/// (structured-failure probes, injected by name).
inline constexpr const char* kManifests[] = {
    "default", "ablation", "full",      "streams",
    "table1",  "sync",     "multiprog", "selftest"};

struct ExperimentDef {
  /// Registry key (e.g. "mm.serial.n64").
  std::string name;
  /// Builds a fresh, deterministic instance of the workload.
  std::function<std::unique_ptr<core::Workload>()> make;
  /// The machine the job runs on (part of its result key).
  core::MachineConfig config;
  /// Per-job simulated-cycle budget (try_run_workload's max_cycles).
  Cycle cycle_budget = 4'000'000'000ull;
  /// The manifest the job belongs to: one of kManifests.
  std::string manifest = "default";
  /// Stop at the first context's exit (core::RunOptions::
  /// until_first_done): the co-execution pairs' fully-overlapped window.
  bool until_first_done = false;
  /// Run with the happens-before race detector attached
  /// (core::RunOptions::race_detect); a detected race comes back as a
  /// structured kRaceDetected outcome.
  bool race_detect = false;
};

// The stream sets of Figures 1-2 (the rows and columns smt_figures
// prints) and the ILP levels each is run at.
inline constexpr streams::IlpLevel kIlpLevels[] = {
    streams::IlpLevel::kMin, streams::IlpLevel::kMed, streams::IlpLevel::kMax};
inline constexpr streams::StreamKind kFig1Streams[] = {
    streams::StreamKind::kFAdd, streams::StreamKind::kFMul,
    streams::StreamKind::kFAddMul, streams::StreamKind::kIAdd,
    streams::StreamKind::kILoad};
/// Figure 2(a)'s victims and aggressors.
inline constexpr streams::StreamKind kFig2FpSet[] = {
    streams::StreamKind::kFAdd, streams::StreamKind::kFSub,
    streams::StreamKind::kFMul, streams::StreamKind::kFDiv,
    streams::StreamKind::kFLoad, streams::StreamKind::kFStore};
/// Figure 2(b)'s victims and aggressors.
inline constexpr streams::StreamKind kFig2IntSet[] = {
    streams::StreamKind::kIAdd, streams::StreamKind::kISub,
    streams::StreamKind::kIMul, streams::StreamKind::kIDiv,
    streams::StreamKind::kILoad, streams::StreamKind::kIStore};
/// Figure 2(c)'s victims (2(c')'s aggressors) and the reverse.
inline constexpr streams::StreamKind kFig2FpArith[] = {
    streams::StreamKind::kFAdd, streams::StreamKind::kFMul,
    streams::StreamKind::kFDiv};
inline constexpr streams::StreamKind kFig2IntArith[] = {
    streams::StreamKind::kIAdd, streams::StreamKind::kIMul,
    streams::StreamKind::kIDiv};

/// Figure 1's job: `kind` at `ilp`, alone (threads 1) or beside a copy of
/// itself (threads 2); e.g. "fig1.fadd.minILP.2thr".
std::string fig1_job(streams::StreamKind kind, streams::IlpLevel ilp,
                     int threads);
/// Figure 2's job: `victim` at `ilp` alone (no aggressor; e.g.
/// "fig2.fadd.minILP") or beside `aggressor` ("fig2.fadd_fmul.minILP").
std::string fig2_job(streams::StreamKind victim,
                     std::optional<streams::StreamKind> aggressor,
                     streams::IlpLevel ilp);
/// The multiprogram study's applications (serial kernels), in table
/// order.
inline constexpr const char* kMultiprogApps[] = {"mm", "lu", "cg", "bt"};
/// The multiprogram pair job of `a` on CPU 0 beside `b` on CPU 1, e.g.
/// "multiprog.mm_lu".
std::string multiprog_job(const std::string& a, const std::string& b);
/// The job that runs multiprogram app `app` (mm, lu, cg or bt) alone.
std::string multiprog_solo_job(const std::string& app);

/// The full registry, in canonical (figure/table) order.
const std::vector<ExperimentDef>& experiments();

/// Looks up a definition by name; nullptr when unknown.
const ExperimentDef* find_experiment(const std::string& name);

/// The names of manifest `name`'s experiments, in registry order; empty
/// when `name` is not one of kManifests.
std::vector<std::string> manifest(const std::string& name);

/// One workload's programs and their static verifier findings.
struct WorkloadLint {
  std::vector<isa::Program> programs;
  /// diags[i]: programs[i]'s analysis::lint_program findings (with the
  /// workload's registered extents) and its analysis::lint_concurrency
  /// findings, merged in the canonical analysis::diagnostic_before order.
  std::vector<std::vector<analysis::Diagnostic>> diags;
};

/// Sets `w` up on a fresh machine and lints every program it emits: the
/// one lint driver behind smt_lint, smt_sweep --lint and the registry
/// gate test.
WorkloadLint lint_workload(core::Workload& w);

/// One experiment's lint_workload result, named for the lint report.
struct ExperimentLint {
  std::string name;
  WorkloadLint lint;
};
struct LintTotals {
  size_t errors = 0;
  size_t warnings = 0;
  int programs = 0;
  int experiments = 0;
};
LintTotals lint_totals(const std::vector<ExperimentLint>& lints);

/// The lint report (`smt_lint --format=json`): "schema":
/// "smt-lint-report/1"; "experiments", in `lints` order, each with its
/// programs, each with its diagnostics {check, severity, pc, block,
/// message}; then "totals" (lint_totals).
std::string lint_report_json(const std::vector<ExperimentLint>& lints);

/// Every finding in a lint report (no file prefix); empty when valid. A
/// structural fault (schema, nesting, a severity other than error or
/// warning) is the one finding; otherwise each totals member that
/// disagrees with the recount of the entries is one.
std::vector<std::string> check_lint_report(const JsonValue& report);

namespace detail {
/// SMT_CHECKs that no two definitions share a name and that every name
/// survives filename sanitization distinctly. History trajectories and
/// sweep artifact paths are keyed by experiment name, so a collision
/// would silently merge two experiments' results; the registry refuses
/// to exist in that state (enforced on first experiments() call, unit-
/// tested directly in host_test).
void check_registry_invariants(const std::vector<ExperimentDef>& defs);
}  // namespace detail

}  // namespace smt::host
