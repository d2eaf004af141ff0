// Content-addressed result store: the sweep farm's cache of finished
// simulation results, keyed so a hit is *provably* the same simulation.
//
// A ResultKey captures everything a deterministic run's artifacts can
// depend on:
//   * the experiment name (reports embed the workload name, so two
//     experiments emitting identical programs still key apart);
//   * the canonical serialization digest of every guest isa::Program the
//     workload binds (isa::program_digest — code, fp-immediate bits,
//     sync-region and lock metadata);
//   * the canonical machine-config JSON digest
//     (core::machine_config_json — byte-identical to the report's
//     "config" section by construction);
//   * the run options that steer the simulation: cycle budget,
//     race_detect, flight_recorder, and — only when set, so the keys of
//     jobs run without them never move — the attached instruments and
//     the until-first-done stop (ResultKey::options);
//   * the report-schema epoch (kReportEpoch) — bumped whenever report
//     serialization changes, so stale objects age out instead of
//     resurfacing old bytes.
//
// Objects live under <root>/objects/<key-hash>/ as three files:
//   meta.json    smt-result-cache/1: the full key (for collision
//                verification on load) + the structured outcome
//   report.json  the job's RunReport bytes, verbatim
//   dump.json    the post-mortem core dump, when the run died with one
// Stores are atomic (write to a temp dir, then rename), loads verify
// every key field — a hash collision, partial write, or corrupt object
// degrades to a miss, never to wrong bytes.
//
// Only *completed deterministic* outcomes are cacheable (ok, deadlock,
// cycle_budget_exceeded, verify_failed, race_detected). Timeouts and
// cancellations are wall-clock facts about one particular host run and
// must never be replayed from a cache.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/machine.h"
#include "core/runner.h"
#include "host/experiments.h"

namespace smt::host {

/// The report-format epoch: part of every result key, so changing it
/// makes every previously stored object unreachable. Change it whenever
/// the bytes core::RunReport::to_json writes for a sweep job change. It is
/// not the schema string: reports say "smt-run-report/1" since the
/// version ladder (/1 to /4, picked by which optional sections were
/// attached) was retired, and the epoch keeps its last ladder value
/// because sweep jobs never attach those sections, so their report bytes
/// did not change and caches filled before that still hit.
inline constexpr char kReportEpoch[] = "smt-run-report/4";

struct ResultKey {
  std::string experiment;
  std::vector<std::string> program_digests;  // per logical CPU, in order
  std::string config_hash;
  Cycle cycle_budget = 0;
  bool race_detect = false;
  bool flight_recorder = false;
  /// options_text of the run's RunOptions: "" for a run with no
  /// instruments and the all-done stop, and then absent from canonical()
  /// and meta.json.
  std::string options;
  std::string report_epoch = kReportEpoch;

  /// The full key as one canonical byte string (what hash() digests and
  /// what load() compares field-for-field via meta.json).
  std::string canonical() const;

  /// 16-hex FNV-1a digest of canonical() — the object directory name.
  std::string hash() const;
};

/// The canonical text of the RunOptions members that only some runs set:
/// the attached instruments (RunOptions::telemetry, every field, when it
/// attaches any) and until_first_done. "" when neither is set.
std::string options_text(const core::RunOptions& opt);

/// Builds the key for one registry experiment under the given machine
/// config and run options. Instantiates a throwaway workload and runs
/// its setup() on a scratch Machine (programs are only defined after
/// setup); the cost is host-side array initialization, orders of
/// magnitude below simulating the job.
ResultKey result_key(const ExperimentDef& def, const core::MachineConfig& cfg,
                     Cycle cycle_budget, const core::RunOptions& opt);

/// A finished job's cacheable face: the structured outcome plus the
/// exact artifact bytes.
struct CachedResult {
  std::string outcome;  // core::RunStatus name ("ok", "deadlock", ...)
  std::string message;
  Cycle cycles = 0;
  bool verified = false;
  std::string report_json;  // verbatim report bytes (never empty)
  std::string dump_json;    // verbatim core-dump bytes ("" when none)
};

/// True for outcomes the store accepts: deterministic completions only.
bool cacheable_outcome(const std::string& outcome);

class ResultStore {
 public:
  /// Opens (and lazily creates) a store rooted at `root`.
  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// Looks up `key`; nullopt on miss, corruption, or any key-field
  /// mismatch (all three are the same answer: simulate).
  std::optional<CachedResult> load(const ResultKey& key) const;

  /// Stores `result` under `key` atomically. Returns false on I/O
  /// failure or when `result.outcome` is not cacheable; an object that
  /// already exists is left untouched (first writer wins — under the
  /// determinism contract both writers hold identical bytes).
  bool store(const ResultKey& key, const CachedResult& result) const;

 private:
  std::string object_dir(const ResultKey& key) const;

  std::string root_;
};

}  // namespace smt::host
