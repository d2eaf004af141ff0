// The static CPI advisor's soundness contract, checked on the default
// manifest: for every job of the registry_sweep ctest fixture's cold
// sweep, the static bound of each logical CPU's program must not exceed
// that CPU's measured active-cycle CPI. Bounds come from the registry's
// programs; the measured CPI comes from the fixture's reports, so this
// test simulates nothing. SMT_REGISTRY_SWEEP_DIR names the fixture's
// directory (a compile definition, see tests/CMakeLists.txt).
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_perf.h"
#include "common/io.h"
#include "common/json.h"
#include "core/machine.h"
#include "gtest/gtest.h"
#include "host/experiments.h"
#include "host/sweep_index.h"

namespace smt::analysis {
namespace {

namespace fs = std::filesystem;

/// One report's per-CPU integer event `event`.
uint64_t event_of(const JsonValue& cpu, const char* event) {
  return static_cast<uint64_t>(number_or(cpu.find("events"), event, 0.0));
}

TEST(StaticPerfRegistry, BoundNeverExceedsMeasuredCpiOnAnyBenchKernel) {
  const fs::path cold = fs::path(SMT_REGISTRY_SWEEP_DIR) / "cold";
  const std::optional<std::string> text =
      read_text_file((cold / host::kSweepIndexFile).string());
  ASSERT_TRUE(text.has_value())
      << "no sweep index in " << cold.string()
      << ": run this test through ctest, which runs the registry_sweep "
         "fixture first";
  host::SweepIndex index;
  const std::optional<std::string> finding =
      host::parse_sweep_index(*text, &index);
  ASSERT_FALSE(finding.has_value()) << *finding;

  const std::vector<std::string> names = host::manifest("default");
  ASSERT_GT(names.size(), 20u);
  int validated = 0;
  int exact_bounds = 0;
  for (const std::string& name : names) {
    const host::IndexEntry* entry = nullptr;
    for (const host::IndexEntry& e : index.jobs) {
      if (e.name == name) entry = &e;
    }
    // The bound is only a contract for completed runs, and every
    // default-manifest job completes.
    if (entry == nullptr || !entry->ok()) {
      ADD_FAILURE() << name << ": "
                    << (entry == nullptr ? "not in the fixture's index"
                                         : "outcome " + entry->outcome);
      continue;
    }
    bool unreadable = false;
    const std::optional<JsonValue> report =
        read_json_object((cold / entry->report).string(), &unreadable);
    if (!report.has_value()) {
      ADD_FAILURE() << name << ": cannot read report " << entry->report;
      continue;
    }

    // The static bounds, from the program text alone.
    const host::ExperimentDef* def = host::find_experiment(name);
    ASSERT_NE(def, nullptr) << name;
    const std::unique_ptr<core::Workload> w = def->make();
    core::Machine layout_only;
    w->setup(layout_only);
    const std::vector<isa::Program> programs = w->programs();

    // The measured CPI, as perfmon::account_cycles computes it.
    const JsonValue* cpus = report->find("cpus");
    ASSERT_TRUE(cpus != nullptr && cpus->is_array()) << name;
    ASSERT_GE(cpus->array.size(), programs.size()) << name;
    for (size_t c = 0; c < programs.size(); ++c) {
      const uint64_t active = event_of(cpus->array[c], "cycles_active");
      const uint64_t instrs = event_of(cpus->array[c], "instr_retired");
      if (instrs == 0) continue;
      const double measured =
          static_cast<double>(active) / static_cast<double>(instrs);
      const StaticPerf bound = static_cpi_bound(programs[c], def->config.core);
      ++validated;
      if (bound.exact) ++exact_bounds;
      EXPECT_LE(bound.cpi_lb, measured + 1e-9)
          << name << " cpu" << c << ": static bound " << bound.cpi_lb << " ("
          << bound.binding << (bound.exact ? ", exact" : ", fallback")
          << ") exceeds measured cpi " << measured;
    }
  }
  // Every default-manifest kernel completes, so every program's bound
  // must have been exercised against a measurement.
  EXPECT_GT(validated, 30);
  // Only the serial kernels are eligible for exact bounds (every TLP
  // variant spins on xchg/pause, which excludes exact mode by design),
  // so the advisor must resolve at least a handful of them exactly
  // rather than always falling back to the density bound.
  EXPECT_GE(exact_bounds, 6);
}

}  // namespace
}  // namespace smt::analysis
