// Tests for the post-mortem flight recorder: a failed run with the
// recorder attached must come back with a deterministic, parseable
// smt-core-dump/1 document that names the actual failure (the wait-for
// graph of a deadlock, the death cycle of a blown budget), healthy runs
// must produce no dump, attaching the recorder must never perturb a
// measurement, and check_core_dump must accept real dumps and name each
// violation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "core/flight_recorder.h"
#include "core/machine.h"
#include "core/runner.h"
#include "host/experiments.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"

namespace smt::core {
namespace {

using host::ExperimentDef;
using host::find_experiment;

/// Runs a registry experiment through the non-aborting path, optionally
/// with the flight recorder attached.
RunOutcome run_experiment(const std::string& name, bool flight_recorder) {
  const ExperimentDef* def = find_experiment(name);
  EXPECT_NE(def, nullptr) << name;
  const std::unique_ptr<Workload> w = def->make();
  RunOptions opt;
  opt.race_detect = def->race_detect;
  opt.flight_recorder = flight_recorder;
  return try_run_workload(MachineConfig{}, *w, def->cycle_budget, nullptr,
                          opt);
}

// ---------------------------------------------------------------------------
// A deadlock with the recorder attached yields a diagnosable dump.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DeadlockProducesDiagnosableDump) {
  const RunOutcome o = run_experiment("selftest.deadlock", true);
  ASSERT_EQ(o.status, RunStatus::kDeadlock);
  ASSERT_FALSE(o.core_dump.empty());

  const auto v = parse_json(o.core_dump);
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("schema")->string, "smt-core-dump/1");
  EXPECT_EQ(v->find("outcome")->string, "deadlock");
  EXPECT_EQ(v->find("workload")->string, "selftest.deadlock");

  // The dump names the actual death cycle.
  const JsonValue* cycle = v->find("cycle");
  ASSERT_NE(cycle, nullptr);
  EXPECT_EQ(static_cast<Cycle>(cycle->number), o.stats.cycles);

  // Both contexts' states are present and carry the full surface.
  const JsonValue* cpus = v->find("cpus");
  ASSERT_NE(cpus, nullptr);
  ASSERT_TRUE(cpus->is_array());
  ASSERT_EQ(cpus->array.size(), static_cast<size_t>(kNumLogicalCpus));
  for (const JsonValue& c : cpus->array) {
    for (const char* key : {"mode", "pc", "disasm", "rob", "uop_queue",
                            "load_queue", "store_buffer", "wait", "iregs",
                            "fregs", "recent_retired", "snapshots"}) {
      EXPECT_NE(c.find(key), nullptr) << key;
    }
  }

  // selftest.deadlock halts cpu0 and never sends the waking IPI: the
  // wait-for graph must carry exactly that edge.
  const JsonValue* wf = v->find("wait_for");
  ASSERT_NE(wf, nullptr);
  ASSERT_TRUE(wf->is_array());
  ASSERT_FALSE(wf->array.empty());
  bool found_ipi_wait = false;
  for (const JsonValue& e : wf->array) {
    if (e.find("why")->string == "awaiting IPI") found_ipi_wait = true;
  }
  EXPECT_TRUE(found_ipi_wait);
  const JsonValue* wait0 = cpus->array[0].find("wait");
  ASSERT_NE(wait0, nullptr);
  EXPECT_EQ(wait0->find("kind")->string, "halt");
}

// ---------------------------------------------------------------------------
// Dumps are deterministic: the same job dies the same death, byte for
// byte (the property smt_sweep's artifact identity rests on).
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpIsDeterministic) {
  const RunOutcome a = run_experiment("selftest.deadlock", true);
  const RunOutcome b = run_experiment("selftest.deadlock", true);
  ASSERT_FALSE(a.core_dump.empty());
  EXPECT_EQ(a.core_dump, b.core_dump);
}

// ---------------------------------------------------------------------------
// A blown cycle budget is also dump-worthy; healthy runs are not.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, BudgetExhaustionProducesDumpHealthyRunDoesNot) {
  const RunOutcome budget = run_experiment("selftest.budget", true);
  ASSERT_EQ(budget.status, RunStatus::kCycleBudgetExceeded);
  ASSERT_FALSE(budget.core_dump.empty());
  const auto v = parse_json(budget.core_dump);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("outcome")->string, "cycle_budget_exceeded");

  const RunOutcome ok = run_experiment("mm.serial.n64", true);
  EXPECT_EQ(ok.status, RunStatus::kOk);
  EXPECT_TRUE(ok.core_dump.empty());

  // Without the recorder, even a failing run carries no dump.
  const RunOutcome plain = run_experiment("selftest.deadlock", false);
  EXPECT_EQ(plain.status, RunStatus::kDeadlock);
  EXPECT_TRUE(plain.core_dump.empty());
}

// ---------------------------------------------------------------------------
// The dump's validator: real dumps pass, and each single mutation of one
// yields exactly the finding check_reports --dumps prints for it.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpCheckNamesEachViolation) {
  const RunOutcome budget = run_experiment("selftest.budget", true);
  const auto budget_dump = parse_json(budget.core_dump);
  ASSERT_TRUE(budget_dump.has_value());
  EXPECT_EQ(check_core_dump(*budget_dump), std::nullopt);

  const RunOutcome o = run_experiment("selftest.deadlock", true);
  const auto base = parse_json(o.core_dump);
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(check_core_dump(*base), std::nullopt);
  ASSERT_FALSE(base->find("cpus")->array[0].find("recent_retired")->array
                   .empty());
  ASSERT_FALSE(base->find("wait_for")->array.empty());

  const auto cpu = [](JsonValue& d, int i) -> JsonValue& {
    return d.object["cpus"].array[i];
  };
  const auto text = [](const char* s) {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    v.string = s;
    return v;
  };
  const struct {
    const char* what;
    std::function<void(JsonValue&)> mutate;
    std::string finding;
  } cases[] = {
      {"other schema",
       [](JsonValue& d) { d.object["schema"].string = "smt-core-dump/2"; },
       "missing/unknown schema"},
      {"no schema", [](JsonValue& d) { d.object.erase("schema"); },
       "missing/unknown schema"},
      {"ok outcome",
       [](JsonValue& d) { d.object["outcome"].string = "ok"; },
       "missing/unknown outcome"},
      {"no message", [](JsonValue& d) { d.object.erase("message"); },
       "missing workload/message/cycle"},
      {"string cycle",
       [&](JsonValue& d) { d.object["cycle"] = text("12"); },
       "missing workload/message/cycle"},
      {"one cpu", [](JsonValue& d) { d.object["cpus"].array.pop_back(); },
       "\"cpus\" is not a 2-entry array"},
      {"cpu0 without mode",
       [&](JsonValue& d) { cpu(d, 0).object.erase("mode"); },
       "cpu0 entry malformed"},
      {"cpu1 without snapshots",
       [&](JsonValue& d) { cpu(d, 1).object.erase("snapshots"); },
       "cpu1 entry malformed"},
      {"cpu0 unknown wait kind",
       [&](JsonValue& d) {
         cpu(d, 0).object["wait"].object["kind"].string = "sleep";
       },
       "cpu0 wait.kind malformed"},
      {"cpu0 retired entry without disasm",
       [&](JsonValue& d) {
         cpu(d, 0).object["recent_retired"].array[0].object.erase("disasm");
       },
       "cpu0 recent_retired entry malformed"},
      {"cpu0 retirement after death",
       [&](JsonValue& d) {
         cpu(d, 0).object["recent_retired"].array.back().object["cycle"]
             .number = d.object["cycle"].number + 1;
       },
       "cpu0 recent_retired cycles not monotonic within the run"},
      {"no sync_words", [](JsonValue& d) { d.object.erase("sync_words"); },
       "missing sync_words/wait_for arrays"},
      {"edge without why",
       [](JsonValue& d) {
         d.object["wait_for"].array[0].object.erase("why");
       },
       "malformed wait_for edge"},
  };
  for (const auto& c : cases) {
    JsonValue d = *base;
    c.mutate(d);
    EXPECT_EQ(check_core_dump(d), c.finding) << c.what;
  }
}

// ---------------------------------------------------------------------------
// Pure observer: attaching the recorder never changes a measurement.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RecorderDoesNotPerturbAnyCounter) {
  const RunOutcome with = run_experiment("mm.serial.n64", true);
  const RunOutcome without = run_experiment("mm.serial.n64", false);
  EXPECT_EQ(with.stats.cycles, without.stats.cycles);
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const perfmon::Event ev = static_cast<perfmon::Event>(e);
      EXPECT_EQ(with.stats.cpu(cpu, ev), without.stats.cpu(cpu, ev))
          << "cpu" << c << " " << perfmon::name(ev);
    }
  }
}

}  // namespace
}  // namespace smt::core
