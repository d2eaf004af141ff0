// Tests for the structured run-report layer: the minimal JSON
// writer/parser, the top-down cycle-accounting derivation, the
// RunReport JSON artifact every sweep job writes, and the report
// validator (core::check_run_report) that check_reports shares.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "core/machine.h"
#include "core/report_check.h"
#include "core/run_report.h"
#include "isa/asm_builder.h"
#include "kernels/matmul.h"
#include "perfmon/cycle_accounting.h"
#include "perfmon/events.h"
#include "trace/telemetry.h"

namespace smt {
namespace {

using core::Machine;
using isa::AsmBuilder;
using isa::FReg;
using perfmon::Event;

// ---------------------------------------------------------------------------
// JSON writer + parser round trips
// ---------------------------------------------------------------------------

TEST(Json, WriterProducesCanonicalScalars) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", "hi");
  w.kv("i", 42);
  w.kv("u", static_cast<uint64_t>(1) << 40);
  w.kv("d", 1.5);
  w.kv("b", true);
  w.key("n");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"hi\",\"i\":42,\"u\":1099511627776,\"d\":1.5,"
            "\"b\":true,\"n\":[1,2]}");
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "x\t\"y\"");
  w.kv("count", static_cast<uint64_t>(123456789));
  w.key("list");
  w.begin_array();
  w.value(-1);
  w.value(2.25);
  w.value(false);
  w.end_array();
  w.end_object();

  const auto v = parse_json(w.str());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("name")->string, "x\t\"y\"");
  EXPECT_EQ(v->find("count")->number, 123456789.0);
  const JsonValue* list = v->find("list");
  ASSERT_TRUE(list != nullptr && list->is_array());
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_EQ(list->array[0].number, -1.0);
  EXPECT_EQ(list->array[1].number, 2.25);
  EXPECT_EQ(list->array[2].type, JsonValue::Type::kBool);
}

TEST(Json, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("[1 2]").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_TRUE(parse_json("{\"a\": [1, {\"b\": null}]}").has_value());
  // Nesting is capped, so a deep document is a parse error, not a stack
  // overflow.
  EXPECT_TRUE(parse_json(std::string(kMaxJsonDepth, '[') +
                         std::string(kMaxJsonDepth, ']')).has_value());
  EXPECT_FALSE(parse_json(std::string(kMaxJsonDepth + 1, '[') +
                          std::string(kMaxJsonDepth + 1, ']')).has_value());
  EXPECT_FALSE(parse_json(std::string(30000, '[')).has_value());
}

// ---------------------------------------------------------------------------
// Cycle-accounting derivation
// ---------------------------------------------------------------------------

TEST(CycleAccounting, DerivesTheDocumentedIdentities) {
  perfmon::Snapshot s;
  const int c0 = 0;
  s.v[c0][static_cast<int>(Event::kCyclesActive)] = 800;
  s.v[c0][static_cast<int>(Event::kCyclesHalted)] = 150;
  s.v[c0][static_cast<int>(Event::kFetchStallCycles)] = 100;
  s.v[c0][static_cast<int>(Event::kResourceStallCycles)] = 300;
  s.v[c0][static_cast<int>(Event::kRobStallCycles)] = 120;
  s.v[c0][static_cast<int>(Event::kLoadQueueStallCycles)] = 80;
  s.v[c0][static_cast<int>(Event::kStoreBufferStallCycles)] = 100;
  s.v[c0][static_cast<int>(Event::kInstrRetired)] = 400;
  s.v[c0][static_cast<int>(Event::kUopsRetired)] = 500;

  const auto acc = perfmon::account_cycles(s, /*total_cycles=*/1000);
  const auto& b = acc.cpu[0];
  EXPECT_EQ(b.total, 1000u);
  EXPECT_EQ(b.active, 800u);
  EXPECT_EQ(b.halted, 150u);
  EXPECT_EQ(b.idle, 50u);  // total - active - halted
  EXPECT_EQ(b.memory_bound, 180u);  // lq + sb stalls
  EXPECT_EQ(b.issue_bound, 120u);   // rob stalls
  EXPECT_EQ(b.flowing, 400u);       // active - (fetch + resource)
  EXPECT_DOUBLE_EQ(b.cpi, 2.0);
  EXPECT_DOUBLE_EQ(b.ipc, 0.5);
  EXPECT_DOUBLE_EQ(b.uops_per_cycle, 0.625);

  // The idle thread derives all zeros without dividing by zero.
  EXPECT_EQ(acc.cpu[1].active, 0u);
  EXPECT_EQ(acc.cpu[1].cpi, 0.0);
}

TEST(CycleAccounting, ClampsWhenCategoriesOverlap) {
  perfmon::Snapshot s;
  s.v[0][static_cast<int>(Event::kCyclesActive)] = 100;
  s.v[0][static_cast<int>(Event::kFetchStallCycles)] = 90;
  s.v[0][static_cast<int>(Event::kResourceStallCycles)] = 90;
  const auto acc = perfmon::account_cycles(s, 100);
  EXPECT_EQ(acc.cpu[0].flowing, 0u);  // clamped, not underflowed
  EXPECT_EQ(acc.cpu[0].idle, 0u);
}

// ---------------------------------------------------------------------------
// RunReport artifact
// ---------------------------------------------------------------------------

core::RunReport sample_report() {
  AsmBuilder a("sample");
  a.fmovi(FReg::F0, 0.0);
  a.fmovi(FReg::F1, 1.0);
  for (int i = 0; i < 500; ++i) a.fadd(FReg::F0, FReg::F0, FReg::F1);
  a.exit();
  Machine m;
  m.load_program(CpuId::kCpu0, a.take());
  m.run();
  return core::report_from_machine(m, "sample.fadd", /*verified=*/true);
}

TEST(RunReport, JsonArtifactParsesAndCarriesTheBreakdown) {
  const core::RunReport r = sample_report();
  const auto v = parse_json(r.to_json());
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());

  EXPECT_EQ(v->find("schema")->string, "smt-run-report/1");
  EXPECT_EQ(v->find("workload")->string, "sample.fadd");
  EXPECT_TRUE(v->find("verified")->boolean);
  EXPECT_EQ(v->find("cycles")->number,
            static_cast<double>(r.stats.cycles));

  // Config is embedded with both halves.
  const JsonValue* cfg = v->find("config");
  ASSERT_TRUE(cfg != nullptr && cfg->is_object());
  EXPECT_EQ(cfg->find("core")->find("rob_size")->number, 126.0);
  EXPECT_EQ(cfg->find("mem")->find("l1")->find("size_bytes")->number,
            8.0 * 1024);

  // One entry per logical CPU, each with every named counter and the
  // derived breakdown.
  const JsonValue* cpus = v->find("cpus");
  ASSERT_TRUE(cpus != nullptr && cpus->is_array());
  ASSERT_EQ(cpus->array.size(), static_cast<size_t>(kNumLogicalCpus));
  const JsonValue& cpu0 = cpus->array[0];
  const JsonValue* events = cpu0.find("events");
  ASSERT_TRUE(events != nullptr);
  for (int e = 0; e < perfmon::kNumEventValues; ++e) {
    const auto ev = static_cast<Event>(e);
    const JsonValue* entry = events->find(perfmon::name(ev));
    ASSERT_TRUE(entry != nullptr) << perfmon::name(ev);
    EXPECT_EQ(entry->number,
              static_cast<double>(r.stats.cpu(CpuId::kCpu0, ev)))
        << perfmon::name(ev);
  }
  const JsonValue* bd = cpu0.find("breakdown");
  ASSERT_TRUE(bd != nullptr);
  EXPECT_EQ(bd->find("active")->number,
            static_cast<double>(r.accounting.cpu[0].active));
  EXPECT_EQ(bd->find("flowing")->number,
            static_cast<double>(r.accounting.cpu[0].flowing));
  EXPECT_NEAR(bd->find("cpi")->number, r.accounting.cpu[0].cpi, 1e-9);

  const JsonValue* totals = v->find("totals");
  ASSERT_TRUE(totals != nullptr);
  EXPECT_EQ(totals->find("instr_retired")->number,
            static_cast<double>(r.stats.total(Event::kInstrRetired)));
}

TEST(RunReport, TableRendersEveryAccountingRow) {
  const std::string t = sample_report().to_table();
  for (const char* needle :
       {"run report: sample.fadd", "active", "halted", "fetch stalled",
        ".. rob", ".. load queue", ".. store buffer", "memory bound",
        "issue bound", "flowing", "cpi"}) {
    EXPECT_NE(t.find(needle), std::string::npos) << needle;
  }
}

TEST(RunReport, WriteJsonFileRoundTrips) {
  const core::RunReport r = sample_report();
  const std::string path = testing::TempDir() + "/report_test.json";
  ASSERT_TRUE(r.write_json_file(path));
  const std::optional<std::string> text = read_text_file(path);
  ASSERT_TRUE(text.has_value());
  const auto v = parse_json(*text);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("workload")->string, "sample.fadd");
}

TEST(RunReport, WriteJsonFileCreatesMissingParentDirs) {
  const core::RunReport r = sample_report();
  const std::string path =
      testing::TempDir() + "/report_test_nested/a/b/report.json";
  ASSERT_TRUE(r.write_json_file(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_TRUE(f != nullptr);
  std::fclose(f);
}

TEST(RunReport, WriteJsonFileFailsCleanlyOnUnwritablePath) {
  const core::RunReport r = sample_report();
  // The parent "directory" is an existing regular file.
  const std::string blocker = testing::TempDir() + "/report_test_blocker";
  std::FILE* f = std::fopen(blocker.c_str(), "w");
  ASSERT_TRUE(f != nullptr);
  std::fclose(f);
  EXPECT_FALSE(r.write_json_file(blocker + "/report.json"));
}

// ---------------------------------------------------------------------------
// Report validator
// ---------------------------------------------------------------------------

// One report with every optional section: the two-context SPR matmul
// (n=16) with telemetry, the per-PC profiler and interference attribution
// all attached.
JsonValue report_with_every_section() {
  kernels::MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = kernels::MmMode::kTlpPfetch;
  kernels::MatMulWorkload w(p);
  Machine m;
  trace::TelemetryConfig tc;
  tc.enabled = true;
  tc.sample_window = 256;
  m.enable_telemetry(tc);
  m.enable_pc_profiler();
  m.enable_interference();
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  EXPECT_TRUE(w.verify(m));
  const auto v =
      parse_json(core::report_from_machine(m, "spr_matmul", true).to_json());
  EXPECT_TRUE(v.has_value());
  return v.value_or(JsonValue{});
}

// Mutable member access for perturbing a parsed report.
JsonValue& member(JsonValue& obj, const std::string& key) {
  return obj.object.at(key);
}

// Sets obj[key] (created when absent, as for nonzero-only window deltas)
// to `value`.
void set_number(JsonValue& obj, const std::string& key, double value) {
  JsonValue& v = obj.object[key];
  v.type = JsonValue::Type::kNumber;
  v.number = value;
}

TEST(ReportCheck, AcceptsAReportWithEverySection) {
  const JsonValue v = report_with_every_section();
  EXPECT_EQ(v.find("schema")->string, "smt-run-report/1");
  for (const char* section : {"timeseries", "profile", "interference"}) {
    EXPECT_NE(v.find(section), nullptr) << section;
  }
  EXPECT_EQ(core::check_run_report(v), std::nullopt);
}

TEST(ReportCheck, PortCapsFollowANonDefaultAluConfig) {
  // A profiled run on a core with one ALU0 slot and three ALU1 slots per
  // cycle: the report's caps come from the port model under that config,
  // and the occupancy the core produced under them passes the validator.
  core::MachineConfig cfg;
  cfg.core.alu0_per_cycle = 1;
  cfg.core.alu1_per_cycle = 3;
  kernels::MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = kernels::MmMode::kSerial;
  kernels::MatMulWorkload w(p);
  Machine m{cfg};
  m.enable_pc_profiler();
  w.setup(m);
  const std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  ASSERT_TRUE(w.verify(m));
  const auto v =
      parse_json(core::report_from_machine(m, "mm_alu_caps", true).to_json());
  ASSERT_TRUE(v.has_value());
  const JsonValue* prof = v->find("profile");
  ASSERT_NE(prof, nullptr);
  const JsonValue* caps = prof->find("port_caps_per_cycle");
  ASSERT_NE(caps, nullptr);
  const std::vector<std::pair<std::string, double>> expected = {
      {"alu0", 1},    {"alu1", 3}, {"fp", 1},
      {"fp_move", 1}, {"load", 1}, {"store", 1}};
  ASSERT_EQ(caps->object.size(), expected.size());
  for (const auto& [port, cap] : expected) {
    const JsonValue* c = caps->find(port);
    ASSERT_NE(c, nullptr) << port;
    EXPECT_EQ(c->number, cap) << port;
  }
  EXPECT_EQ(core::check_run_report(*v), std::nullopt);
}

TEST(ReportCheck, EachPerturbedInvariantIsNamed) {
  const JsonValue base = report_with_every_section();
  ASSERT_EQ(core::check_run_report(base), std::nullopt);
  const double cycles = number_or(base, "cycles", 0.0);
  ASSERT_GT(cycles, 0.0);

  const struct {
    const char* what;
    std::function<void(JsonValue&)> perturb;
    std::vector<std::string> finding_names;
  } cases[] = {
      {"one window delta",
       [](JsonValue& r) {
         JsonValue& events = member(member(member(r, "timeseries"),
                                           "windows").array[0],
                                    "cpus").array[0];
         JsonValue& deltas = member(events, "events");
         set_number(deltas, "instr_retired",
                    number_or(deltas, "instr_retired", 0.0) + 1);
       },
       {"cpu0 instr_retired", "window deltas"}},
      {"one per-PC retired_uops",
       [](JsonValue& r) {
         JsonValue& pc = member(member(member(r, "profile"), "hotspots")
                                    .array[0],
                                "pcs").array[0];
         set_number(pc, "retired_uops", number_or(pc, "retired_uops", 0) + 1);
       },
       {"cpu0 uops_retired", "per-PC sum"}},
      {"port_occupancy over cap x cycles",
       [cycles](JsonValue& r) {
         // Keep the per-PC sum equal to the occupancy so that only the
         // cap bound (alu0 fires twice a cycle) can trip.
         JsonValue& prof = member(r, "profile");
         JsonValue& pc_ports = member(
             member(member(prof, "hotspots").array[0], "pcs").array[0],
             "ports");
         JsonValue& occ = member(member(prof, "port_occupancy").array[0],
                                 "ports");
         const double extra = 2 * cycles + 1;
         set_number(pc_ports, "alu0", number_or(pc_ports, "alu0", 0) + extra);
         set_number(occ, "alu0", number_or(occ, "alu0", 0) + extra);
       },
       {"port alu0 occupancy", "exceeds cap"}},
      {"one interference self stall",
       [](JsonValue& r) {
         JsonValue& self = member(member(r, "interference").array[0], "self");
         set_number(self, "rob", number_or(self, "rob", 0) + 1);
       },
       {"cpu0 rob_stall_cycles", "self+sibling"}},
      {"one port_conflict port",
       [cycles](JsonValue& r) {
         JsonValue& ports = member(
             member(member(r, "interference").array[0], "port_conflict"),
             "self");
         set_number(ports, "fp", cycles + 1);
       },
       {"cpu0 self port fp", "exceeds"}},
      {"cycles not a number",
       [](JsonValue& r) { member(r, "cycles") = JsonValue{}; },
       {"\"cycles\" is not a number"}},
      {"another document's schema",
       [](JsonValue& r) { member(r, "schema").string = "smt-core-dump/1"; },
       {"schema"}},
  };
  for (const auto& c : cases) {
    JsonValue r = base;
    c.perturb(r);
    const std::optional<std::string> finding = core::check_run_report(r);
    ASSERT_TRUE(finding.has_value()) << c.what;
    for (const std::string& name : c.finding_names) {
      EXPECT_NE(finding->find(name), std::string::npos)
          << c.what << ": " << *finding;
    }
  }
}

}  // namespace
}  // namespace smt
