#include "host/experiments.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "common/check.h"
#include "common/io.h"
#include "common/table.h"
#include "isa/asm_builder.h"
#include "kernels/bt.h"
#include "kernels/cg.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"

namespace smt::host {

namespace {

using kernels::BtMode;
using kernels::CgMode;
using kernels::LuMode;
using kernels::MmMode;

// ---------------------------------------------------------------------------
// Self-test workloads: deterministic failures for exercising the sweep's
// structured-outcome paths (never part of the default manifest).
// ---------------------------------------------------------------------------

/// Halts its only context with no sibling to ever send the wake-up IPI —
/// the canonical lost-wake-up deadlock the watchdog used to abort on.
class DeadlockWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(core::Machine&) override {}
  std::vector<isa::Program> programs() const override {
    isa::AsmBuilder a("sleeper");
    a.halt();
    a.exit();
    return {a.take()};
  }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::string name_ = "selftest.deadlock";
};

/// Counts far beyond what its job's cycle budget allows.
class BudgetWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(core::Machine&) override {}
  std::vector<isa::Program> programs() const override {
    isa::AsmBuilder a("counter");
    a.imovi(isa::IReg::R0, 0);
    const isa::Label loop = a.here();
    a.iaddi(isa::IReg::R0, isa::IReg::R0, 1);
    a.bri(isa::BrCond::kLt, isa::IReg::R0, 1'000'000'000, loop);
    a.exit();
    return {a.take()};
  }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::string name_ = "selftest.budget";
};

/// Two contexts hammering one shared word with no synchronization at all:
/// the canonical data race the happens-before detector must flag. Runs
/// with race_detect set, so the sweep reports it as kRaceDetected.
class RaceWorkload : public core::Workload {
 public:
  static constexpr int kIters = 64;

  const std::string& name() const override { return name_; }

  void setup(core::Machine& m) override {
    mem::MemoryLayout lay;
    word_ = lay.alloc_words("shared", 1);
    regions_ = lay.regions();
    m.memory().write_i64(word_, 0);
  }

  std::vector<isa::Program> programs() const override {
    using isa::IReg;
    isa::AsmBuilder w("racer.writer");
    w.imovi(IReg::R0, 0);
    const isa::Label wloop = w.here();
    w.store(IReg::R0, isa::Mem::abs(word_));  // plain store, no release
    w.iaddi(IReg::R0, IReg::R0, 1);
    w.bri(isa::BrCond::kLt, IReg::R0, kIters, wloop);
    w.exit();

    isa::AsmBuilder r("racer.reader");
    r.imovi(IReg::R0, 0);
    const isa::Label rloop = r.here();
    r.load(IReg::R1, isa::Mem::abs(word_));  // plain load, no acquire
    r.iaddi(IReg::R0, IReg::R0, 1);
    r.bri(isa::BrCond::kLt, IReg::R0, kIters, rloop);
    r.exit();
    return {w.take(), r.take()};
  }

  bool verify(const core::Machine& m) const override {
    const int64_t v = m.memory().read_i64(word_);
    return v >= 0 && v <= kIters;  // any interleaving lands here
  }

  core::MemInfo mem_info() const override {
    // The word is deliberately registered as *data*, not sync: the whole
    // point is that these accesses carry no happens-before edges.
    return {regions_, {}, true};
  }

 private:
  std::string name_ = "selftest.race";
  Addr word_ = 0;
  std::vector<mem::MemoryLayout::Region> regions_;
};

/// Emits a seeded verifier violation (an uninitialized-register read)
/// when SMT_SELFTEST_LINT_BREAK is set in the environment — the sweep's
/// --lint gate smoke flips it on to exercise the structured
/// "lint_failed" outcome end to end. Clean otherwise, so the
/// registry-wide zero-error lint gates hold.
class LintTrapWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(core::Machine&) override {}
  std::vector<isa::Program> programs() const override {
    isa::AsmBuilder a("lint-trap");
    if (std::getenv("SMT_SELFTEST_LINT_BREAK") != nullptr) {
      a.iaddi(isa::IReg::R0, isa::IReg::R1, 1);  // R1 never written
    } else {
      a.imovi(isa::IReg::R0, 1);
    }
    a.exit();
    return {a.take()};
  }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::string name_ = "selftest.lint";
};

/// Completes fine but fails its result check.
class VerifyFailWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(core::Machine& m) override { m.memory().write_i64(0xa000, 1); }
  std::vector<isa::Program> programs() const override {
    isa::AsmBuilder a("noop");
    a.exit();
    return {a.take()};
  }
  bool verify(const core::Machine& m) const override {
    return m.memory().read_i64(0xa000) == 2;  // never: the program wrote 1
  }

 private:
  std::string name_ = "selftest.verify-fail";
};

// ---------------------------------------------------------------------------
// Registry construction: the bench binaries' non-full-mode suites.
// ---------------------------------------------------------------------------

std::vector<ExperimentDef> build_registry() {
  std::vector<ExperimentDef> defs;

  // Figure 3: MM, five variants at n = 64 and 128 (bench/fig3_matmul.cc).
  for (size_t n : {size_t{64}, size_t{128}}) {
    for (MmMode mode :
         {MmMode::kSerial, MmMode::kTlpFine, MmMode::kTlpCoarse,
          MmMode::kTlpPfetch, MmMode::kTlpPfetchWork}) {
      ExperimentDef d;
      d.name = std::string("mm.") + kernels::name(mode) + ".n" +
               std::to_string(n);
      d.make = [mode, n] {
        kernels::MatMulParams p;
        p.n = n;
        p.tile = 16;
        p.mode = mode;
        p.halt_barriers = mode == MmMode::kTlpPfetch ||
                          mode == MmMode::kTlpPfetchWork;
        return std::make_unique<kernels::MatMulWorkload>(p);
      };
      defs.push_back(std::move(d));
    }
  }

  // Figure 4: LU, three variants at n = 64 and 128 (bench/fig4_lu.cc).
  for (size_t n : {size_t{64}, size_t{128}}) {
    for (LuMode mode :
         {LuMode::kSerial, LuMode::kTlpCoarse, LuMode::kTlpPfetch}) {
      ExperimentDef d;
      d.name = std::string("lu.") + kernels::name(mode) + ".n" +
               std::to_string(n);
      d.make = [mode, n] {
        kernels::LuParams p;
        p.n = n;
        p.tile = 16;
        p.mode = mode;
        return std::make_unique<kernels::LuWorkload>(p);
      };
      defs.push_back(std::move(d));
    }
  }

  // Figure 5: NAS CG and BT (bench/fig5_nas.cc).
  for (CgMode mode : {CgMode::kSerial, CgMode::kTlpCoarse, CgMode::kTlpPfetch,
                      CgMode::kTlpPfetchWork}) {
    ExperimentDef d;
    d.name = std::string("cg.") + kernels::name(mode);
    d.make = [mode] {
      kernels::CgParams p;
      p.n = 8192;
      p.nz_per_row = 8;
      p.iters = 6;
      p.mode = mode;
      return std::make_unique<kernels::CgWorkload>(p);
    };
    defs.push_back(std::move(d));
  }
  for (BtMode mode :
       {BtMode::kSerial, BtMode::kTlpCoarse, BtMode::kTlpPfetch}) {
    ExperimentDef d;
    d.name = std::string("bt.") + kernels::name(mode);
    d.make = [mode] {
      kernels::BtParams p;
      p.lines = 64;
      p.cells = 32;
      p.mode = mode;
      return std::make_unique<kernels::BtWorkload>(p);
    };
    defs.push_back(std::move(d));
  }

  // Self tests: structured-failure probes, excluded from the default
  // manifest (CI injects them by name).
  {
    ExperimentDef d;
    d.name = "selftest.deadlock";
    d.make = [] { return std::make_unique<DeadlockWorkload>(); };
    d.in_default_manifest = false;
    defs.push_back(std::move(d));
  }
  {
    ExperimentDef d;
    d.name = "selftest.budget";
    d.make = [] { return std::make_unique<BudgetWorkload>(); };
    d.cycle_budget = 100'000;  // the count loop needs orders of magnitude more
    d.in_default_manifest = false;
    defs.push_back(std::move(d));
  }
  {
    ExperimentDef d;
    d.name = "selftest.verify-fail";
    d.make = [] { return std::make_unique<VerifyFailWorkload>(); };
    d.in_default_manifest = false;
    defs.push_back(std::move(d));
  }
  {
    ExperimentDef d;
    d.name = "selftest.lint";
    d.make = [] { return std::make_unique<LintTrapWorkload>(); };
    d.in_default_manifest = false;
    defs.push_back(std::move(d));
  }
  {
    ExperimentDef d;
    d.name = "selftest.race";
    d.make = [] { return std::make_unique<RaceWorkload>(); };
    d.in_default_manifest = false;
    d.race_detect = true;
    defs.push_back(std::move(d));
  }
  {
    // Rides the mm.serial.n64 workload so the surviving retry's report is
    // byte-comparable against that job's reference artifact; the injected
    // first-attempt timeout (and the garbage files it strands) happens in
    // the sweep's job fn, before any simulation.
    ExperimentDef d;
    d.name = "selftest.timeout-once";
    d.make = [] {
      kernels::MatMulParams p;
      p.n = 64;
      p.tile = 16;
      p.mode = MmMode::kSerial;
      return std::make_unique<kernels::MatMulWorkload>(p);
    };
    d.in_default_manifest = false;
    d.timeout_first_attempt = true;
    defs.push_back(std::move(d));
  }

  return defs;
}

}  // namespace

namespace detail {

void check_registry_invariants(const std::vector<ExperimentDef>& defs) {
  std::set<std::string> names;
  std::map<std::string, std::string> files;  // sanitized key -> first owner
  for (const ExperimentDef& d : defs) {
    SMT_CHECK_MSG(!d.name.empty(), "experiment with empty name");
    SMT_CHECK_MSG(names.insert(d.name).second,
                  ("duplicate experiment name: " + d.name).c_str());
    const auto [it, fresh] =
        files.emplace(sanitize_artifact_key(d.name), d.name);
    SMT_CHECK_MSG(
        fresh,
        ("artifact filename collision: " + d.name + " vs " + it->second)
            .c_str());
  }
}

}  // namespace detail

const std::vector<ExperimentDef>& experiments() {
  static const std::vector<ExperimentDef> defs = [] {
    std::vector<ExperimentDef> d = build_registry();
    detail::check_registry_invariants(d);
    return d;
  }();
  return defs;
}

const ExperimentDef* find_experiment(const std::string& name) {
  for (const ExperimentDef& d : experiments()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> default_manifest() {
  std::vector<std::string> names;
  for (const ExperimentDef& d : experiments()) {
    if (d.in_default_manifest) names.push_back(d.name);
  }
  return names;
}

WorkloadLint lint_workload(core::Workload& w) {
  core::Machine m;
  w.setup(m);
  analysis::LintOptions opt;
  const core::MemInfo mi = w.mem_info();
  for (const auto* regions : {&mi.data, &mi.sync}) {
    for (const auto& r : *regions) {
      opt.extents.push_back({r.base, r.bytes, r.name});
    }
  }
  opt.extents_complete = mi.complete;
  WorkloadLint out;
  out.programs = w.programs();
  out.diags = analysis::lint_concurrency(out.programs);
  for (size_t i = 0; i < out.programs.size(); ++i) {
    std::vector<analysis::Diagnostic>& d = out.diags[i];
    const std::vector<analysis::Diagnostic> own =
        analysis::lint_program(out.programs[i], opt);
    d.insert(d.end(), own.begin(), own.end());
    std::stable_sort(d.begin(), d.end(), analysis::diagnostic_before);
  }
  return out;
}

namespace {
constexpr char kLintReportSchema[] = "smt-lint-report/1";
}  // namespace

LintTotals lint_totals(const std::vector<ExperimentLint>& lints) {
  LintTotals t;
  t.experiments = static_cast<int>(lints.size());
  for (const ExperimentLint& e : lints) {
    for (const std::vector<analysis::Diagnostic>& diags : e.lint.diags) {
      ++t.programs;
      t.errors += analysis::count_severity(diags, analysis::Severity::kError);
      t.warnings +=
          analysis::count_severity(diags, analysis::Severity::kWarning);
    }
  }
  return t;
}

std::string lint_report_json(const std::vector<ExperimentLint>& lints) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kLintReportSchema);
  w.key("experiments");
  w.begin_array();
  for (const ExperimentLint& e : lints) {
    w.begin_object();
    w.kv("name", e.name);
    w.key("programs");
    w.begin_array();
    for (size_t i = 0; i < e.lint.programs.size(); ++i) {
      w.begin_object();
      w.kv("name", e.lint.programs[i].name());
      w.key("diagnostics");
      w.begin_array();
      for (const analysis::Diagnostic& d : e.lint.diags[i]) {
        w.begin_object();
        w.kv("check", analysis::name(d.check));
        w.kv("severity", analysis::name(d.severity));
        w.kv("pc", static_cast<uint64_t>(d.pc));
        w.kv("block", static_cast<uint64_t>(d.block));
        w.kv("message", d.message);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  const LintTotals t = lint_totals(lints);
  w.key("totals");
  w.begin_object();
  w.kv("errors", static_cast<uint64_t>(t.errors));
  w.kv("warnings", static_cast<uint64_t>(t.warnings));
  w.kv("programs", t.programs);
  w.kv("experiments", t.experiments);
  w.end_object();
  w.end_object();
  return w.str();
}

std::vector<std::string> check_lint_report(const JsonValue& report) {
  const JsonValue* schema = report.find("schema");
  if (schema == nullptr || schema->string != kLintReportSchema) {
    return {"missing/unknown schema"};
  }
  const JsonValue* experiments = report.find("experiments");
  const JsonValue* totals = report.find("totals");
  if (experiments == nullptr || !experiments->is_array() ||
      totals == nullptr || !totals->is_object()) {
    return {"missing experiments/totals"};
  }
  double errors = 0, warnings = 0, programs = 0;
  for (const JsonValue& exp : experiments->array) {
    const JsonValue* name = exp.find("name");
    const JsonValue* progs = exp.find("programs");
    if (name == nullptr || !name->is_string() || progs == nullptr ||
        !progs->is_array()) {
      return {"malformed experiment entry"};
    }
    for (const JsonValue& prog : progs->array) {
      ++programs;
      const JsonValue* pname = prog.find("name");
      const JsonValue* diags = prog.find("diagnostics");
      if (pname == nullptr || !pname->is_string() || diags == nullptr ||
          !diags->is_array()) {
        return {"malformed program entry"};
      }
      for (const JsonValue& d : diags->array) {
        const JsonValue* check = d.find("check");
        const JsonValue* severity = d.find("severity");
        const JsonValue* message = d.find("message");
        if (check == nullptr || !check->is_string() || severity == nullptr ||
            !severity->is_string() || message == nullptr ||
            !message->is_string() || !has_number(d, "pc") ||
            !has_number(d, "block")) {
          return {"malformed diagnostic entry"};
        }
        if (severity->string == "error") {
          ++errors;
        } else if (severity->string == "warning") {
          ++warnings;
        } else {
          return {"unknown severity \"" + severity->string + "\""};
        }
      }
    }
  }
  std::vector<std::string> findings;
  const struct {
    const char* key;
    double want;
  } recount[] = {{"errors", errors},
                 {"warnings", warnings},
                 {"programs", programs},
                 {"experiments",
                  static_cast<double>(experiments->array.size())}};
  for (const auto& [key, want] : recount) {
    const double got = number_or(*totals, key, -1.0);
    if (got != want) {
      findings.push_back(std::string("totals.") + key + " is " + fmt(got, 0) +
                         ", recount says " + fmt(want, 0));
    }
  }
  return findings;
}

}  // namespace smt::host
