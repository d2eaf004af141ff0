// smt_lint: the guest-program verifier's static front end.
//
// Usage:
//   smt_lint [NAME...]    lint every experiment in the host registry (or
//                         only the named ones) through host::lint_workload:
//                         each workload is built on a fresh machine, every
//                         emitted program is run through
//                         analysis::lint_program with the workload's
//                         registered extents, then through the
//                         cross-program concurrency checks
//                         (analysis::lint_concurrency). Exit 0 iff no
//                         error-severity diagnostics; 2 when a NAME is not
//                         in the registry.
//   --werror              treat warnings as errors for the exit status
//   --format=json         emit the smt-lint-report/1 document on stdout
//                         instead of the text listing (host::
//                         lint_report_json, src/host/experiments.h; its
//                         validator is host::check_lint_report, which
//                         check_reports --lint-report runs)
//   smt_lint --list       print the registry and the lint check set
//   smt_lint --selftest   emit one deliberately broken program per check
//                         and require the lint to catch each one (the
//                         negative-case gate CI runs)
//
// The dynamic half of the verifier (the happens-before race detector)
// runs inside the simulation; see core::RunOptions::race_detect and the
// selftest.race sweep job.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/log.h"
#include "host/experiments.h"
#include "isa/asm_builder.h"
#include "sync/primitives.h"

namespace {

using smt::analysis::Check;
using smt::analysis::Diagnostic;
using smt::analysis::LintOptions;
using smt::analysis::Severity;
using smt::isa::AsmBuilder;
using smt::isa::BrCond;
using smt::isa::IReg;
using smt::isa::Label;
using smt::isa::Mem;

int lint_registry(const std::vector<std::string>& names, bool json,
                  bool werror) {
  bool unknown = false;
  for (const std::string& name : names) {
    if (smt::host::find_experiment(name) == nullptr) {
      smt::log::error("unknown experiment", {{"name", name}});
      unknown = true;
    }
  }
  if (unknown) return 2;
  std::vector<smt::host::ExperimentLint> lints;
  for (const smt::host::ExperimentDef& def : smt::host::experiments()) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), def.name) != names.end()) {
      lints.push_back({def.name, smt::host::lint_workload(*def.make())});
    }
  }
  const smt::host::LintTotals total = smt::host::lint_totals(lints);
  if (json) {
    std::printf("%s\n", smt::host::lint_report_json(lints).c_str());
  } else {
    for (const smt::host::ExperimentLint& e : lints) {
      for (size_t i = 0; i < e.lint.programs.size(); ++i) {
        const smt::isa::Program& p = e.lint.programs[i];
        const std::vector<Diagnostic>& diags = e.lint.diags[i];
        if (diags.empty()) continue;
        std::fputs(smt::analysis::format_diagnostics(p, diags).c_str(),
                   stdout);
      }
    }
    std::printf(
        "smt_lint: %zu error(s), %zu warning(s) across %d program(s) in %d "
        "experiment(s)\n",
        total.errors, total.warnings, total.programs, total.experiments);
  }
  return total.errors > 0 || (werror && total.warnings > 0) ? 1 : 0;
}

// ---------------------------------------------------------------------------
// --selftest: one seeded violation per check; the lint must catch each.
// ---------------------------------------------------------------------------

bool report_expected(const char* what, const smt::isa::Program& p,
                     const std::vector<Diagnostic>& diags, Check check,
                     const Severity* severity) {
  for (const Diagnostic& d : diags) {
    if (d.check == check && (severity == nullptr || d.severity == *severity)) {
      std::printf("caught %-18s %s", what,
                  smt::analysis::format_diagnostics(p, {d}).c_str());
      return true;
    }
  }
  smt::log::error("selftest check missed", {{"seed", what},
                                            {"expected",
                                             smt::analysis::name(check)}});
  std::fputs(smt::analysis::format_diagnostics(p, diags).c_str(), stderr);
  return false;
}

bool expect_check(const char* what, const smt::isa::Program& p,
                  const LintOptions& opt, Check check,
                  const Severity* severity = nullptr) {
  return report_expected(what, p, smt::analysis::lint_program(p, opt), check,
                         severity);
}

bool expect_concurrency(const char* what,
                        const std::vector<smt::isa::Program>& programs,
                        Check check) {
  const std::vector<std::vector<Diagnostic>> diags =
      smt::analysis::lint_concurrency(programs);
  bool ok = false;
  for (size_t i = 0; i < diags.size(); ++i) {
    for (const Diagnostic& d : diags[i]) {
      if (d.check == check) {
        if (!ok) {
          std::printf(
              "caught %-18s %s", what,
              smt::analysis::format_diagnostics(programs[i], {d}).c_str());
        }
        ok = true;
      }
    }
  }
  if (!ok) {
    smt::log::error("selftest check missed", {{"seed", what},
                                              {"expected",
                                               smt::analysis::name(check)}});
    for (size_t i = 0; i < diags.size(); ++i) {
      std::fputs(
          smt::analysis::format_diagnostics(programs[i], diags[i]).c_str(),
          stderr);
    }
  }
  return ok;
}

int selftest() {
  bool ok = true;
  constexpr Severity kWarn = Severity::kWarning;
  constexpr Severity kErr = Severity::kError;

  {  // Read of a never-written register.
    AsmBuilder a("seed.uninit-read");
    a.iaddi(IReg::R0, IReg::R1, 1);  // R1 never written
    a.exit();
    ok &= expect_check("uninit-read", a.take(), {}, Check::kUninitRead);
  }
  {  // Spin region asked for pause but its loop has none.
    AsmBuilder a("seed.missing-pause");
    a.imovi(IReg::R1, 1);
    a.begin_sync_region("spin", smt::isa::reg_bit(IReg::R0), /*is_spin=*/true,
                        /*wants_pause=*/true);
    const Label loop = a.here();
    a.load(IReg::R0, Mem::abs(0x8000));
    a.bri(BrCond::kNe, IReg::R0, 1, loop);  // no pause in the loop body
    a.end_sync_region();
    a.exit();
    ok &= expect_check("missing-pause", a.take(), {}, Check::kMissingPause,
                       &kWarn);
  }
  {  // Lock acquired but never released on the exit path.
    AsmBuilder a("seed.unpaired-lock");
    smt::sync::emit_lock_acquire(a, 0x8040, IReg::R2,
                                 smt::sync::SpinKind::kPause);
    a.exit();  // still holding the lock
    ok &= expect_check("lock-pairing", a.take(), {}, Check::kLockPairing);
  }
  {  // Emitter writes a register outside its declared may_write set.
    AsmBuilder a("seed.region-discipline");
    a.begin_sync_region("flag_set", smt::isa::reg_bit(IReg::R0));
    a.imovi(IReg::R0, 1);
    a.imovi(IReg::R5, 7);  // stray write: R5 is the kernel's register
    a.store(IReg::R0, Mem::abs(0x8000));
    a.end_sync_region();
    a.exit();
    ok &= expect_check("sync-region-write", a.take(), {},
                       Check::kSyncRegionWrite);
  }
  {  // Absolute-address store outside every registered extent.
    AsmBuilder a("seed.out-of-extent");
    a.imovi(IReg::R0, 1);
    a.store(IReg::R0, Mem::abs(0x9000));  // extents only cover 0x10000+
    a.exit();
    LintOptions opt;
    opt.extents.push_back({0x10000, 4096, "A"});
    opt.extents_complete = true;
    ok &= expect_check("out-of-extent", a.take(), opt,
                       Check::kOutOfExtentStore, &kErr);
  }
  {  // Off-by-one loop bound: the store's address RANGE (from the
     // interval analysis) runs one element past the extent.
    AsmBuilder a("seed.range-overrun");
    a.imovi(IReg::R0, 1);
    a.imovi(IReg::R1, 0x10000);
    const Label top = a.here();
    a.store(IReg::R0, Mem::bd(IReg::R1));
    a.iaddi(IReg::R1, IReg::R1, 8);
    a.bri(BrCond::kLe, IReg::R1, 0x10040, top);  // last store overruns
    a.exit();
    LintOptions opt;
    opt.extents.push_back({0x10000, 64, "A"});  // 8 slots: 0x10000..0x10038
    opt.extents_complete = true;
    ok &= expect_check("range-out-of-extent", a.take(), opt,
                       Check::kOutOfExtentStore, &kWarn);
  }
  {  // Code no path reaches.
    AsmBuilder a("seed.unreachable");
    const Label end = a.label();
    a.jmp(end);
    a.nop();  // skipped forever
    a.bind(end);
    a.exit();
    ok &= expect_check("unreachable", a.take(), {}, Check::kUnreachable,
                       &kWarn);
  }
  {  // A reachable path runs past the end of the program. The builder's
     // take() refuses to emit this, so construct the Program directly —
     // exactly the hand-built corner the CFG must survive.
    std::vector<smt::isa::Instr> code(1);
    code[0].op = smt::isa::Opcode::kNop;
    const smt::isa::Program p("seed.fall-off-end", std::move(code));
    ok &= expect_check("fall-off-end", p, {}, Check::kFallOffEnd);
  }
  {  // One CPU reaches a barrier episode its sibling never emits: the
     // sibling would spin forever waiting for the rendezvous.
    AsmBuilder a("seed.barrier-a");
    a.begin_sync_region("barrier_wait", 0);
    a.nop();
    a.end_sync_region();
    a.exit();
    AsmBuilder b("seed.barrier-b");
    b.nop();  // no barrier episode at all
    b.exit();
    std::vector<smt::isa::Program> programs;
    programs.push_back(a.take());
    programs.push_back(b.take());
    ok &= expect_concurrency("barrier-mismatch", programs,
                             Check::kBarrierMismatch);
  }
  {  // Two CPUs take the same pair of locks in opposite orders.
    AsmBuilder a("seed.lock-order-a");
    smt::sync::emit_lock_acquire(a, 0x8040, IReg::R2,
                                 smt::sync::SpinKind::kPause);
    smt::sync::emit_lock_acquire(a, 0x8080, IReg::R2,
                                 smt::sync::SpinKind::kPause);
    smt::sync::emit_lock_release(a, 0x8080, IReg::R2);
    smt::sync::emit_lock_release(a, 0x8040, IReg::R2);
    a.exit();
    AsmBuilder b("seed.lock-order-b");
    smt::sync::emit_lock_acquire(b, 0x8080, IReg::R2,
                                 smt::sync::SpinKind::kPause);
    smt::sync::emit_lock_acquire(b, 0x8040, IReg::R2,
                                 smt::sync::SpinKind::kPause);
    smt::sync::emit_lock_release(b, 0x8040, IReg::R2);
    smt::sync::emit_lock_release(b, 0x8080, IReg::R2);
    b.exit();
    std::vector<smt::isa::Program> programs;
    programs.push_back(a.take());
    programs.push_back(b.take());
    ok &= expect_concurrency("lock-order", programs, Check::kLockOrder);
  }

  return ok ? 0 : 1;
}

void list_registry() {
  std::puts("lint checks:");
  for (int c = 0; c < static_cast<int>(Check::kNumChecks); ++c) {
    std::printf("  %s\n", smt::analysis::name(static_cast<Check>(c)));
  }
  std::puts("experiments:");
  for (const smt::host::ExperimentDef& def : smt::host::experiments()) {
    std::printf("  %s\n", def.name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  bool json = false;
  bool werror = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) return selftest();
    if (std::strcmp(argv[i], "--list") == 0) {
      list_registry();
      return 0;
    }
    if (std::strcmp(argv[i], "--format=json") == 0) {
      json = true;
      continue;
    }
    if (std::strcmp(argv[i], "--werror") == 0) {
      werror = true;
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(
          stderr,
          "usage: smt_lint [--list | --selftest | [--format=json] "
          "[--werror] NAME...]\n");
      return 2;
    }
    names.emplace_back(argv[i]);
  }
  return lint_registry(names, json, werror);
}
