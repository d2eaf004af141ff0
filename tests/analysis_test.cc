// Tests for the static half of the guest-program verifier: CFG
// construction (including the empty-program and self-loop edge cases),
// every lint rule (positive and negative), severity levels, diagnostic
// determinism, the cross-program concurrency checks, the classification
// guard over the full opcode set, the emitter scratch-alias checks, and
// the registry-wide lint-clean gate.
#include <algorithm>
#include <cstdlib>
#include <set>
#include <tuple>

#include "analysis/cfg.h"
#include "analysis/lint.h"
#include "core/machine.h"
#include "gtest/gtest.h"
#include "host/experiments.h"
#include "isa/asm_builder.h"
#include "isa/disasm.h"
#include "sync/primitives.h"

namespace smt {
namespace {

using analysis::Cfg;
using analysis::Check;
using analysis::Diagnostic;
using analysis::LintOptions;
using analysis::Severity;
using analysis::lint_concurrency;
using analysis::lint_program;
using isa::AsmBuilder;
using isa::BrCond;
using isa::FReg;
using isa::IReg;
using isa::Label;
using isa::Mem;
using isa::Opcode;
using isa::reg_bit;

bool has_check(const std::vector<Diagnostic>& ds, Check c) {
  for (const Diagnostic& d : ds) {
    if (d.check == c) return true;
  }
  return false;
}

const Diagnostic* find_check(const std::vector<Diagnostic>& ds, Check c) {
  for (const Diagnostic& d : ds) {
    if (d.check == c) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

TEST(Cfg, StraightLineIsOneBlock) {
  AsmBuilder a("straight");
  a.imovi(IReg::R0, 1);
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.exit();
  const Cfg g = Cfg::build(a.take());
  ASSERT_EQ(g.blocks.size(), 1u);
  EXPECT_EQ(g.blocks[0].begin, 0u);
  EXPECT_EQ(g.blocks[0].end, 3u);
  EXPECT_TRUE(g.blocks[0].reachable);
  EXPECT_FALSE(g.blocks[0].falls_off_end);
  EXPECT_TRUE(g.blocks[0].succs.empty());
}

TEST(Cfg, EmptyProgramYieldsEmptyCfg) {
  const Cfg g = Cfg::build(isa::Program("empty", {}));
  EXPECT_TRUE(g.blocks.empty());
  EXPECT_TRUE(g.block_of.empty());
}

TEST(Cfg, SingleInstructionSelfLoopBlock) {
  // `0: jmp 0` — one block that is its own predecessor and successor.
  std::vector<isa::Instr> code(1);
  code[0].op = Opcode::kJmp;
  code[0].target = 0;
  const Cfg g = Cfg::build(isa::Program("self", std::move(code)));
  ASSERT_EQ(g.blocks.size(), 1u);
  EXPECT_EQ(g.blocks[0].begin, 0u);
  EXPECT_EQ(g.blocks[0].end, 1u);
  EXPECT_TRUE(g.blocks[0].reachable);
  EXPECT_FALSE(g.blocks[0].falls_off_end);
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{0}));
  EXPECT_EQ(g.blocks[0].preds, (std::vector<uint32_t>{0}));
}

TEST(Cfg, LoopSplitsBlocksAndLinksBackEdge) {
  AsmBuilder a("loop");
  a.imovi(IReg::R0, 0);            // b0
  const Label loop = a.here();     // b1: loop body
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 8, loop);
  a.exit();                        // b2
  const Cfg g = Cfg::build(a.take());
  ASSERT_EQ(g.blocks.size(), 3u);
  // b0 -> b1; b1 -> {b1 (taken), b2 (fall)}; b2 terminal.
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{1}));
  const std::set<uint32_t> s1(g.blocks[1].succs.begin(),
                              g.blocks[1].succs.end());
  EXPECT_EQ(s1, (std::set<uint32_t>{1, 2}));
  EXPECT_TRUE(g.blocks[2].succs.empty());
  for (const analysis::BasicBlock& b : g.blocks) EXPECT_TRUE(b.reachable);
  // block_of maps every pc into its containing block.
  EXPECT_EQ(g.block_of[0], 0u);
  EXPECT_EQ(g.block_of[1], 1u);
  EXPECT_EQ(g.block_of[2], 1u);
  EXPECT_EQ(g.block_of[3], 2u);
}

TEST(Cfg, EveryInstructionBelongsToExactlyOneBlock) {
  AsmBuilder a("cover");
  const Label skip = a.label();
  a.imovi(IReg::R0, 3);
  a.bri(BrCond::kEq, IReg::R0, 0, skip);
  a.iaddi(IReg::R0, IReg::R0, -1);
  a.bind(skip);
  a.exit();
  const isa::Program p = a.take();
  const Cfg g = Cfg::build(p);
  std::vector<int> owners(p.size(), 0);
  for (const analysis::BasicBlock& b : g.blocks) {
    for (uint32_t pc = b.begin; pc < b.end; ++pc) owners[pc]++;
  }
  for (size_t pc = 0; pc < p.size(); ++pc) EXPECT_EQ(owners[pc], 1);
}

// ---------------------------------------------------------------------------
// Lint rules, one positive and one negative case each
// ---------------------------------------------------------------------------

TEST(Lint, CleanProgramHasNoDiagnostics) {
  AsmBuilder a("clean");
  a.imovi(IReg::R0, 0);
  const Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 4, loop);
  a.exit();
  EXPECT_TRUE(lint_program(a.take()).empty());
}

TEST(Lint, UninitReadCaught) {
  AsmBuilder a("uninit");
  a.iadd(IReg::R0, IReg::R1, IReg::R2);  // R1, R2 never written
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  ASSERT_TRUE(has_check(d, Check::kUninitRead));
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].pc, 0u);
  EXPECT_EQ(d[0].block, 0u);
  EXPECT_NE(d[0].message.find("r1"), std::string::npos);
  EXPECT_NE(d[0].message.find("r2"), std::string::npos);
}

TEST(Lint, UninitReadOnOnePathOnlyIsStillCaught) {
  // Must-analysis: a register written on only one of two joining paths is
  // not definitely written at the join.
  AsmBuilder a("one-path");
  const Label join = a.label();
  a.imovi(IReg::R0, 0);
  a.bri(BrCond::kEq, IReg::R0, 0, join);
  a.imovi(IReg::R1, 5);  // only the fall-through path writes R1
  a.bind(join);
  a.iaddi(IReg::R2, IReg::R1, 1);
  a.exit();
  EXPECT_TRUE(has_check(lint_program(a.take()), Check::kUninitRead));
}

TEST(Lint, AssumedWrittenSuppressesUninitRead) {
  AsmBuilder a("assumed");
  a.iaddi(IReg::R0, IReg::R1, 1);
  a.exit();
  LintOptions opt;
  opt.assumed_written = reg_bit(IReg::R1);
  EXPECT_TRUE(lint_program(a.take(), opt).empty());
}

TEST(Lint, FpRegistersTrackedSeparatelyFromInt) {
  AsmBuilder a("fp");
  a.imovi(IReg::R0, 1);   // writes int r0 ...
  a.fadd(FReg::F1, FReg::F0, FReg::F0);  // ... which must not cover fp f0
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  ASSERT_TRUE(has_check(d, Check::kUninitRead));
  EXPECT_NE(d[0].message.find("f0"), std::string::npos);
}

TEST(Lint, SyncRegionDisciplineViolationCaught) {
  AsmBuilder a("discipline");
  a.begin_sync_region("flag_set", reg_bit(IReg::R0));
  a.imovi(IReg::R0, 1);   // declared
  a.imovi(IReg::R7, 2);   // stray
  a.store(IReg::R0, Mem::abs(0x8000));
  a.end_sync_region();
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  ASSERT_TRUE(has_check(d, Check::kSyncRegionWrite));
  EXPECT_FALSE(has_check(d, Check::kMissingPause));
}

TEST(Lint, EmitterAnnotatedSpinWithPauseIsClean) {
  AsmBuilder a("spin-ok");
  sync::emit_spin_until_eq(a, 0x8000, IReg::R0, 1, sync::SpinKind::kPause);
  a.exit();
  EXPECT_TRUE(lint_program(a.take()).empty());
}

TEST(Lint, MissingPauseIsAWarningAndTightSpinExempt) {
  // kPause requested but the loop body has no pause.
  AsmBuilder a("no-pause");
  a.begin_sync_region("spin", reg_bit(IReg::R0), /*is_spin=*/true,
                      /*wants_pause=*/true);
  const Label loop = a.here();
  a.load(IReg::R0, Mem::abs(0x8000));
  a.bri(BrCond::kNe, IReg::R0, 1, loop);
  a.end_sync_region();
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  const Diagnostic* mp = find_check(d, Check::kMissingPause);
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(mp->severity, Severity::kWarning);

  // An explicitly tight spin promises no pause — not a finding.
  AsmBuilder b("tight");
  sync::emit_spin_until_eq(b, 0x8000, IReg::R0, 1, sync::SpinKind::kTight);
  b.exit();
  EXPECT_TRUE(lint_program(b.take()).empty());
}

TEST(Lint, PairedLockIsCleanUnpairedCaught) {
  {
    AsmBuilder a("paired");
    sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
    a.imovi(IReg::R0, 7);  // critical section
    sync::emit_lock_release(a, 0x8040, IReg::R3);
    a.exit();
    EXPECT_TRUE(lint_program(a.take()).empty());
  }
  {
    AsmBuilder a("unpaired");
    sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
    a.exit();
    const std::vector<Diagnostic> d = lint_program(a.take());
    const Diagnostic* lp = find_check(d, Check::kLockPairing);
    ASSERT_NE(lp, nullptr);
    EXPECT_EQ(lp->severity, Severity::kError);
    EXPECT_NE(lp->message.find("held at exit"), std::string::npos);
  }
}

TEST(Lint, DoubleAcquireAndFreeReleaseCaught) {
  {
    AsmBuilder a("double-acquire");
    sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
    sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
    sync::emit_lock_release(a, 0x8040, IReg::R3);
    a.exit();
    const std::vector<Diagnostic> d = lint_program(a.take());
    const Diagnostic* lp = find_check(d, Check::kLockPairing);
    ASSERT_NE(lp, nullptr);
    EXPECT_NE(lp->message.find("double acquire"), std::string::npos);
  }
  {
    AsmBuilder a("free-release");
    sync::emit_lock_release(a, 0x8040, IReg::R3);
    a.exit();
    const std::vector<Diagnostic> d = lint_program(a.take());
    const Diagnostic* lp = find_check(d, Check::kLockPairing);
    ASSERT_NE(lp, nullptr);
    EXPECT_NE(lp->message.find("not held"), std::string::npos);
  }
}

TEST(Lint, TwoIndependentLockWordsDoNotInterfere) {
  AsmBuilder a("two-locks");
  sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
  sync::emit_lock_acquire(a, 0x8080, IReg::R4, sync::SpinKind::kPause);
  sync::emit_lock_release(a, 0x8080, IReg::R4);
  sync::emit_lock_release(a, 0x8040, IReg::R3);
  a.exit();
  EXPECT_TRUE(lint_program(a.take()).empty());
}

TEST(Lint, OutOfExtentStoreCaughtOnlyWhenExtentsComplete) {
  AsmBuilder a("oob");
  a.imovi(IReg::R0, 1);
  a.store(IReg::R0, Mem::abs(0x9000));
  a.exit();
  const isa::Program p = a.take();

  LintOptions opt;
  opt.extents.push_back({0x10000, 4096, "A"});
  EXPECT_TRUE(lint_program(p, opt).empty());  // incomplete: check off

  opt.extents_complete = true;
  const std::vector<Diagnostic> d = lint_program(p, opt);
  const Diagnostic* oob = find_check(d, Check::kOutOfExtentStore);
  ASSERT_NE(oob, nullptr);
  EXPECT_EQ(oob->severity, Severity::kError);

  // In-extent store stays clean under the same complete extents.
  AsmBuilder b("in-bounds");
  b.imovi(IReg::R0, 1);
  b.store(IReg::R0, Mem::abs(0x10000));
  b.exit();
  EXPECT_TRUE(lint_program(b.take(), opt).empty());
}

TEST(Lint, IntervalAnalysisProvesLoopStoresInExtent) {
  // A register-indexed store sweeping exactly the extent: the interval
  // analysis must bound the address range and prove containment.
  AsmBuilder a("range-ok");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 0x10000);
  const Label top = a.here();
  a.store(IReg::R0, Mem::bd(IReg::R1, 0));
  a.iaddi(IReg::R1, IReg::R1, 8);
  a.bri(BrCond::kLe, IReg::R1, 0x10000 + 56, top);
  a.exit();
  LintOptions opt;
  opt.extents.push_back({0x10000, 64, "A"});
  opt.extents_complete = true;
  EXPECT_TRUE(lint_program(a.take(), opt).empty());
}

TEST(Lint, LoopOvershootIsARangeWarningNotAnError) {
  // Same sweep with an off-by-one bound: the last store lands one word
  // past the extent, so the range partially escapes — a warning, since
  // some executions of the instruction are fine.
  AsmBuilder a("range-over");
  a.imovi(IReg::R0, 1);
  a.imovi(IReg::R1, 0x10000);
  const Label top = a.here();
  a.store(IReg::R0, Mem::bd(IReg::R1, 0));
  a.iaddi(IReg::R1, IReg::R1, 8);
  a.bri(BrCond::kLe, IReg::R1, 0x10000 + 64, top);
  a.exit();
  LintOptions opt;
  opt.extents.push_back({0x10000, 64, "A"});
  opt.extents_complete = true;
  const std::vector<Diagnostic> d = lint_program(a.take(), opt);
  const Diagnostic* oob = find_check(d, Check::kOutOfExtentStore);
  ASSERT_NE(oob, nullptr);
  EXPECT_EQ(oob->severity, Severity::kWarning);
}

TEST(Lint, UnreachableCodeIsAWarning) {
  AsmBuilder a("skip");
  const Label end = a.label();
  a.jmp(end);
  a.nop();
  a.bind(end);
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  const Diagnostic* un = find_check(d, Check::kUnreachable);
  ASSERT_NE(un, nullptr);
  EXPECT_EQ(un->severity, Severity::kWarning);
}

TEST(Lint, FallOffEndCaughtOnHandBuiltProgram) {
  std::vector<isa::Instr> code(2);
  code[0].op = Opcode::kNop;
  code[1].op = Opcode::kNop;  // no terminator
  const isa::Program p("raw", std::move(code));
  EXPECT_TRUE(has_check(lint_program(p), Check::kFallOffEnd));
}

TEST(Lint, EmptyProgramIsADiagnostic) {
  const isa::Program p("empty", {});
  const std::vector<Diagnostic> d = lint_program(p);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].check, Check::kFallOffEnd);
  EXPECT_EQ(d[0].severity, Severity::kError);
}

TEST(Lint, DiagnosticsAreDeterministicAndDeduplicated) {
  // A program with several defects: two runs must agree exactly, the
  // list must be sorted by (pc, check, severity, message), and no entry
  // may repeat.
  AsmBuilder a("multi");
  a.iadd(IReg::R0, IReg::R1, IReg::R2);  // uninit read
  const Label end = a.label();
  a.jmp(end);
  a.nop();                               // unreachable
  a.bind(end);
  sync::emit_lock_acquire(a, 0x8040, IReg::R3, sync::SpinKind::kPause);
  a.exit();                              // lock held at exit
  const isa::Program p = a.take();
  const std::vector<Diagnostic> d1 = lint_program(p);
  const std::vector<Diagnostic> d2 = lint_program(p);
  ASSERT_GE(d1.size(), 3u);
  ASSERT_EQ(d1.size(), d2.size());
  for (size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].check, d2[i].check);
    EXPECT_EQ(d1[i].pc, d2[i].pc);
    EXPECT_EQ(d1[i].message, d2[i].message);
    if (i > 0) {
      const auto key = [](const Diagnostic& d) {
        return std::make_tuple(d.pc, static_cast<int>(d.check),
                               static_cast<int>(d.severity), d.message);
      };
      EXPECT_LT(key(d1[i - 1]), key(d1[i]));  // strict: sorted + deduped
    }
  }
}

TEST(Lint, FormatCarriesProgramPcSeverityAndCheck) {
  AsmBuilder a("fmt");
  a.iaddi(IReg::R0, IReg::R1, 1);
  a.exit();
  const isa::Program p = a.take();
  const std::string s = analysis::format_diagnostics(p, lint_program(p));
  EXPECT_NE(s.find("fmt:0: error: uninit-read:"), std::string::npos);
}

TEST(Lint, CountSeveritySplitsErrorsFromWarnings) {
  AsmBuilder a("mixed");
  a.iaddi(IReg::R0, IReg::R1, 1);  // error: uninit read
  const Label end = a.label();
  a.jmp(end);
  a.nop();                         // warning: unreachable
  a.bind(end);
  a.exit();
  const std::vector<Diagnostic> d = lint_program(a.take());
  EXPECT_EQ(analysis::count_severity(d, Severity::kError), 1u);
  EXPECT_EQ(analysis::count_severity(d, Severity::kWarning), 1u);
}

// ---------------------------------------------------------------------------
// Cross-program concurrency checks
// ---------------------------------------------------------------------------

/// One barrier episode on the straight path to exit.
isa::Program barrier_program(const char* name) {
  AsmBuilder a(name);
  a.begin_sync_region("barrier_wait/test", reg_bit(IReg::R0));
  a.imovi(IReg::R0, 1);
  a.end_sync_region();
  a.exit();
  return a.take();
}

TEST(LintConcurrency, MatchedBarrierEpisodesAreClean) {
  const std::vector<isa::Program> ps = {barrier_program("a"),
                                        barrier_program("b")};
  for (const auto& d : lint_concurrency(ps)) EXPECT_TRUE(d.empty());
}

TEST(LintConcurrency, BarrierCountMismatchCaught) {
  AsmBuilder b("b");
  b.imovi(IReg::R0, 1);
  b.exit();
  const std::vector<isa::Program> ps = {barrier_program("a"), b.take()};
  const auto diags = lint_concurrency(ps);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_TRUE(has_check(diags[0], Check::kBarrierMismatch));
  EXPECT_TRUE(has_check(diags[1], Check::kBarrierMismatch));
}

TEST(LintConcurrency, ConditionallySkippedBarrierCaught) {
  // The barrier sits on only one side of a branch: a sibling that always
  // reaches its barrier would wait forever on the skipping path.
  AsmBuilder a("a");
  a.imovi(IReg::R0, 0);
  const Label skip = a.label();
  a.bri(BrCond::kEq, IReg::R0, 0, skip);
  a.begin_sync_region("barrier_wait/test", reg_bit(IReg::R1));
  a.imovi(IReg::R1, 1);
  a.end_sync_region();
  a.bind(skip);
  a.exit();
  const std::vector<isa::Program> ps = {a.take(), barrier_program("b")};
  const auto diags = lint_concurrency(ps);
  EXPECT_TRUE(has_check(diags[0], Check::kBarrierMismatch));
}

TEST(LintConcurrency, LockOrderInversionCaughtSameOrderClean) {
  const auto two_locks = [](const char* name, Addr first, Addr second) {
    AsmBuilder a(name);
    sync::emit_lock_acquire(a, first, IReg::R3, sync::SpinKind::kPause);
    sync::emit_lock_acquire(a, second, IReg::R4, sync::SpinKind::kPause);
    sync::emit_lock_release(a, second, IReg::R4);
    sync::emit_lock_release(a, first, IReg::R3);
    a.exit();
    return a.take();
  };
  {
    const std::vector<isa::Program> ps = {
        two_locks("a", 0x8040, 0x8080), two_locks("b", 0x8080, 0x8040)};
    const auto diags = lint_concurrency(ps);
    ASSERT_EQ(diags.size(), 2u);
    const Diagnostic* lo = find_check(diags[0], Check::kLockOrder);
    ASSERT_NE(lo, nullptr);
    EXPECT_EQ(lo->severity, Severity::kError);
    EXPECT_TRUE(has_check(diags[1], Check::kLockOrder));
  }
  {
    const std::vector<isa::Program> ps = {
        two_locks("a", 0x8040, 0x8080), two_locks("b", 0x8040, 0x8080)};
    for (const auto& d : lint_concurrency(ps)) EXPECT_TRUE(d.empty());
  }
}

// ---------------------------------------------------------------------------
// Opcode-set completeness: the classification guard (satellite 3)
// ---------------------------------------------------------------------------

/// A program exercising every opcode once, lint-clean by construction.
isa::Program all_opcodes_program() {
  AsmBuilder a("all-opcodes");
  a.imovi(IReg::R0, 1);                      // kIMovImm
  a.fmovi(FReg::F0, 1.0);                    // kFMovImm
  a.iadd(IReg::R1, IReg::R0, IReg::R0);      // kIAdd
  a.isub(IReg::R1, IReg::R1, IReg::R0);      // kISub
  a.imov(IReg::R2, IReg::R1);                // kIMov
  a.iand(IReg::R2, IReg::R2, IReg::R0);      // kIAnd
  a.ior(IReg::R2, IReg::R2, IReg::R0);       // kIOr
  a.ixor(IReg::R2, IReg::R2, IReg::R0);      // kIXor
  a.ishli(IReg::R2, IReg::R2, 1);            // kIShl
  a.ishri(IReg::R2, IReg::R2, 1);            // kIShr
  a.imul(IReg::R2, IReg::R2, IReg::R0);      // kIMul
  a.idiv(IReg::R2, IReg::R2, IReg::R0);      // kIDiv
  a.fadd(FReg::F1, FReg::F0, FReg::F0);      // kFAdd
  a.fsub(FReg::F1, FReg::F1, FReg::F0);      // kFSub
  a.fmul(FReg::F1, FReg::F1, FReg::F0);      // kFMul
  a.fdiv(FReg::F1, FReg::F1, FReg::F0);      // kFDiv
  a.fmov(FReg::F2, FReg::F1);                // kFMov
  a.fneg(FReg::F2, FReg::F2);                // kFNeg
  a.store(IReg::R0, Mem::abs(0x10000));      // kStore
  a.load(IReg::R3, Mem::abs(0x10000));       // kLoad
  a.fstore(FReg::F0, Mem::abs(0x10008));     // kFStore
  a.fload(FReg::F3, Mem::abs(0x10008));      // kFLoad
  a.prefetch(Mem::abs(0x10010));             // kPrefetch
  a.xchg(IReg::R0, Mem::abs(0x10018));       // kXchg
  const Label over = a.label();
  a.bri(BrCond::kEq, IReg::R0, 99, over);    // kBr
  a.pause();                                 // kPause
  a.ipi();                                   // kIpi
  a.halt();                                  // kHalt
  a.nop();                                   // kNop
  a.bind(over);
  const Label end = a.label();
  a.jmp(end);                                // kJmp
  a.bind(end);
  a.exit();                                  // kExit
  return a.take();
}

TEST(OpcodeCompleteness, ProgramCoversTheFullOpcodeSet) {
  const isa::Program p = all_opcodes_program();
  std::set<Opcode> seen;
  for (size_t pc = 0; pc < p.size(); ++pc) seen.insert(p.at(pc).op);
  EXPECT_EQ(seen.size(), static_cast<size_t>(Opcode::kNumOpcodes));
}

TEST(OpcodeCompleteness, DisasmRoundTripsEveryOpcode) {
  const isa::Program p = all_opcodes_program();
  for (size_t pc = 0; pc < p.size(); ++pc) {
    const std::string text = isa::disasm(p.at(pc));
    EXPECT_FALSE(text.empty()) << "pc " << pc;
    EXPECT_EQ(text.find('?'), std::string::npos)
        << "pc " << pc << ": " << text;
  }
}

TEST(OpcodeCompleteness, LintClassifiesAndCfgDecodesEveryOpcode) {
  const isa::Program p = all_opcodes_program();
  // reg_reads / reg_writes abort on an unclassifiable opcode — walking
  // the whole program proves the tables cover the ISA.
  for (size_t pc = 0; pc < p.size(); ++pc) {
    (void)analysis::reg_reads(p.at(pc));
    (void)analysis::reg_writes(p.at(pc));
  }
  // The CFG must place every instruction in exactly one block.
  const Cfg g = Cfg::build(p);
  std::vector<int> owners(p.size(), 0);
  for (const analysis::BasicBlock& b : g.blocks) {
    for (uint32_t pc = b.begin; pc < b.end; ++pc) owners[pc]++;
  }
  for (size_t pc = 0; pc < p.size(); ++pc) {
    EXPECT_EQ(owners[pc], 1) << "pc " << pc;
  }
  // And the whole thing lints clean.
  EXPECT_TRUE(lint_program(p).empty());
}

// ---------------------------------------------------------------------------
// Emitter scratch-alias guards (satellite 2)
// ---------------------------------------------------------------------------

TEST(SyncEmitterDeath, SpinUntilEqRegScratchMustNotAliasValueReg) {
  AsmBuilder a("alias");
  EXPECT_DEATH(sync::emit_spin_until_eq_reg(a, 0x8000, IReg::R1, IReg::R1,
                                            sync::SpinKind::kPause),
               "alias");
}

TEST(SyncEmitterDeath, SpinUntilGeRegScratchMustNotAliasValueReg) {
  AsmBuilder a("alias");
  EXPECT_DEATH(sync::emit_spin_until_ge_reg(a, 0x8000, IReg::R2, IReg::R2,
                                            sync::SpinKind::kTight),
               "alias");
}

TEST(SyncEmitter, DistinctScratchAndValueRegsAreAccepted) {
  AsmBuilder a("ok");
  a.imovi(IReg::R1, 3);
  sync::emit_spin_until_eq_reg(a, 0x8000, IReg::R0, IReg::R1,
                               sync::SpinKind::kPause);
  sync::emit_spin_until_ge_reg(a, 0x8000, IReg::R0, IReg::R1,
                               sync::SpinKind::kPause);
  a.exit();
  EXPECT_TRUE(lint_program(a.take()).empty());
}

TEST(SyncEmitterDeath, OpenSyncRegionAbortsTake) {
  AsmBuilder a("open-region");
  a.begin_sync_region("spin", 0);
  a.exit();
  EXPECT_DEATH(a.take(), "region");
}

// ---------------------------------------------------------------------------
// Registry-wide gate: every experiment's programs verify clean
// ---------------------------------------------------------------------------

TEST(LintRegistry, EveryExperimentProgramIsLintClean) {
  // selftest.lint seeds a violation only under this env var; the gate
  // asserts the *clean* registry.
  unsetenv("SMT_SELFTEST_LINT_BREAK");
  int programs = 0;
  for (const host::ExperimentDef& def : host::experiments()) {
    const host::WorkloadLint lint = host::lint_workload(*def.make());
    for (size_t i = 0; i < lint.programs.size(); ++i) {
      ++programs;
      // Zero errors *and* zero warnings: the figure suite is fully clean.
      EXPECT_TRUE(lint.diags[i].empty())
          << def.name << ":\n"
          << analysis::format_diagnostics(lint.programs[i], lint.diags[i]);
    }
  }
  EXPECT_GT(programs, 40);  // the registry is the full figure suite
}

/// Two programs taking locks 0x8040 and 0x8080 in opposite orders; the
/// first also reads a never-written register at pc 0.
class LockOrderPairWorkload : public core::Workload {
 public:
  const std::string& name() const override { return name_; }
  void setup(core::Machine&) override {}
  std::vector<isa::Program> programs() const override {
    AsmBuilder a("first");
    a.iaddi(IReg::R0, IReg::R1, 1);  // R1 never written
    sync::emit_lock_acquire(a, 0x8040, IReg::R2, sync::SpinKind::kPause);
    sync::emit_lock_acquire(a, 0x8080, IReg::R2, sync::SpinKind::kPause);
    sync::emit_lock_release(a, 0x8080, IReg::R2);
    sync::emit_lock_release(a, 0x8040, IReg::R2);
    a.exit();
    AsmBuilder b("second");
    sync::emit_lock_acquire(b, 0x8080, IReg::R2, sync::SpinKind::kPause);
    sync::emit_lock_acquire(b, 0x8040, IReg::R2, sync::SpinKind::kPause);
    sync::emit_lock_release(b, 0x8040, IReg::R2);
    sync::emit_lock_release(b, 0x8080, IReg::R2);
    b.exit();
    return {a.take(), b.take()};
  }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::string name_ = "lock-order-pair";
};

TEST(LintWorkload, MergesPerProgramAndCrossProgramFindingsInCanonicalOrder) {
  LockOrderPairWorkload w;
  const host::WorkloadLint lint = host::lint_workload(w);
  ASSERT_EQ(lint.programs.size(), 2u);
  ASSERT_EQ(lint.diags.size(), 2u);
  // The per-program finding (pc 0) precedes the cross-program one even
  // though lint_concurrency's findings are gathered first.
  const std::vector<Diagnostic>& first = lint.diags[0];
  ASSERT_EQ(first.size(), 2u) << analysis::format_diagnostics(
      lint.programs[0], first);
  EXPECT_EQ(first[0].check, Check::kUninitRead);
  EXPECT_EQ(first[0].pc, 0u);
  EXPECT_EQ(first[1].check, Check::kLockOrder);
  EXPECT_GT(first[1].pc, 0u);
  for (const std::vector<Diagnostic>& d : lint.diags) {
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end(),
                               analysis::diagnostic_before));
  }
  ASSERT_EQ(lint.diags[1].size(), 1u);
  EXPECT_EQ(lint.diags[1][0].check, Check::kLockOrder);
}

}  // namespace
}  // namespace smt
