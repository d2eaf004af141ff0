#include "host/experiments.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <span>

#include "common/check.h"
#include "common/io.h"
#include "common/table.h"
#include "isa/asm_builder.h"
#include "kernels/bt.h"
#include "kernels/cg.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"
#include "streams/stream_runner.h"
#include "sync/primitives.h"

namespace smt::host {

namespace {

using kernels::BtMode;
using kernels::CgMode;
using kernels::LuMode;
using kernels::MmMode;
using streams::IlpLevel;
using streams::StreamKind;

// ---------------------------------------------------------------------------
// Self-test workloads: deterministic failures for exercising the sweep's
// structured-outcome paths (never part of the default manifest).
// ---------------------------------------------------------------------------

/// A single-program self test with no data: `program` builds its one
/// program, and any run that completes verifies.
class ProgramWorkload : public core::Workload {
 public:
  ProgramWorkload(std::string name, std::function<isa::Program()> program)
      : name_(std::move(name)), program_(std::move(program)) {}
  const std::string& name() const override { return name_; }
  void setup(core::Machine&) override {}
  std::vector<isa::Program> programs() const override { return {program_()}; }
  bool verify(const core::Machine&) const override { return true; }

 private:
  std::string name_;
  std::function<isa::Program()> program_;
};

/// Halts its only context with no sibling to ever send the wake-up IPI —
/// the canonical lost-wake-up deadlock the watchdog used to abort on.
isa::Program deadlock_program() {
  isa::AsmBuilder a("sleeper");
  a.halt();
  a.exit();
  return a.take();
}

/// Counts far beyond what its job's cycle budget allows.
isa::Program budget_program() {
  isa::AsmBuilder a("counter");
  a.imovi(isa::IReg::R0, 0);
  const isa::Label loop = a.here();
  a.iaddi(isa::IReg::R0, isa::IReg::R0, 1);
  a.bri(isa::BrCond::kLt, isa::IReg::R0, 1'000'000'000, loop);
  a.exit();
  return a.take();
}

/// Emits a seeded verifier violation (an uninitialized-register read)
/// when SMT_SELFTEST_LINT_BREAK is set in the environment — the sweep's
/// --lint gate smoke flips it on to exercise the structured
/// "lint_failed" outcome end to end. Clean otherwise, so the
/// registry-wide zero-error lint gates hold.
isa::Program lint_trap_program() {
  isa::AsmBuilder a("lint-trap");
  if (std::getenv("SMT_SELFTEST_LINT_BREAK") != nullptr) {
    a.iaddi(isa::IReg::R0, isa::IReg::R1, 1);  // R1 never written
  } else {
    a.imovi(isa::IReg::R0, 1);
  }
  a.exit();
  return a.take();
}

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
// Kernel parameters: the one definition of each kernel job's sizes.
// ---------------------------------------------------------------------------

kernels::MatMulParams mm_params(MmMode mode, size_t n) {
  kernels::MatMulParams p;
  p.n = n;
  p.tile = 16;
  p.mode = mode;
  // Long span waits: the prefetcher sleeps via halt/IPI.
  p.halt_barriers =
      mode == MmMode::kTlpPfetch || mode == MmMode::kTlpPfetchWork;
  return p;
}

kernels::LuParams lu_params(LuMode mode, size_t n) {
  kernels::LuParams p;
  p.n = n;
  p.tile = 16;
  p.mode = mode;
  return p;
}

/// CG with 8 nonzeros per row.
kernels::CgParams cg_params(CgMode mode, size_t n, int iters,
                            size_t span_rows) {
  kernels::CgParams p;
  p.n = n;
  p.nz_per_row = 8;
  p.iters = iters;
  p.span_rows = span_rows;
  p.mode = mode;
  return p;
}

kernels::BtParams bt_params(BtMode mode, size_t lines, size_t cells) {
  kernels::BtParams p;
  p.lines = lines;
  p.cells = cells;
  p.mode = mode;
  return p;
}

constexpr size_t kCgSpan = kernels::CgParams{}.span_rows;

// ---------------------------------------------------------------------------
// Paper 3.1's sync ablation: what an idle sibling costs a working thread,
// per spin-wait flavour.
// ---------------------------------------------------------------------------

/// How the worker's sibling waits: absent, spinning tightly, spinning
/// with pause, or asleep via halt until the worker's IPI.
enum class WaitKind { kNone, kTight, kPause, kHalt };

/// Context 0 runs a dispatch-hungry high-IPC integer workload (the regime
/// of the paper's optimized kernels, where an active sibling costs real
/// slots), then arrives at a barrier — waking its sibling when that one
/// sleeps. Context 1 (absent for kNone) waits at the barrier the whole
/// time.
class SyncWaitWorkload final : public core::Workload {
 public:
  static constexpr int kWork = 240'000;  // int ALU operations on six chains

  SyncWaitWorkload(std::string name, WaitKind kind)
      : name_(std::move(name)), kind_(kind) {}

  const std::string& name() const override { return name_; }

  void setup(core::Machine&) override {
    using isa::IReg;
    mem::MemoryLayout lay(0x8000);
    const sync::TwoThreadBarrier bar(lay, "ab");
    flags_ = {bar.flag_addr(0), bar.flag_addr(1)};
    regions_ = lay.regions();

    isa::AsmBuilder w("worker");
    bar.emit_init(w, IReg::R15);
    for (int c = 0; c < 6; ++c) w.imovi(isa::ireg_n(c), 0);
    w.imovi(IReg::R8, 1);
    w.imovi(IReg::R0, 0);
    const isa::Label loop = w.here();
    for (int i = 0; i < 24; ++i) {
      const IReg t = isa::ireg_n(i % 6);
      w.iadd(t, t, IReg::R8);
    }
    w.iaddi(IReg::R0, IReg::R0, 24);
    w.bri(isa::BrCond::kLt, IReg::R0, kWork, loop);
    if (kind_ == WaitKind::kHalt) {
      bar.emit_wait_waker(w, 0, IReg::R15, IReg::R14, sync::SpinKind::kPause);
    } else if (kind_ != WaitKind::kNone) {
      bar.emit_wait(w, 0, IReg::R15, IReg::R14, sync::SpinKind::kPause);
    }
    w.exit();
    programs_ = {w.take()};
    if (kind_ == WaitKind::kNone) return;

    isa::AsmBuilder s("waiter");
    bar.emit_init(s, IReg::R15);
    switch (kind_) {
      case WaitKind::kTight:
        bar.emit_wait(s, 1, IReg::R15, IReg::R14, sync::SpinKind::kTight);
        break;
      case WaitKind::kPause:
        bar.emit_wait(s, 1, IReg::R15, IReg::R14, sync::SpinKind::kPause);
        break;
      default:
        bar.emit_wait_sleeper(s, 1, IReg::R15, IReg::R14);
        break;
    }
    s.exit();
    programs_.push_back(s.take());
  }

  std::vector<isa::Program> programs() const override { return programs_; }

  /// Both contexts published the one barrier episode (no flag moved
  /// without a sibling).
  bool verify(const core::Machine& m) const override {
    const int64_t episode = kind_ == WaitKind::kNone ? 0 : 1;
    return m.memory().read_i64(flags_[0]) == episode &&
           m.memory().read_i64(flags_[1]) == episode;
  }

  core::MemInfo mem_info() const override { return {{}, regions_, true}; }

 private:
  std::string name_;
  WaitKind kind_;
  std::array<Addr, 2> flags_{};
  std::vector<mem::MemoryLayout::Region> regions_;
  std::vector<isa::Program> programs_;
};

// ---------------------------------------------------------------------------
// Multiprogrammed kernel pairs: two serial kernels, one per logical CPU.
// ---------------------------------------------------------------------------

/// Serial kernel `app` in address-space window `slot`: windows are
/// 64 MiB apart, so two apps on one machine never alias. In window 0 each
/// is its solo job (multiprog_solo_job).
std::unique_ptr<core::Workload> multiprog_app(const std::string& app,
                                              int slot) {
  constexpr Addr kWindowBytes = 64ull << 20;
  const auto at = [slot](auto p) {
    p.mem_base += slot * kWindowBytes;
    p.sync_base += slot * kWindowBytes;
    return p;
  };
  if (app == "mm") {
    return std::make_unique<kernels::MatMulWorkload>(
        at(mm_params(MmMode::kSerial, 64)));
  }
  if (app == "lu") {
    return std::make_unique<kernels::LuWorkload>(
        at(lu_params(LuMode::kSerial, 128)));
  }
  if (app == "cg") {
    return std::make_unique<kernels::CgWorkload>(
        at(cg_params(CgMode::kSerial, 4096, 3, kCgSpan)));
  }
  SMT_CHECK(app == "bt");
  return std::make_unique<kernels::BtWorkload>(
      at(bt_params(BtMode::kSerial, 24, 24)));
}

/// Apps `a` (CPU 0, window 0) and `b` (CPU 1, window 1), run until the
/// first exits: the fully-overlapped window over which the row app's CPI
/// is measured. Verifies every app whose program finished.
class MultiprogWorkload final : public core::Workload {
 public:
  MultiprogWorkload(std::string name, const std::string& a,
                    const std::string& b)
      : name_(std::move(name)),
        apps_{multiprog_app(a, 0), multiprog_app(b, 1)} {}

  const std::string& name() const override { return name_; }

  void setup(core::Machine& m) override {
    for (const auto& app : apps_) app->setup(m);
  }

  std::vector<isa::Program> programs() const override {
    return {apps_[0]->programs().at(0), apps_[1]->programs().at(0)};
  }

  bool verify(const core::Machine& m) const override {
    bool finished = false;
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      if (!m.core().done(static_cast<CpuId>(i))) continue;
      finished = true;
      if (!apps_[i]->verify(m)) return false;
    }
    return finished;
  }

  core::MemInfo mem_info() const override {
    core::MemInfo out{{}, {}, true};
    for (const auto& app : apps_) {
      const core::MemInfo mi = app->mem_info();
      out.data.insert(out.data.end(), mi.data.begin(), mi.data.end());
      out.sync.insert(out.sync.end(), mi.sync.begin(), mi.sync.end());
      out.complete = out.complete && mi.complete;
    }
    return out;
  }

 private:
  std::string name_;
  std::array<std::unique_ptr<core::Workload>, 2> apps_;
};

// ---------------------------------------------------------------------------
// Registry construction: the kernel suites of Figures 3-5, their
// ablations and full sizes, the stream, Table 1, sync and multiprogram
// runs, then the self tests.
// ---------------------------------------------------------------------------

/// A job of `manifest` named `name` whose factory is `make`.
template <typename Make>
ExperimentDef def(std::string name, const char* manifest, Make make) {
  ExperimentDef d;
  d.name = std::move(name);
  d.make = [make] { return std::unique_ptr<core::Workload>(make()); };
  d.manifest = manifest;
  return d;
}

/// A kernel job running workload W on parameters `p`.
template <typename W, typename P>
ExperimentDef kernel_def(std::string name, const P& p, const char* manifest) {
  return def(std::move(name), manifest, [p] { return std::make_unique<W>(p); });
}

ExperimentDef mm_def(MmMode mode, size_t n, const char* manifest) {
  return kernel_def<kernels::MatMulWorkload>(
      std::string("mm.") + kernels::name(mode) + ".n" + std::to_string(n),
      mm_params(mode, n), manifest);
}

ExperimentDef lu_def(LuMode mode, size_t n, const char* manifest) {
  return kernel_def<kernels::LuWorkload>(
      std::string("lu.") + kernels::name(mode) + ".n" + std::to_string(n),
      lu_params(mode, n), manifest);
}

/// CG; `suffix` tells the job from Figure 5's (n = 8192, 6 iterations,
/// the default span: a working set ~5 MB >> L2, like Class A's relation
/// to the Xeon caches).
ExperimentDef cg_def(CgMode mode, size_t n, int iters, size_t span_rows,
                     const std::string& suffix, const char* manifest) {
  return kernel_def<kernels::CgWorkload>(
      std::string("cg.") + kernels::name(mode) + suffix,
      cg_params(mode, n, iters, span_rows), manifest);
}

/// BT; `suffix` tells the job from Figure 5's (64 lines of 32 cells).
ExperimentDef bt_def(BtMode mode, size_t lines, size_t cells,
                     const std::string& suffix, const char* manifest) {
  return kernel_def<kernels::BtWorkload>(
      std::string("bt.") + kernels::name(mode) + suffix,
      bt_params(mode, lines, cells), manifest);
}

/// A streams-manifest job running `specs` (one stream, or a pair run to
/// the first one's exit).
ExperimentDef stream_def(std::string name,
                         std::vector<streams::StreamSpec> specs) {
  ExperimentDef d = def(std::move(name), "streams", [specs] {
    return std::make_unique<streams::StreamWorkload>(specs);
  });
  d.until_first_done = specs.size() == 2;
  return d;
}

streams::StreamSpec stream_spec(StreamKind kind, IlpLevel ilp,
                                uint64_t ops) {
  streams::StreamSpec s;
  s.kind = kind;
  s.ilp = ilp;
  s.ops = ops;
  return s;
}

/// Figure 2's operation count for `kind`: long-latency streams get fewer
/// operations so the whole figure stays quick (the CPI measurement is
/// rate-based and insensitive to length).
uint64_t fig2_ops(StreamKind kind) {
  switch (kind) {
    case StreamKind::kFDiv: return 6'000;
    case StreamKind::kIDiv: return 4'000;
    case StreamKind::kIMul: return 40'000;
    default: return 120'000;
  }
}

/// `d` on a machine whose buffering structures are shared dynamically
/// instead of statically partitioned.
ExperimentDef dynpart(ExperimentDef d) {
  d.name += ".dynpart";
  d.config.core.static_partitioning = false;
  return d;
}

constexpr MmMode kMmModes[] = {MmMode::kSerial, MmMode::kTlpFine,
                               MmMode::kTlpCoarse, MmMode::kTlpPfetch,
                               MmMode::kTlpPfetchWork};
constexpr LuMode kLuModes[] = {LuMode::kSerial, LuMode::kTlpCoarse,
                               LuMode::kTlpPfetch};
constexpr CgMode kCgModes[] = {CgMode::kSerial, CgMode::kTlpCoarse,
                               CgMode::kTlpPfetch, CgMode::kTlpPfetchWork};
constexpr BtMode kBtModes[] = {BtMode::kSerial, BtMode::kTlpCoarse,
                               BtMode::kTlpPfetch};

std::vector<ExperimentDef> build_registry() {
  std::vector<ExperimentDef> defs;

  // Figure 3: MM, five variants at n = 64 and 128; Figure 4: LU, three
  // variants at the same sizes; Figure 5: NAS CG and BT.
  for (size_t n : {size_t{64}, size_t{128}}) {
    for (MmMode mode : kMmModes) defs.push_back(mm_def(mode, n, "default"));
  }
  for (size_t n : {size_t{64}, size_t{128}}) {
    for (LuMode mode : kLuModes) defs.push_back(lu_def(mode, n, "default"));
  }
  for (CgMode mode : kCgModes) {
    defs.push_back(cg_def(mode, 8192, 6, kCgSpan, "", "default"));
  }
  for (BtMode mode : kBtModes) {
    defs.push_back(bt_def(mode, 64, 32, "", "default"));
  }

  // Ablation (paper 3.2): CG's SPR precomputation span, against the
  // serial run, at 4 iterations.
  defs.push_back(cg_def(CgMode::kSerial, 8192, 4, kCgSpan, ".i4", "ablation"));
  for (size_t span : {8, 16, 32, 64, 128, 256}) {
    defs.push_back(cg_def(CgMode::kTlpPfetch, 8192, 4, span,
                          ".i4.span" + std::to_string(span), "ablation"));
  }
  // Ablation: static vs dynamic partitioning. MM and LU reuse the
  // default n = 128 jobs; CG and BT run smaller than Figure 5.
  const ExperimentDef cg_coarse =
      cg_def(CgMode::kTlpCoarse, 8192, 4, kCgSpan, ".i4", "ablation");
  const ExperimentDef bt_coarse =
      bt_def(BtMode::kTlpCoarse, 48, 24, ".l48c24", "ablation");
  defs.push_back(cg_coarse);
  defs.push_back(bt_def(BtMode::kSerial, 48, 24, ".l48c24", "ablation"));
  defs.push_back(bt_coarse);
  defs.push_back(dynpart(mm_def(MmMode::kTlpCoarse, 128, "ablation")));
  defs.push_back(dynpart(lu_def(LuMode::kTlpCoarse, 128, "ablation")));
  defs.push_back(dynpart(cg_coarse));
  defs.push_back(dynpart(bt_coarse));

  // Full sizes: Figures 3-4 at n = 256, Figure 5 at twice CG's unknowns
  // (8 iterations) and 1.5x BT's lines.
  for (MmMode mode : kMmModes) defs.push_back(mm_def(mode, 256, "full"));
  for (LuMode mode : kLuModes) defs.push_back(lu_def(mode, 256, "full"));
  for (CgMode mode : kCgModes) {
    defs.push_back(cg_def(mode, 16384, 8, kCgSpan, ".n16384.i8", "full"));
  }
  for (BtMode mode : kBtModes) {
    defs.push_back(bt_def(mode, 96, 32, ".l96c32", "full"));
  }

  // Figure 1: each stream alone and beside a copy of itself, every run
  // around a million cycles.
  for (StreamKind k : kFig1Streams) {
    for (IlpLevel l : kIlpLevels) {
      const streams::StreamSpec s = stream_spec(k, l, 300'000);
      defs.push_back(stream_def(fig1_job(k, l, 1), {s}));
      defs.push_back(stream_def(fig1_job(k, l, 2), {s, s}));
    }
  }
  // Figure 2: every victim alone and beside every aggressor of its
  // panels, each job once. The aggressor runs 4x longer, so the
  // victim's whole execution is overlapped (the paper's continuous
  // co-execution).
  std::set<std::string> seen;
  const auto panel = [&](std::span<const StreamKind> victims,
                         std::span<const StreamKind> aggressors) {
    for (StreamKind v : victims) {
      for (IlpLevel l : kIlpLevels) {
        const streams::StreamSpec victim = stream_spec(v, l, fig2_ops(v));
        if (seen.insert(fig2_job(v, std::nullopt, l)).second) {
          defs.push_back(stream_def(fig2_job(v, std::nullopt, l), {victim}));
        }
        for (StreamKind a : aggressors) {
          if (!seen.insert(fig2_job(v, a, l)).second) continue;
          defs.push_back(stream_def(fig2_job(v, a, l),
                                    {victim, stream_spec(a, l, 4 * fig2_ops(a))}));
        }
      }
    }
  };
  panel(kFig2FpSet, kFig2FpSet);
  panel(kFig2IntSet, kFig2IntSet);
  panel(kFig2FpArith, kFig2IntArith);
  panel(kFig2IntArith, kFig2FpArith);

  // Table 1: the MM and LU columns are the default n = 64 jobs; CG and
  // BT run smaller than Figure 5.
  for (CgMode mode : {CgMode::kSerial, CgMode::kTlpCoarse,
                      CgMode::kTlpPfetch}) {
    defs.push_back(cg_def(mode, 4096, 4, kCgSpan, ".n4096.i4", "table1"));
  }
  for (BtMode mode : kBtModes) {
    defs.push_back(bt_def(mode, 32, 16, ".l32c16", "table1"));
  }

  // Ablation (paper 3.1): the worker beside each waiting sibling.
  const std::pair<const char*, WaitKind> waits[] = {
      {"none", WaitKind::kNone},
      {"tight", WaitKind::kTight},
      {"pause", WaitKind::kPause},
      {"halt", WaitKind::kHalt}};
  for (const auto& [suffix, kind] : waits) {
    const std::string name = std::string("sync.") + suffix;
    defs.push_back(def(name, "sync", [name, kind] {
      return std::make_unique<SyncWaitWorkload>(name, kind);
    }));
  }

  // Multiprogrammed pairs. MM's and LU's solo runs are the default
  // mm.serial.n64 and lu.serial.n128 jobs.
  for (const char* app : {"cg", "bt"}) {
    defs.push_back(def(multiprog_solo_job(app), "multiprog",
                       [app] { return multiprog_app(app, 0); }));
  }
  for (const char* a : kMultiprogApps) {
    for (const char* b : kMultiprogApps) {
      const std::string name = multiprog_job(a, b);
      defs.push_back(def(name, "multiprog", [name, a, b] {
        return std::make_unique<MultiprogWorkload>(name, a, b);
      }));
      defs.back().until_first_done = true;
    }
  }

  // Self tests: structured-failure probes, in their own manifest (CI
  // injects them by name).
  const auto selftest = [](const std::string& name, auto make) {
    return def("selftest." + name, "selftest", make);
  };
  const auto program_selftest = [&selftest](const std::string& name,
                                            isa::Program (*program)()) {
    return selftest(name, [name, program] {
      return std::make_unique<ProgramWorkload>("selftest." + name, program);
    });
  };
  defs.push_back(program_selftest("deadlock", deadlock_program));
  defs.push_back(program_selftest("budget", budget_program));
  defs.back().cycle_budget = 100'000;  // the count loop needs far more
  defs.push_back(selftest(
      "verify-fail", [] { return std::make_unique<VerifyFailWorkload>(); }));
  defs.push_back(program_selftest("lint", lint_trap_program));
  defs.push_back(
      selftest("race", [] { return std::make_unique<RaceWorkload>(); }));
  defs.back().race_detect = true;

  return defs;
}

}  // namespace

std::string fig1_job(StreamKind kind, IlpLevel ilp, int threads) {
  return std::string("fig1.") + streams::name(kind) + "." +
         streams::name(ilp) + "." + std::to_string(threads) + "thr";
}

std::string fig2_job(StreamKind victim, std::optional<StreamKind> aggressor,
                     IlpLevel ilp) {
  std::string out = std::string("fig2.") + streams::name(victim);
  if (aggressor.has_value()) out += std::string("_") + streams::name(*aggressor);
  return out + "." + streams::name(ilp);
}

std::string multiprog_job(const std::string& a, const std::string& b) {
  return "multiprog." + a + "_" + b;
}

std::string multiprog_solo_job(const std::string& app) {
  if (app == "mm") return "mm.serial.n64";
  if (app == "lu") return "lu.serial.n128";
  if (app == "cg") return "cg.serial.n4096.i3";
  SMT_CHECK(app == "bt");
  return "bt.serial.l24c24";
}

namespace detail {

void check_registry_invariants(const std::vector<ExperimentDef>& defs) {
  std::set<std::string> names;
  std::map<std::string, std::string> files;  // sanitized key -> first owner
  for (const ExperimentDef& d : defs) {
    SMT_CHECK_MSG(!d.name.empty(), "experiment with empty name");
    SMT_CHECK_MSG(names.insert(d.name).second,
                  ("duplicate experiment name: " + d.name).c_str());
    SMT_CHECK_MSG(std::find(std::begin(kManifests), std::end(kManifests),
                            d.manifest) != std::end(kManifests),
                  ("unknown manifest for " + d.name).c_str());
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

std::vector<std::string> manifest(const std::string& name) {
  std::vector<std::string> names;
  for (const ExperimentDef& d : experiments()) {
    if (d.manifest == name) names.push_back(d.name);
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
