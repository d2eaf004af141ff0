// Tests for the abstract-interpretation layer: the interval lattice
// (join/meet/widen algebra and monotonicity), the per-opcode transfer
// functions, branch-edge refinement, effective-address evaluation, the
// converged whole-program analyses (intervals, loop structure), and the
// never-aborts property over malformed and pseudo-random programs, and
// the lint's uninit-read, lock-pairing and lock-order findings against a
// path-enumeration oracle on generated lock-annotated programs.
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/cfg.h"
#include "analysis/lint.h"
#include "gtest/gtest.h"
#include "isa/asm_builder.h"
#include "isa/disasm.h"

namespace smt::analysis {
namespace {

using isa::AsmBuilder;
using isa::BrCond;
using isa::Instr;
using isa::IReg;
using isa::Label;
using isa::Mem;
using isa::Opcode;

/// True iff every value of `inner` lies in `outer`.
bool subsumes(const Interval& outer, const Interval& inner) {
  if (inner.is_bottom()) return true;
  if (outer.is_bottom()) return false;
  return outer.lo <= inner.lo && inner.hi <= outer.hi;
}

// ---------------------------------------------------------------------------
// Lattice algebra
// ---------------------------------------------------------------------------

TEST(Interval, DefaultIsBottomAndConstructorsWork) {
  EXPECT_TRUE(Interval{}.is_bottom());
  EXPECT_TRUE(Interval::bottom().is_bottom());
  EXPECT_TRUE(Interval::top().is_top());
  EXPECT_FALSE(Interval::top().is_bottom());
  const Interval c = Interval::constant(7);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(c.contains(7));
  EXPECT_FALSE(c.contains(8));
}

TEST(Interval, JoinIsLeastUpperBound) {
  const Interval a = Interval::range(0, 4);
  const Interval b = Interval::range(10, 12);
  const Interval j = join(a, b);
  EXPECT_TRUE(subsumes(j, a));
  EXPECT_TRUE(subsumes(j, b));
  EXPECT_EQ(j, Interval::range(0, 12));
  // Identity and commutativity.
  EXPECT_EQ(join(Interval::bottom(), a), a);
  EXPECT_EQ(join(a, Interval::bottom()), a);
  EXPECT_EQ(join(a, b), join(b, a));
  EXPECT_EQ(join(Interval::top(), a), Interval::top());
}

TEST(Interval, MeetIsGreatestLowerBound) {
  const Interval a = Interval::range(0, 10);
  const Interval b = Interval::range(5, 20);
  EXPECT_EQ(meet(a, b), Interval::range(5, 10));
  EXPECT_TRUE(meet(Interval::range(0, 4), Interval::range(6, 9)).is_bottom());
  EXPECT_EQ(meet(Interval::top(), a), a);
}

TEST(Interval, JoinIsMonotone) {
  // a ⊆ a'  ⇒  join(a, c) ⊆ join(a', c), over a sample grid.
  const Interval samples[] = {
      Interval::bottom(),      Interval::constant(0), Interval::range(-3, 5),
      Interval::range(2, 100), Interval::top(),
  };
  for (const Interval& a : samples) {
    for (const Interval& a2 : samples) {
      if (!subsumes(a2, a)) continue;  // need a ⊆ a'
      for (const Interval& c : samples) {
        EXPECT_TRUE(subsumes(join(a2, c), join(a, c)));
      }
    }
  }
}

TEST(Interval, WidenCoversJoinAndStabilizes) {
  const Interval prev = Interval::range(0, 4);
  const Interval grown = Interval::range(0, 8);
  const Interval w = widen(prev, grown);
  // Widening over-approximates the join and jumps the moving bound.
  EXPECT_TRUE(subsumes(w, join(prev, grown)));
  EXPECT_EQ(w.lo, 0);
  EXPECT_EQ(w.hi, Interval::top().hi);
  // A non-growing argument is a fixpoint: widen(p, p) == p.
  EXPECT_EQ(widen(prev, prev), prev);
  // Chains terminate: widening twice more reaches a fixpoint.
  const Interval w2 = widen(w, join(w, Interval::range(-1, 100)));
  const Interval w3 = widen(w2, join(w2, Interval::range(-50, 1000)));
  EXPECT_EQ(widen(w3, w3), w3);
  EXPECT_TRUE(subsumes(w3, Interval::range(-50, 1000)));
}

// ---------------------------------------------------------------------------
// Arithmetic transfer helpers: exactness on constants, soundness, and
// wrap-to-top on overflow
// ---------------------------------------------------------------------------

TEST(IntervalArith, ConstantFolding) {
  const Interval two = Interval::constant(2);
  const Interval three = Interval::constant(3);
  EXPECT_EQ(itv_add(two, three), Interval::constant(5));
  EXPECT_EQ(itv_sub(two, three), Interval::constant(-1));
  EXPECT_EQ(itv_mul(two, three), Interval::constant(6));
  EXPECT_EQ(itv_div(Interval::constant(7), two), Interval::constant(3));
  EXPECT_EQ(itv_shl(three, two), Interval::constant(12));
  EXPECT_EQ(itv_shr(Interval::constant(12), two), Interval::constant(3));
}

TEST(IntervalArith, RangePropagation) {
  const Interval a = Interval::range(2, 3);
  EXPECT_EQ(itv_add(a, Interval::range(10, 20)), Interval::range(12, 23));
  EXPECT_EQ(itv_sub(a, Interval::constant(1)), Interval::range(1, 2));
  EXPECT_EQ(itv_mul(a, Interval::constant(4)), Interval::range(8, 12));
  // Negative factors flip the bounds.
  EXPECT_EQ(itv_mul(a, Interval::constant(-1)), Interval::range(-3, -2));
}

TEST(IntervalArith, DivisorContainingZeroIncludesTheZeroQuotient) {
  // The guest ALU defines x/0 == 0.
  const Interval q =
      itv_div(Interval::range(8, 16), Interval::range(0, 2));
  EXPECT_TRUE(q.contains(0));   // the /0 lane
  EXPECT_TRUE(q.contains(4));   // 8/2
  EXPECT_TRUE(q.contains(16));  // 16/1
}

TEST(IntervalArith, OverflowWrapsToTop) {
  // INT64_MAX / INT64_MIN are the ±inf encodings, so probe overflow with
  // the largest representable *finite* bounds.
  const Interval big = Interval::constant(INT64_MAX - 1);
  const Interval small = Interval::constant(INT64_MIN + 1);
  EXPECT_TRUE(itv_add(big, Interval::constant(2)).is_top());
  EXPECT_TRUE(itv_mul(big, Interval::constant(2)).is_top());
  EXPECT_TRUE(itv_sub(small, Interval::constant(2)).is_top());
  // One step shy of the edge stays exact.
  EXPECT_EQ(itv_add(big, Interval::constant(1)),
            Interval::constant(INT64_MAX));
}

TEST(IntervalArith, SoundnessOverSampledConcreteValues) {
  // For every helper and every pair of sample points drawn from two
  // ranges, the concrete result must land inside the abstract one.
  const Interval a = Interval::range(-6, 7);
  const Interval b = Interval::range(1, 5);
  struct Case {
    Interval (*f)(const Interval&, const Interval&);
    int64_t (*g)(int64_t, int64_t);
  };
  const Case cases[] = {
      {itv_add, [](int64_t x, int64_t y) { return x + y; }},
      {itv_sub, [](int64_t x, int64_t y) { return x - y; }},
      {itv_mul, [](int64_t x, int64_t y) { return x * y; }},
      {itv_div, [](int64_t x, int64_t y) { return y == 0 ? 0 : x / y; }},
      {itv_and, [](int64_t x, int64_t y) { return x & y; }},
      {itv_or, [](int64_t x, int64_t y) { return x | y; }},
      {itv_xor, [](int64_t x, int64_t y) { return x ^ y; }},
      {itv_shl,
       [](int64_t x, int64_t y) {
         return static_cast<int64_t>(static_cast<uint64_t>(x) << (y & 63));
       }},
      {itv_shr,
       [](int64_t x, int64_t y) {
         return static_cast<int64_t>(static_cast<uint64_t>(x) >> (y & 63));
       }},
  };
  for (const Case& c : cases) {
    const Interval r = c.f(a, b);
    for (int64_t x = a.lo; x <= a.hi; ++x) {
      for (int64_t y = b.lo; y <= b.hi; ++y) {
        EXPECT_TRUE(r.contains(c.g(x, y)))
            << c.g(x, y) << " escapes [" << r.lo << "," << r.hi << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Branch-edge refinement
// ---------------------------------------------------------------------------

bool concrete(BrCond c, int64_t a, int64_t b) {
  switch (c) {
    case BrCond::kEq: return a == b;
    case BrCond::kNe: return a != b;
    case BrCond::kLt: return a < b;
    case BrCond::kLe: return a <= b;
    case BrCond::kGt: return a > b;
    case BrCond::kGe: return a >= b;
  }
  return false;
}

TEST(Refine, RestrictsToTheSatisfyingSubset) {
  const Interval a = Interval::range(0, 10);
  const Interval c5 = Interval::constant(5);
  EXPECT_EQ(refine(a, BrCond::kLt, c5), Interval::range(0, 4));
  EXPECT_EQ(refine(a, BrCond::kLe, c5), Interval::range(0, 5));
  EXPECT_EQ(refine(a, BrCond::kGt, c5), Interval::range(6, 10));
  EXPECT_EQ(refine(a, BrCond::kGe, c5), Interval::range(5, 10));
  EXPECT_EQ(refine(a, BrCond::kEq, c5), c5);
  // An interval can't encode a hole, so kNe must keep both ends...
  const Interval ne = refine(a, BrCond::kNe, c5);
  EXPECT_TRUE(ne.contains(0));
  EXPECT_TRUE(ne.contains(10));
  // ...but a contradicted constant is infeasible.
  EXPECT_TRUE(refine(c5, BrCond::kNe, c5).is_bottom());
  EXPECT_TRUE(refine(Interval::range(6, 10), BrCond::kLt, c5).is_bottom());
}

TEST(Refine, IsSoundForEveryCondOverSamples) {
  const Interval a = Interval::range(-3, 9);
  for (const BrCond c : {BrCond::kEq, BrCond::kNe, BrCond::kLt, BrCond::kLe,
                         BrCond::kGt, BrCond::kGe}) {
    for (int64_t rhs = -4; rhs <= 10; ++rhs) {
      const Interval r = refine(a, c, Interval::constant(rhs));
      for (int64_t v = a.lo; v <= a.hi; ++v) {
        if (concrete(c, v, rhs)) {
          EXPECT_TRUE(r.contains(v))
              << "cond " << static_cast<int>(c) << " v=" << v
              << " rhs=" << rhs;
        }
      }
    }
  }
}

TEST(Refine, NegateAndSwapMatchConcreteSemantics) {
  for (const BrCond c : {BrCond::kEq, BrCond::kNe, BrCond::kLt, BrCond::kLe,
                         BrCond::kGt, BrCond::kGe}) {
    for (int64_t a = -2; a <= 2; ++a) {
      for (int64_t b = -2; b <= 2; ++b) {
        EXPECT_NE(concrete(c, a, b), concrete(negate(c), a, b));
        EXPECT_EQ(concrete(c, a, b), concrete(swap_operands(c), b, a));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-opcode transfer functions (every opcode reg_reads/reg_writes
// classifies must have sound interval semantics)
// ---------------------------------------------------------------------------

Instr alu(Opcode op, int rd, int rs1, int rs2) {
  Instr in;
  in.op = op;
  in.rd = static_cast<isa::RegId>(rd);
  in.rs1 = static_cast<isa::RegId>(rs1);
  in.rs2 = static_cast<isa::RegId>(rs2);
  return in;
}

TEST(Transfer, AluOpsComputeOnIntervals) {
  RegState s = RegState::entry_top();
  s.r[0] = Interval::range(2, 3);
  s.r[1] = Interval::constant(10);

  RegState t = s;
  interval_transfer(alu(Opcode::kIAdd, 2, 0, 1), &t);
  EXPECT_EQ(t.r[2], Interval::range(12, 13));

  t = s;
  interval_transfer(alu(Opcode::kISub, 2, 1, 0), &t);
  EXPECT_EQ(t.r[2], Interval::range(7, 8));

  t = s;
  interval_transfer(alu(Opcode::kIMul, 2, 0, 1), &t);
  EXPECT_EQ(t.r[2], Interval::range(20, 30));

  t = s;
  interval_transfer(alu(Opcode::kIDiv, 2, 1, 0), &t);
  EXPECT_TRUE(t.r[2].contains(5));  // 10/2
  EXPECT_TRUE(t.r[2].contains(3));  // 10/3

  t = s;
  interval_transfer(alu(Opcode::kIMov, 2, 0, 0), &t);
  EXPECT_EQ(t.r[2], s.r[0]);

  t = s;
  Instr movi = alu(Opcode::kIMovImm, 2, 0, 0);
  movi.imm = 42;
  interval_transfer(movi, &t);
  EXPECT_EQ(t.r[2], Interval::constant(42));

  t = s;
  Instr addi = alu(Opcode::kIAdd, 2, 0, 0);
  addi.use_imm = true;
  addi.imm = 100;
  interval_transfer(addi, &t);
  EXPECT_EQ(t.r[2], Interval::range(102, 103));
}

TEST(Transfer, LoadsAndXchgClobberTheDestinationToTop) {
  RegState s = RegState::entry_top();
  s.r[3] = Interval::constant(1);
  Instr ld = alu(Opcode::kLoad, 3, 0, 0);
  ld.mem.base = static_cast<isa::RegId>(0);
  interval_transfer(ld, &s);
  EXPECT_TRUE(s.r[3].is_top());

  s.r[4] = Interval::constant(2);
  Instr xc = alu(Opcode::kXchg, 4, 4, 0);
  xc.mem.base = static_cast<isa::RegId>(0);
  interval_transfer(xc, &s);
  EXPECT_TRUE(s.r[4].is_top());
}

TEST(Transfer, EveryOpcodeHasSoundNeverAbortingSemantics) {
  // Walk the whole opcode set: the transfer must neither abort nor
  // disturb integer registers an opcode does not write.
  for (int op = 0; op < static_cast<int>(Opcode::kNumOpcodes); ++op) {
    Instr in = alu(static_cast<Opcode>(op), 2, 0, 1);
    in.mem.base = static_cast<isa::RegId>(0);
    in.target = 0;
    RegState s = RegState::entry_top();
    for (int r = 0; r < isa::kNumIRegs; ++r) {
      s.r[r] = Interval::constant(r);
    }
    const RegState before = s;
    interval_transfer(in, &s);
    const uint32_t writes = reg_writes(in);
    for (int r = 0; r < isa::kNumIRegs; ++r) {
      if ((writes & (1u << r)) == 0) {
        EXPECT_EQ(s.r[r], before.r[r])
            << "opcode " << op << " clobbered untouched r" << r;
      }
    }
  }
}

TEST(Transfer, EvalAddrCombinesBaseIndexScaleDisp) {
  RegState s = RegState::entry_top();
  s.r[1] = Interval::range(0x100, 0x200);
  s.r[2] = Interval::range(0, 4);
  isa::MemRef m;
  m.base = static_cast<isa::RegId>(1);
  m.disp = 8;
  EXPECT_EQ(eval_addr(m, s), Interval::range(0x108, 0x208));
  m.index = static_cast<isa::RegId>(2);
  m.scale_log2 = 3;
  EXPECT_EQ(eval_addr(m, s), Interval::range(0x108, 0x228));
  // An absolute operand (no registers) is a constant.
  isa::MemRef abs;
  abs.disp = 0x9000;
  EXPECT_EQ(eval_addr(abs, s), Interval::constant(0x9000));
}

// ---------------------------------------------------------------------------
// Whole-program analyses
// ---------------------------------------------------------------------------

isa::Program counted_loop(int64_t n) {
  AsmBuilder a("counted");
  a.imovi(IReg::R0, 0);
  const Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, n, loop);
  a.exit();
  return a.take();
}

TEST(Analyze, IntervalsBoundACountedLoop) {
  const isa::Program p = counted_loop(8);
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  // At the loop head the counter is pinned below the bound; at the exit
  // block the fall-through refinement forces it to exactly the bound.
  const uint32_t body = g.block_of[1];
  const uint32_t exit_b = g.block_of[3];
  EXPECT_TRUE(subsumes(Interval::range(0, 7), ia.in[body].r[0]));
  EXPECT_EQ(ia.in[exit_b].r[0], Interval::constant(8));
}

TEST(Analyze, LoopInfoResolvesTripsAndFrequencies) {
  const isa::Program p = counted_loop(8);
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  const LoopInfo li = analyze_loops(p, g, ia);
  EXPECT_TRUE(li.reducible);
  EXPECT_TRUE(li.exact);
  ASSERT_EQ(li.loops.size(), 1u);
  EXPECT_TRUE(li.loops[0].trips_exact);
  EXPECT_EQ(li.loops[0].trips, 8u);
  const uint32_t body = g.block_of[1];
  EXPECT_EQ(li.freq[body], 8u);
  EXPECT_EQ(li.freq[g.block_of[0]], 1u);
  EXPECT_TRUE(li.dominates(g.block_of[0], body));
  EXPECT_FALSE(li.dominates(body, g.block_of[0]));
}

TEST(Analyze, NestedLoopsMultiplyFrequencies) {
  AsmBuilder a("nest");
  a.imovi(IReg::R0, 0);
  const Label outer = a.here();
  a.imovi(IReg::R1, 0);
  const Label inner = a.here();
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, 5, inner);
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 3, outer);
  a.exit();
  const isa::Program p = a.take();
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  const LoopInfo li = analyze_loops(p, g, ia);
  EXPECT_TRUE(li.exact);
  ASSERT_EQ(li.loops.size(), 2u);
  EXPECT_EQ(li.freq[g.block_of[2]], 15u);  // inner body: 3 * 5
  EXPECT_EQ(li.freq[g.block_of[4]], 3u);   // outer tail
}

// ---------------------------------------------------------------------------
// Robustness: the analyses never abort on malformed programs
// ---------------------------------------------------------------------------

void analyze_everything(const isa::Program& p) {
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  (void)analyze_loops(p, g, ia);
  (void)lint_program(p);  // runs every check on top of the same substrate
}

TEST(Robustness, MalformedSeedsDegradeGracefully) {
  // Empty program.
  analyze_everything(isa::Program("empty", {}));

  // Single-instruction self-loop.
  {
    std::vector<Instr> code(1);
    code[0].op = Opcode::kJmp;
    code[0].target = 0;
    analyze_everything(isa::Program("self", std::move(code)));
  }
  // Falls off the end.
  {
    std::vector<Instr> code(2);
    analyze_everything(isa::Program("fall", std::move(code)));
  }
  // Branch target out of range / unresolved.
  {
    std::vector<Instr> code(2);
    code[0].op = Opcode::kBr;
    code[0].rs1 = static_cast<isa::RegId>(0);
    code[0].use_imm = true;
    code[0].target = 99;
    code[1].op = Opcode::kExit;
    analyze_everything(isa::Program("wild-target", std::move(code)));
  }
  {
    std::vector<Instr> code(2);
    code[0].op = Opcode::kJmp;
    code[0].target = -1;
    code[1].op = Opcode::kExit;
    analyze_everything(isa::Program("unresolved", std::move(code)));
  }
}

/// Deterministic LCG behind the generated-program tests.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : seed_(seed) {}
  uint64_t operator()() {
    seed_ = seed_ * 6364136223846793005ull + 1442695040888963407ull;
    return seed_ >> 33;
  }

 private:
  uint64_t seed_;
};

TEST(Robustness, PseudoRandomProgramsNeverAbort) {
  // Deterministic LCG fuzz: structurally arbitrary (but decodable)
  // programs through the full analysis stack.
  Lcg next(0x9e3779b97f4a7c15ull);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = 1 + next() % 16;
    std::vector<Instr> code(len);
    for (Instr& in : code) {
      in.op = static_cast<Opcode>(next() %
                                  static_cast<uint64_t>(Opcode::kNumOpcodes));
      in.rd = static_cast<isa::RegId>(next() % isa::kNumRegs);
      in.rs1 = static_cast<isa::RegId>(next() % isa::kNumRegs);
      in.rs2 = static_cast<isa::RegId>(next() % isa::kNumRegs);
      in.use_imm = next() % 2 != 0;
      in.cond = static_cast<BrCond>(next() % 6);
      in.imm = static_cast<int64_t>(next()) - (1 << 30);
      in.mem.base = next() % 3 == 0
                        ? isa::kNoReg
                        : static_cast<isa::RegId>(next() % isa::kNumIRegs);
      in.mem.index = next() % 3 == 0
                         ? isa::kNoReg
                         : static_cast<isa::RegId>(next() % isa::kNumIRegs);
      in.mem.scale_log2 = static_cast<uint8_t>(next() % 4);
      in.mem.disp = static_cast<int64_t>(next() % 4096) - 2048;
      // Mostly in-range targets, sometimes wild ones.
      in.target = static_cast<int32_t>(next() % (len + 4)) - 2;
    }
    analyze_everything(
        isa::Program("fuzz" + std::to_string(trial), std::move(code)));
  }
}


// ---------------------------------------------------------------------------
// Path-enumeration oracle for the lint's dataflow checks
// ---------------------------------------------------------------------------

constexpr Addr kLockWords[] = {0x8000, 0x8040, 0x8080};
constexpr size_t kNumLockWords = sizeof(kLockWords) / sizeof(kLockWords[0]);

size_t word_index(Addr a) {
  size_t w = 0;
  while (kLockWords[w] != a) ++w;
  return w;
}

std::string lock_word(Addr a) {
  std::ostringstream os;
  os << "lock word 0x" << std::hex << a;
  return os.str();
}

/// A loop-free program of at most 12 instructions (forward branches only,
/// one exit at the end) carrying 1-4 random well-formed lock-op
/// annotations. Cfg::build does not end a block at an exit, so an exit
/// mid-block would let the CFG (though not the paths) fall through it.
isa::Program loop_free_locked_program(Lcg& next, int trial) {
  const size_t len = 2 + next() % 11;
  std::vector<Instr> code(len);
  for (size_t pc = 0; pc + 1 < len; ++pc) {
    Instr& in = code[pc];
    const auto reg = [&next] { return static_cast<isa::RegId>(next() % 4); };
    const auto forward = [&] {
      return static_cast<int32_t>(pc + 1 + next() % (len - 1 - pc));
    };
    switch (next() % 6) {
      case 0:
        in.op = Opcode::kIMovImm;
        in.rd = reg();
        break;
      case 1:
        in.op = Opcode::kIAdd;
        in.rd = reg();
        in.rs1 = reg();
        in.rs2 = reg();
        break;
      case 2:
        in.op = Opcode::kBr;
        in.rs1 = reg();
        in.use_imm = true;
        in.target = forward();
        break;
      case 3:
        in.op = Opcode::kJmp;
        in.target = forward();
        break;
      case 4:
        in.op = Opcode::kIMov;
        in.rd = reg();
        in.rs1 = reg();
        break;
      default:
        in.op = Opcode::kNop;
        break;
    }
  }
  code[len - 1].op = Opcode::kExit;
  std::vector<isa::LockOp> ops(1 + next() % 4);
  for (isa::LockOp& op : ops) {
    op.begin = static_cast<uint32_t>(next() % len);
    op.end = static_cast<uint32_t>(op.begin + 1 + next() % (len - op.begin));
    op.addr = kLockWords[next() % kNumLockWords];
    op.acquire = next() % 2 == 0;
  }
  return isa::Program("gen" + std::to_string(trial), std::move(code), {},
                      std::move(ops));
}

/// Takes every ordered pair of lock words in turn, so a sibling's
/// lock-order findings expose its full may-held set at each acquire.
isa::Program every_lock_order() {
  std::vector<Instr> code;
  std::vector<isa::LockOp> ops;
  for (const Addr a : kLockWords) {
    for (const Addr b : kLockWords) {
      if (a == b) continue;
      const Addr seq[] = {a, b, b, a};
      for (int k = 0; k < 4; ++k) {
        const auto pc = static_cast<uint32_t>(code.size());
        code.emplace_back();
        ops.push_back({pc, pc + 1, seq[k], k < 2});
      }
    }
  }
  code.emplace_back();
  code.back().op = Opcode::kExit;
  return isa::Program("orders", std::move(code), {}, std::move(ops));
}

using Findings = std::set<std::pair<uint32_t, std::string>>;

struct OracleFindings {
  Findings uninit;
  Findings pairing;
  Findings order;  // against every_lock_order()
};

/// Enumerates every path from pc 0. Register state: written mask. Lock
/// state: held bit per word; an op completes on a step from a pc inside
/// [begin, end) to exactly `end`, ops on one step in annotation order.
OracleFindings enumerate_paths(const isa::Program& p, uint32_t assumed) {
  constexpr uint8_t kFree = 1, kHeld = 2;  // value-set bits
  using Values = std::array<uint8_t, kNumLockWords>;
  const size_t n = p.size();
  std::vector<bool> reached(n, false);
  std::vector<uint32_t> must(n, ~0u);
  std::vector<Values> at(n, Values{});
  // Per-word value sets right before op k completes on a step from pc.
  std::map<std::pair<size_t, uint32_t>, Values> before;
  struct Path {
    uint32_t pc;
    uint32_t written;
    std::array<bool, kNumLockWords> held;
  };
  std::vector<Path> stack{{0, assumed, {}}};
  const auto add = [](Values* v, const std::array<bool, kNumLockWords>& h) {
    for (size_t w = 0; w < kNumLockWords; ++w) (*v)[w] |= h[w] ? kHeld : kFree;
  };
  while (!stack.empty()) {
    const Path path = stack.back();
    stack.pop_back();
    const uint32_t pc = path.pc;
    reached[pc] = true;
    must[pc] &= path.written;
    add(&at[pc], path.held);
    const Instr& in = p.at(pc);
    std::vector<uint32_t> succs;
    if (in.op == Opcode::kBr) {
      succs = {static_cast<uint32_t>(in.target), pc + 1};
    } else if (in.op == Opcode::kJmp) {
      succs = {static_cast<uint32_t>(in.target)};
    } else if (in.op != Opcode::kExit) {
      succs = {pc + 1};
    }
    for (const uint32_t to : succs) {
      Path q{to, path.written | reg_writes(in), path.held};
      for (size_t k = 0; k < p.lock_ops().size(); ++k) {
        const isa::LockOp& op = p.lock_ops()[k];
        if (op.end != to || pc < op.begin || pc >= op.end) continue;
        add(&before[{k, pc}], q.held);
        q.held[word_index(op.addr)] = op.acquire;
      }
      stack.push_back(q);
    }
  }

  OracleFindings f;
  for (uint32_t pc = 0; pc < n; ++pc) {
    if (!reached[pc]) continue;
    const uint32_t missing = reg_reads(p.at(pc)) & ~must[pc];
    if (missing != 0) {
      std::ostringstream os;
      os << "read of never-written register";
      for (int r = 0; r < isa::kNumIRegs; ++r) {
        if (missing & (1u << r)) os << " r" << r;
      }
      os << " in `" << isa::disasm(p.at(pc)) << "`";
      f.uninit.insert({pc, os.str()});
    }
    if (p.at(pc).op != Opcode::kExit) continue;
    for (size_t w = 0; w < kNumLockWords; ++w) {
      if (at[pc][w] & kHeld) {
        f.pairing.insert(
            {pc, lock_word(kLockWords[w]) + " may still be held at exit"});
      }
    }
  }
  for (const auto& [key, values] : before) {
    const isa::LockOp& op = p.lock_ops()[key.first];
    const size_t word = word_index(op.addr);
    const std::string verb = op.acquire ? "acquire" : "release";
    if (values[word] == (kFree | kHeld)) {
      f.pairing.insert({op.begin, verb + " of " + lock_word(op.addr) +
                                      " with inconsistent lock state on "
                                      "joining paths"});
    } else if (op.acquire && values[word] == kHeld) {
      f.pairing.insert({op.begin, "double acquire of " + lock_word(op.addr)});
    } else if (!op.acquire && values[word] == kFree) {
      f.pairing.insert(
          {op.begin, "release of " + lock_word(op.addr) + " that is not held"});
    }
    if (!op.acquire) continue;
    for (size_t w = 0; w < kNumLockWords; ++w) {
      if (w == word || !(values[w] & kHeld)) continue;
      std::ostringstream os;
      os << "acquires lock word 0x" << std::hex << op.addr
         << " while holding 0x" << kLockWords[w]
         << ", but sibling `orders` acquires them in the opposite order "
            "(potential deadlock)";
      f.order.insert({op.begin, os.str()});
    }
  }
  return f;
}

Findings of_check(const std::vector<Diagnostic>& diags, Check c) {
  Findings out;
  for (const Diagnostic& d : diags) {
    if (d.check == c) out.insert({d.pc, d.message});
  }
  return out;
}

TEST(Oracle, LintMatchesPathEnumerationOnLoopFreeLockPrograms) {
  Lcg next(0x853c49e6748fea9bull);
  const isa::Program orders = every_lock_order();
  size_t seen_uninit = 0, seen_pairing = 0, seen_order = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const isa::Program p = loop_free_locked_program(next, trial);
    LintOptions opt;
    opt.assumed_written = static_cast<uint32_t>(next() % 16);
    const OracleFindings want = enumerate_paths(p, opt.assumed_written);
    const std::vector<Diagnostic> diags = lint_program(p, opt);
    const std::vector<std::vector<Diagnostic>> conc =
        lint_concurrency({p, orders});
    const std::string listing = format_diagnostics(p, diags) +
                                format_diagnostics(p, conc[0]);
    EXPECT_EQ(of_check(diags, Check::kUninitRead), want.uninit) << listing;
    EXPECT_EQ(of_check(diags, Check::kLockPairing), want.pairing) << listing;
    EXPECT_EQ(of_check(conc[0], Check::kLockOrder), want.order) << listing;
    seen_uninit += want.uninit.size();
    seen_pairing += want.pairing.size();
    seen_order += want.order.size();
  }
  // The generator must exercise every compared finding.
  EXPECT_GT(seen_uninit, 50u);
  EXPECT_GT(seen_pairing, 50u);
  EXPECT_GT(seen_order, 20u);
}

}  // namespace
}  // namespace smt::analysis
