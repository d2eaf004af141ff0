#include "analysis/lint.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "analysis/absint.h"
#include "analysis/cfg.h"
#include "common/check.h"
#include "isa/disasm.h"

namespace smt::analysis {

using isa::Instr;
using isa::kNoReg;
using isa::LockOp;
using isa::Opcode;
using isa::RegId;
using isa::SyncRegion;

const char* name(Check c) {
  switch (c) {
    case Check::kUninitRead:       return "uninit-read";
    case Check::kSyncRegionWrite:  return "sync-region-write";
    case Check::kMissingPause:     return "missing-pause";
    case Check::kLockPairing:      return "lock-pairing";
    case Check::kOutOfExtentStore: return "out-of-extent";
    case Check::kUnreachable:      return "unreachable";
    case Check::kFallOffEnd:       return "fall-off-end";
    case Check::kBarrierMismatch:  return "barrier-mismatch";
    case Check::kLockOrder:        return "lock-order";
    case Check::kNumChecks:        break;
  }
  return "?";
}

const char* name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

namespace {

uint32_t bit(RegId r) { return r == kNoReg ? 0u : (1u << r); }

uint32_t mem_reads(const Instr& in) {
  return bit(in.mem.base) | bit(in.mem.index);
}

constexpr uint32_t kAllRegs = 0xffffffffu;

std::string reg_name(RegId r) {
  std::ostringstream os;
  if (isa::is_fp_reg(r)) {
    os << "f" << static_cast<int>(r) - isa::kNumIRegs;
  } else {
    os << "r" << static_cast<int>(r);
  }
  return os.str();
}

Diagnostic make_diag(Check c, Severity s, uint32_t pc, std::string msg) {
  Diagnostic d;
  d.check = c;
  d.severity = s;
  d.pc = pc;
  d.message = std::move(msg);
  return d;
}

Diagnostic error(Check c, uint32_t pc, std::string msg) {
  return make_diag(c, Severity::kError, pc, std::move(msg));
}

Diagnostic warning(Check c, uint32_t pc, std::string msg) {
  return make_diag(c, Severity::kWarning, pc, std::move(msg));
}

/// Fills Diagnostic::block, deduplicates, and stable-sorts into the
/// canonical order.
void finalize(const Cfg& g, std::vector<Diagnostic>* diags) {
  for (Diagnostic& d : *diags) {
    d.block =
        d.pc < g.block_of.size() ? g.block_of[d.pc] : 0;
  }
  std::stable_sort(diags->begin(), diags->end(), diagnostic_before);
  diags->erase(std::unique(diags->begin(), diags->end(),
                           [](const Diagnostic& a, const Diagnostic& b) {
                             return a.pc == b.pc && a.check == b.check &&
                                    a.severity == b.severity &&
                                    a.message == b.message;
                           }),
               diags->end());
}

}  // namespace

uint32_t reg_reads(const Instr& in) {
  switch (in.op) {
    case Opcode::kIAdd:
    case Opcode::kISub:
    case Opcode::kIAnd:
    case Opcode::kIOr:
    case Opcode::kIXor:
    case Opcode::kIShl:
    case Opcode::kIShr:
    case Opcode::kIMul:
    case Opcode::kIDiv:
      return bit(in.rs1) | (in.use_imm ? 0u : bit(in.rs2));
    case Opcode::kIMov:
      return bit(in.rs1);
    case Opcode::kIMovImm:
      return 0;
    case Opcode::kFAdd:
    case Opcode::kFSub:
    case Opcode::kFMul:
    case Opcode::kFDiv:
      return bit(in.rs1) | bit(in.rs2);
    case Opcode::kFMov:
    case Opcode::kFNeg:
      return bit(in.rs1);
    case Opcode::kFMovImm:
      return 0;
    case Opcode::kLoad:
    case Opcode::kFLoad:
    case Opcode::kPrefetch:
      return mem_reads(in);
    case Opcode::kStore:
    case Opcode::kFStore:
      return bit(in.rs1) | mem_reads(in);
    case Opcode::kXchg:
      // xchg reads the outgoing value from rd (encoded as rs1 == rd).
      return bit(in.rs1) | mem_reads(in);
    case Opcode::kBr:
      return bit(in.rs1) | (in.use_imm ? 0u : bit(in.rs2));
    case Opcode::kJmp:
    case Opcode::kPause:
    case Opcode::kHalt:
    case Opcode::kIpi:
    case Opcode::kNop:
    case Opcode::kExit:
      return 0;
    case Opcode::kNumOpcodes:
      break;
  }
  SMT_CHECK_MSG(false, "lint cannot classify opcode; extend reg_reads");
  return 0;
}

uint32_t reg_writes(const Instr& in) {
  // kNumOpcodes (and anything past it) must abort like reg_reads.
  SMT_CHECK_MSG(static_cast<size_t>(in.op) <
                    static_cast<size_t>(Opcode::kNumOpcodes),
                "lint cannot classify opcode; extend reg_writes");
  return isa::traits(in.op).writes_reg ? bit(in.rd) : 0u;
}

namespace {

/// Must-written registers: a RegId bitmask of the registers every path
/// has written. Join is intersection, so unreachable (its identity) is
/// every register. The entry needs no special case when a loop branches
/// back to instruction 0: every path starts from `entry_`, so the
/// back edge's state already contains it.
class WrittenDomain {
 public:
  using State = uint32_t;

  WrittenDomain(const isa::Program& p, const Cfg& g, uint32_t entry)
      : p_(p), g_(g), entry_(entry) {}

  State entry() const { return entry_; }
  State unreachable() const { return kAllRegs; }
  bool join(State* into, State from) const {
    const State j = *into & from;
    const bool grew = j != *into;
    *into = j;
    return grew;
  }
  void widen(State* into, State prev) const { *into &= prev; }
  bool equal(State a, State b) const { return a == b; }
  State transfer(uint32_t b, State s) const {
    for (uint32_t pc = g_.blocks[b].begin; pc < g_.blocks[b].end; ++pc) {
      s |= reg_writes(p_.at(pc));
    }
    return s;
  }
  State edge(uint32_t /*from*/, uint32_t /*to*/, State s) const { return s; }

 private:
  const isa::Program& p_;
  const Cfg& g_;
  State entry_;
};

void check_uninit_reads(const isa::Program& p, const Cfg& g,
                        uint32_t assumed_written,
                        std::vector<Diagnostic>* out) {
  Fixpoint<WrittenDomain> fp(g, WrittenDomain(p, g, assumed_written));
  fp.solve();
  for (uint32_t b = 0; b < g.blocks.size(); ++b) {
    if (!g.blocks[b].reachable) continue;
    uint32_t s = fp.in(b);
    for (uint32_t pc = g.blocks[b].begin; pc < g.blocks[b].end; ++pc) {
      const Instr& instr = p.at(pc);
      const uint32_t missing = reg_reads(instr) & ~s;
      if (missing != 0) {
        std::ostringstream os;
        os << "read of never-written register";
        for (int r = 0; r < isa::kNumRegs; ++r) {
          if (missing & (1u << r)) os << " " << reg_name(static_cast<RegId>(r));
        }
        os << " in `" << isa::disasm(instr) << "`";
        out->push_back(error(Check::kUninitRead, pc, os.str()));
      }
      s |= reg_writes(instr);
    }
  }
}

void check_sync_regions(const isa::Program& p,
                        std::vector<Diagnostic>* out) {
  for (const SyncRegion& r : p.sync_regions()) {
    if (r.end > p.size() || r.begin > r.end) {
      out->push_back(error(Check::kSyncRegionWrite, r.begin,
                           "malformed sync region `" + r.what + "`"));
      continue;
    }
    bool has_pause = false;
    for (uint32_t pc = r.begin; pc < r.end; ++pc) {
      const Instr& instr = p.at(pc);
      if (instr.op == Opcode::kPause) has_pause = true;
      const uint32_t stray = reg_writes(instr) & ~r.may_write;
      if (stray != 0) {
        std::ostringstream os;
        os << "`" << r.what << "` region writes register";
        for (int reg = 0; reg < isa::kNumRegs; ++reg) {
          if (stray & (1u << reg)) {
            os << " " << reg_name(static_cast<RegId>(reg));
          }
        }
        os << " outside its declared set (`" << isa::disasm(instr) << "`)";
        out->push_back(error(Check::kSyncRegionWrite, pc, os.str()));
      }
    }
    if (r.is_spin && r.wants_pause && !has_pause) {
      out->push_back(warning(Check::kMissingPause, r.begin,
                             "spin region `" + r.what +
                                 "` requested SpinKind::kPause but contains "
                                 "no pause instruction"));
    }
  }
}

// ---------------------------------------------------------------------------
// Lock analysis: one domain behind both lock-pairing and lock-order.
// ---------------------------------------------------------------------------

/// Per-word lattice: kBottom < {kFree, kHeld} < kConflict. A word is
/// may-held when it is kHeld or kConflict.
enum class LockState : uint8_t { kBottom, kFree, kHeld, kConflict };

LockState join_lock(LockState a, LockState b) {
  if (a == LockState::kBottom) return b;
  if (b == LockState::kBottom) return a;
  if (a == b) return a;
  return LockState::kConflict;
}

bool may_hold(LockState s) {
  return s == LockState::kHeld || s == LockState::kConflict;
}

bool well_formed(const LockOp& op, const isa::Program& p) {
  return op.end <= p.size() && op.begin < op.end;
}

std::string lock_word(Addr a) {
  std::ostringstream os;
  os << "lock word 0x" << std::hex << a;
  return os.str();
}

/// (held, acquired) lock-word pair observed at an acquire site.
struct OrderedPair {
  Addr held = 0;
  Addr acquired = 0;
  uint32_t pc = 0;  // the acquire's begin
};

/// What a replay of the converged lock analysis observes.
struct LockFindings {
  std::vector<Diagnostic> diags;   // lock-pairing
  std::vector<OrderedPair> pairs;  // every (may-held, acquired) pair
};

/// One LockState per annotated lock word (words_, sorted by address).
/// An op completes when control leaves its range through its end: on a
/// step from a pc inside [begin, end) to exactly `end`. Inside an
/// acquire's spin loop the lock is still free — the retry back edge and
/// the not-yet-taken success branch both stay at the pre-state; only
/// reaching the instruction after the range completes the acquire. (Both
/// emitters are structured this way: success lands on the label bound at
/// the end of the region.) Ops completing on one step apply in
/// annotation order.
class LockDomain {
 public:
  using State = std::vector<LockState>;

  LockDomain(const isa::Program& p, const Cfg& g) : p_(p), g_(g) {
    for (const LockOp& op : p.lock_ops()) {
      if (well_formed(op, p)) words_.push_back(op.addr);
    }
    std::sort(words_.begin(), words_.end());
    words_.erase(std::unique(words_.begin(), words_.end()), words_.end());
    for (const LockOp& op : p.lock_ops()) {
      if (!well_formed(op, p)) continue;
      const auto w = std::lower_bound(words_.begin(), words_.end(), op.addr);
      ends_at_[op.end].push_back(
          {&op, static_cast<size_t>(w - words_.begin())});
    }
  }

  bool empty() const { return words_.empty(); }

  State entry() const { return State(words_.size(), LockState::kFree); }
  State unreachable() const {
    return State(words_.size(), LockState::kBottom);
  }
  bool join(State* into, const State& from) const {
    bool grew = false;
    for (size_t w = 0; w < into->size(); ++w) {
      const LockState j = join_lock((*into)[w], from[w]);
      grew |= j != (*into)[w];
      (*into)[w] = j;
    }
    return grew;
  }
  void widen(State* into, const State& prev) const { join(into, prev); }
  bool equal(const State& a, const State& b) const { return a == b; }
  State transfer(uint32_t b, State s) const {
    return body(b, std::move(s), nullptr);
  }
  State edge(uint32_t from, uint32_t to, State s) const {
    step(g_.blocks[from].end - 1, g_.blocks[to].begin, &s, nullptr);
    return s;
  }

  /// Walks the converged solution once: every completion on every
  /// reachable edge and inside every reachable block, and every exit.
  void replay(const Fixpoint<LockDomain>& fp, LockFindings* f) const {
    for (uint32_t b = 0; b < g_.blocks.size(); ++b) {
      if (!g_.blocks[b].reachable) continue;
      for (const uint32_t pr : g_.blocks[b].preds) {
        if (!g_.blocks[pr].reachable) continue;
        State s = fp.out(pr);
        step(g_.blocks[pr].end - 1, g_.blocks[b].begin, &s, f);
      }
      body(b, fp.in(b), f);
    }
  }

 private:
  struct Completion {
    const LockOp* op;
    size_t word;
  };

  /// Applies every op completing on the step from_pc -> to_pc; `f`, when
  /// set, records what each completion's pre-state implies.
  void step(uint32_t from_pc, uint32_t to_pc, State* s,
            LockFindings* f) const {
    const auto it = ends_at_.find(to_pc);
    if (it == ends_at_.end()) return;
    for (const Completion& c : it->second) {
      const LockOp& op = *c.op;
      if (from_pc < op.begin || from_pc >= op.end) continue;
      if (f != nullptr) record(op, c.word, *s, f);
      (*s)[c.word] = op.acquire ? LockState::kHeld : LockState::kFree;
    }
  }

  /// Walks block `b` from `s`, applying completions that fall mid-block
  /// (sequential flow from pc-1 inside the range).
  State body(uint32_t b, State s, LockFindings* f) const {
    for (uint32_t pc = g_.blocks[b].begin; pc < g_.blocks[b].end; ++pc) {
      if (pc != g_.blocks[b].begin) step(pc - 1, pc, &s, f);
      if (f == nullptr || p_.at(pc).op != Opcode::kExit) continue;
      for (size_t w = 0; w < s.size(); ++w) {
        if (may_hold(s[w])) {
          f->diags.push_back(error(Check::kLockPairing, pc,
                                   lock_word(words_[w]) +
                                       " may still be held at exit"));
        }
      }
    }
    return s;
  }

  /// Diagnoses the pre-state `before` of `op` on `word`; an acquire also
  /// pairs `op.addr` with every other may-held word.
  void record(const LockOp& op, size_t word, const State& before,
              LockFindings* f) const {
    const std::string lock = lock_word(op.addr);
    std::string msg;
    if (before[word] == LockState::kConflict) {
      msg = (op.acquire ? "acquire of " : "release of ") + lock +
            " with inconsistent lock state on joining paths";
    } else if (op.acquire && before[word] == LockState::kHeld) {
      msg = "double acquire of " + lock;
    } else if (!op.acquire && before[word] == LockState::kFree) {
      msg = "release of " + lock + " that is not held";
    }
    if (!msg.empty()) {
      f->diags.push_back(error(Check::kLockPairing, op.begin, std::move(msg)));
    }
    if (!op.acquire) return;
    for (size_t w = 0; w < before.size(); ++w) {
      if (w != word && may_hold(before[w])) {
        f->pairs.push_back({words_[w], op.addr, op.begin});
      }
    }
  }

  const isa::Program& p_;
  const Cfg& g_;
  std::vector<Addr> words_;
  std::map<uint32_t, std::vector<Completion>> ends_at_;
};

/// Solves the lock domain and replays the solution. Malformed
/// annotations are reported and otherwise ignored.
LockFindings analyze_locks(const isa::Program& p, const Cfg& g) {
  LockFindings f;
  for (const LockOp& op : p.lock_ops()) {
    if (!well_formed(op, p)) {
      f.diags.push_back(error(Check::kLockPairing, op.begin,
                              "malformed lock-op annotation"));
    }
  }
  Fixpoint<LockDomain> fp(g, LockDomain(p, g));
  if (fp.domain().empty()) return f;
  fp.solve();
  fp.domain().replay(fp, &f);
  return f;
}

void check_extents(const isa::Program& p, const Cfg& g,
                   const IntervalAnalysis& ia, const LintOptions& opt,
                   std::vector<Diagnostic>* out) {
  if (!opt.extents_complete) return;
  // Valid start addresses of an 8-byte access, as merged inclusive
  // windows (extents can be adjacent, so coverage must merge them).
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (const Extent& e : opt.extents) {
    if (e.bytes < 8) continue;
    windows.emplace_back(static_cast<int64_t>(e.base),
                         static_cast<int64_t>(e.base + e.bytes - 8));
  }
  std::sort(windows.begin(), windows.end());
  std::vector<std::pair<int64_t, int64_t>> merged;
  for (const auto& w : windows) {
    if (!merged.empty() && w.first <= merged.back().second + 1) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  const auto covered = [&](const Interval& a) {
    for (const auto& w : merged) {
      if (w.first <= a.lo && a.hi <= w.second) return true;
    }
    return false;
  };
  const auto disjoint = [&](const Interval& a) {
    for (const auto& w : merged) {
      if (a.lo <= w.second && w.first <= a.hi) return false;
    }
    return true;
  };

  for (uint32_t b = 0; b < g.blocks.size(); ++b) {
    if (!g.blocks[b].reachable) continue;
    RegState s = ia.in[b];
    for (uint32_t pc = g.blocks[b].begin; pc < g.blocks[b].end; ++pc) {
      const Instr& in = p.at(pc);
      if (in.is_store()) {
        const Interval a = eval_addr(in.mem, s);
        if (!a.is_bottom() && !covered(a)) {
          if (disjoint(a)) {
            std::ostringstream os;
            os << "store to ";
            if (a.is_constant()) {
              os << "0x" << std::hex << static_cast<uint64_t>(a.lo);
            } else {
              os << "[0x" << std::hex << static_cast<uint64_t>(a.lo)
                 << ", 0x" << static_cast<uint64_t>(a.hi) << "]";
            }
            os << " outside every registered extent (`" << isa::disasm(in)
               << "`)";
            out->push_back(error(Check::kOutOfExtentStore, pc, os.str()));
          } else if (a.lo != std::numeric_limits<int64_t>::min() &&
                     a.hi != std::numeric_limits<int64_t>::max()) {
            // A bounded range that straddles an extent boundary: the
            // classic off-by-one loop bound. An unbounded range (an
            // index loaded from memory) is left to the dynamic detector.
            std::ostringstream os;
            os << "store address range [0x" << std::hex
               << static_cast<uint64_t>(a.lo) << ", 0x"
               << static_cast<uint64_t>(a.hi)
               << "] may fall outside the registered extents (`"
               << isa::disasm(in) << "`)";
            out->push_back(
                warning(Check::kOutOfExtentStore, pc, os.str()));
          }
        }
      }
      interval_transfer(in, &s);
    }
  }
}

void check_reachability(const isa::Program& p, const Cfg& g,
                        std::vector<Diagnostic>* out) {
  for (const BasicBlock& b : g.blocks) {
    if (!b.reachable) {
      std::ostringstream os;
      os << "unreachable code (instructions " << b.begin << ".."
         << b.end - 1 << ", starts `" << isa::disasm(p.at(b.begin)) << "`)";
      out->push_back(warning(Check::kUnreachable, b.begin, os.str()));
      continue;
    }
    if (b.falls_off_end) {
      out->push_back(error(Check::kFallOffEnd, b.end - 1,
                           b.bad_target
                               ? "branch target is unresolved or out of range"
                               : "control can run past the end of the "
                                 "program"));
    }
  }
}

}  // namespace

std::vector<Diagnostic> lint_program(const isa::Program& p,
                                     const LintOptions& opt) {
  std::vector<Diagnostic> diags;
  if (p.empty()) {
    diags.push_back(error(Check::kFallOffEnd, 0, "empty program"));
    return diags;
  }
  const Cfg g = Cfg::build(p);
  const IntervalAnalysis ia = analyze_intervals(p, g);
  check_uninit_reads(p, g, opt.assumed_written, &diags);
  check_sync_regions(p, &diags);
  const LockFindings locks = analyze_locks(p, g);
  diags.insert(diags.end(), locks.diags.begin(), locks.diags.end());
  check_extents(p, g, ia, opt, &diags);
  check_reachability(p, g, &diags);
  finalize(g, &diags);
  return diags;
}

// ---------------------------------------------------------------------------
// Cross-program concurrency checks.
// ---------------------------------------------------------------------------

namespace {

bool is_barrier_region(const SyncRegion& r) {
  return r.what.rfind("barrier_wait", 0) == 0;
}

}  // namespace

std::vector<std::vector<Diagnostic>> lint_concurrency(
    const std::vector<isa::Program>& programs) {
  const size_t np = programs.size();
  std::vector<std::vector<Diagnostic>> diags(np);
  std::vector<Cfg> cfgs(np);
  std::vector<size_t> barrier_count(np, 0);
  std::vector<uint32_t> barrier_anchor(np, 0);
  std::vector<std::vector<OrderedPair>> pairs(np);

  for (size_t i = 0; i < np; ++i) {
    const isa::Program& p = programs[i];
    if (p.empty()) continue;
    cfgs[i] = Cfg::build(p);
    const Cfg& g = cfgs[i];
    const IntervalAnalysis ia = analyze_intervals(p, g);
    const LoopInfo li = analyze_loops(p, g, ia);

    // Reachable blocks that exit the program.
    std::vector<uint32_t> exit_blocks;
    for (uint32_t b = 0; b < g.blocks.size(); ++b) {
      if (!g.blocks[b].reachable) continue;
      for (uint32_t pc = g.blocks[b].begin; pc < g.blocks[b].end; ++pc) {
        if (p.at(pc).op == Opcode::kExit) {
          exit_blocks.push_back(b);
          break;
        }
      }
    }

    bool first = true;
    for (const SyncRegion& r : p.sync_regions()) {
      if (!is_barrier_region(r) || r.end > p.size() || r.begin >= r.end) {
        continue;
      }
      const uint32_t rb = g.block_of[r.begin];
      if (!g.blocks[rb].reachable) continue;
      if (first) {
        barrier_anchor[i] = r.begin;
        first = false;
      }
      bool on_every_path = true;
      for (const uint32_t eb : exit_blocks) {
        if (!li.dominates(rb, eb)) on_every_path = false;
      }
      if (!exit_blocks.empty() && !on_every_path) {
        diags[i].push_back(
            error(Check::kBarrierMismatch, r.begin,
                  "barrier episode `" + r.what +
                      "` is not reached on every path to exit — the "
                      "sibling would wait forever"));
      } else {
        ++barrier_count[i];
      }
    }

    pairs[i] = analyze_locks(p, g).pairs;
  }

  // Barrier episodes must agree across every participating program.
  if (np >= 2) {
    for (size_t i = 0; i < np; ++i) {
      for (size_t j = 0; j < np; ++j) {
        if (i == j || barrier_count[i] == barrier_count[j]) continue;
        std::ostringstream os;
        os << "program reaches " << barrier_count[i]
           << " barrier episode(s) on every path but sibling `"
           << programs[j].name() << "` reaches " << barrier_count[j];
        diags[i].push_back(
            error(Check::kBarrierMismatch, barrier_anchor[i], os.str()));
      }
    }
  }

  // Lock-order inversions across programs: (a then b) here, (b then a)
  // in a sibling is a potential deadlock.
  for (size_t i = 0; i < np; ++i) {
    for (const OrderedPair& mine : pairs[i]) {
      for (size_t j = 0; j < np; ++j) {
        if (i == j) continue;
        for (const OrderedPair& theirs : pairs[j]) {
          if (mine.held == theirs.acquired && mine.acquired == theirs.held) {
            std::ostringstream os;
            os << "acquires lock word 0x" << std::hex << mine.acquired
               << " while holding 0x" << mine.held << ", but sibling `"
               << programs[j].name()
               << "` acquires them in the opposite order (potential "
                  "deadlock)";
            diags[i].push_back(
                error(Check::kLockOrder, mine.pc, os.str()));
          }
        }
      }
    }
  }

  for (size_t i = 0; i < np; ++i) {
    if (!programs[i].empty()) finalize(cfgs[i], &diags[i]);
  }
  return diags;
}

bool diagnostic_before(const Diagnostic& a, const Diagnostic& b) {
  if (a.pc != b.pc) return a.pc < b.pc;
  if (a.check != b.check) return a.check < b.check;
  if (a.severity != b.severity) return a.severity < b.severity;
  return a.message < b.message;
}

size_t count_severity(const std::vector<Diagnostic>& diags, Severity s) {
  size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::string format_diagnostics(const isa::Program& p,
                               const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const Diagnostic& d : diags) {
    os << p.name() << ":" << d.pc << ": " << name(d.severity) << ": "
       << name(d.check) << ": " << d.message << "\n";
  }
  return os.str();
}

}  // namespace smt::analysis
