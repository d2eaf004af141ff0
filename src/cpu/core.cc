#include "cpu/core.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "trace/sampler.h"

namespace smt::cpu {

using isa::Opcode;
using isa::UnitClass;
using perfmon::Event;

const char* name(RunTermination t) {
  switch (t) {
    case RunTermination::kDone:                return "done";
    case RunTermination::kDeadlock:            return "deadlock";
    case RunTermination::kCycleBudgetExceeded: return "cycle_budget_exceeded";
    case RunTermination::kCancelled:           return "cancelled";
  }
  return "?";
}

const char* Core::mode_name(TMode m) {
  switch (m) {
    case TMode::kIdle:      return "idle";
    case TMode::kRunning:   return "running";
    case TMode::kHalting:   return "halting";
    case TMode::kEnterHalt: return "enter_halt";
    case TMode::kHalted:    return "halted";
    case TMode::kWaking:    return "waking";
    case TMode::kExiting:   return "exiting";
    case TMode::kDone:      return "done";
  }
  return "?";
}

Core::ThreadSnapshot Core::snapshot_thread(CpuId cpu) const {
  const Thread& t = threads_[idx(cpu)];
  ThreadSnapshot s;
  s.mode = mode_name(t.mode);
  s.next_pc = t.arch.pc;
  s.rob_occupancy = t.rob_occupancy();
  s.uq_occupancy = t.uq.size();
  s.lq_used = t.lq_used;
  s.sb_used = t.sb_used;
  s.ipi_pending = t.ipi_pending;
  return s;
}

Core::Core(const CoreConfig& cfg, mem::CacheHierarchy& hierarchy,
           mem::SimMemory& memory, perfmon::PerfCounters& counters)
    : cfg_(cfg), hier_(hierarchy), mem_(memory), ctr_(counters) {
  SMT_CHECK(cfg_.rob_size >= 2 && cfg_.uop_queue_size >= 2);
  SMT_CHECK(cfg_.load_queue_size >= 2 && cfg_.store_buffer_size >= 2);
  const uint64_t ring = std::bit_ceil(static_cast<uint64_t>(cfg_.rob_size));
  rob_mask_ = ring - 1;
  for (Thread& t : threads_) {
    t.rob.resize(ring);
    t.ready_at.resize(ring);
    t.next_link.resize(ring * kLinksPerUop);
    t.unissued.reserve(ring);
    t.uq.init(static_cast<size_t>(cfg_.uop_queue_size));
  }
  port_caps_ = port_caps(cfg_);
  for (int i = 0; i < isa::kNumOpcodeValues; ++i) {
    const auto op = static_cast<Opcode>(i);
    latency_[i] = cfg_.latency(op);
    divider_[i] = unpipelined_divider(isa::unit_class(op), cfg_);
  }
  update_limits();
}

void Core::decode(const isa::Instr& in, StaticUop* s) {
  // Filled in place: a StaticUop returned by value and copied into the
  // table cost about twice as much per instruction, and every job's
  // set-up decodes its programs.
  const isa::OpTraits& tr = isa::traits(in.op);
  s->op = in.op;
  s->unit = tr.unit;
  s->is_branch = tr.is_branch;
  s->is_load = tr.is_load && in.op != Opcode::kPrefetch;
  s->is_store = tr.is_store;
  s->is_prefetch = in.op == Opcode::kPrefetch;
  s->prefetch_to_l1 = s->is_prefetch && in.imm != 0;
  if (tr.writes_reg) s->dst = in.rd;

  auto add_dep_reg = [s](isa::RegId reg) {
    if (reg == isa::kNoReg) return;
    SMT_CHECK(s->ndep_regs < s->dep_regs.size());
    s->dep_regs[s->ndep_regs++] = reg;
  };
  if (in.op != Opcode::kIMovImm && in.op != Opcode::kFMovImm) {
    add_dep_reg(in.rs1);
  }
  if (!in.use_imm && in.rs2 != isa::kNoReg) add_dep_reg(in.rs2);
  if (tr.is_mem) {
    add_dep_reg(in.mem.base);
    add_dep_reg(in.mem.index);
  }
}

void Core::load_program(CpuId cpu, const isa::Program& prog,
                        const ArchState& init) {
  Thread& t = threads_[idx(cpu)];
  SMT_CHECK_MSG(t.mode == TMode::kIdle, "context already has a program");
  SMT_CHECK_MSG(!prog.empty(), "empty program");
  t.prog = &prog;
  t.decoded.resize(prog.size());
  for (size_t pc = 0; pc < prog.size(); ++pc) {
    decode(prog.at(pc), &t.decoded[pc]);
  }
  t.arch = init;
  t.arch.pc = 0;
  t.mode = TMode::kRunning;
  update_limits();
}

void Core::subscribe(PipelineObserver* obs, HookSet hooks) {
  for (int h = 0; h < kNumHooks; ++h) {
    if (hooks & bit(static_cast<Hook>(h))) subscribers_[h].push_back(obs);
  }
  scan_issue_blocks_ = scan_issue_blocks_ || obs->wants_issue_blocks();
}

bool Core::all_done() const {
  for (const Thread& t : threads_) {
    if (t.mode != TMode::kIdle && t.mode != TMode::kDone) return false;
  }
  return true;
}

bool Core::other_active(CpuId cpu) const {
  const Thread& o = threads_[idx(other(cpu))];
  switch (o.mode) {
    case TMode::kIdle:
    case TMode::kDone:
    case TMode::kHalted:
      return false;
    default:
      return true;
  }
}

Core::Limits Core::compute_limits(CpuId cpu) const {
  // The scheduler queues are split between active contexts like the other
  // buffering structures; this is the partitioning that caps per-thread
  // lookahead (and thus per-thread IPC) in SMT mode.
  const bool p = cfg_.static_partitioning && other_active(cpu);
  const int div = p ? 2 : 1;
  return {p,
          cfg_.rob_size / div,
          cfg_.load_queue_size / div,
          cfg_.store_buffer_size / div,
          cfg_.uop_queue_size / div,
          cfg_.sched_window / div};
}

void Core::update_limits() {
  // Exact between calls because a context's activeness (other_active)
  // changes only in update_modes, after which step_cycle calls this
  // whenever a mode changed, and in load_program, which calls it too: the
  // one other mode change, fetch moving a context from kRunning to
  // kHalting or kExiting, keeps it active.
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    threads_[i].limits = compute_limits(static_cast<CpuId>(i));
  }
}

void Core::link_producers(Thread& t, uint32_t slot) {
  RobEntry& e = t.rob[slot];
  e.waiting_on = 0;
  e.producers_done = 0;
  e.waiters = kNoLink;
  // RAW dependences only: the physical register file is large enough to
  // rename away WAW/WAR (128 entries on Netburst), so a destination
  // conflict never delays issue. The paper's |T|-register ILP
  // construction still serializes because its accumulations read their
  // target (t = t op s). A source read twice takes two links to the same
  // producer and is woken twice, which the count and the max absorb.
  for (int d = 0; d < e.uop.ndep_regs; ++d) {
    const uint64_t w = t.last_writer[e.uop.dep_regs[d]];
    // A retired producer's result is long available (its done_at was at
    // most the cycle it retired in), and its slot may be reused.
    if (w == 0 || w - 1 < t.head) continue;
    RobEntry& producer = t.rob[(w - 1) & rob_mask_];
    if (producer.issued) {
      e.producers_done = std::max(e.producers_done, producer.done_at);
      continue;
    }
    const uint32_t link = slot * kLinksPerUop + static_cast<uint32_t>(d);
    t.next_link[link] = producer.waiters;
    producer.waiters = link;
    ++e.waiting_on;
  }
  t.ready_at[slot] = e.waiting_on == 0 ? e.producers_done : kReadyUnknown;
}

void Core::wake_waiters(Thread& t, RobEntry& e, Cycle done) {
  for (uint32_t link = e.waiters; link != kNoLink; link = t.next_link[link]) {
    const uint32_t slot = link / kLinksPerUop;
    RobEntry& w = t.rob[slot];
    w.producers_done = std::max(w.producers_done, done);
    if (--w.waiting_on == 0) t.ready_at[slot] = w.producers_done;
  }
  e.waiters = kNoLink;
}

void Core::reclaim_store_buffer(Thread& t) {
  auto& v = t.sb_drain_free_at;
  for (size_t i = 0; i < v.size();) {
    if (v[i] <= now_) {
      v[i] = v.back();
      v.pop_back();
      --t.sb_used;
      SMT_DCHECK(t.sb_used >= 0);
    } else {
      ++i;
    }
  }
}

void Core::deliver_ipi(CpuId target) {
  Thread& t = threads_[idx(target)];
  ctr_.add(target, Event::kIpisReceived);
  // Sticky semantics: an IPI that arrives while the target is still on its
  // way into halt arms an immediate wake-up, so the sleep/wake protocol has
  // no lost-wakeup race.
  t.ipi_pending = true;
}

void Core::mirror_access_stats(CpuId cpu, const mem::AccessOutcome& out,
                               bool is_load, uint32_t pc) {
  if (out.served_by != mem::ServedBy::kL1) {
    ctr_.add(cpu, Event::kL1Misses);
    for (PipelineObserver* o : subscribers(Hook::kDemandMiss)) {
      o->on_demand_miss(cpu, pc, out.l2_miss, now_);
    }
  }
  if (out.served_by == mem::ServedBy::kL2 ||
      out.served_by == mem::ServedBy::kMemory) {
    ctr_.add(cpu, Event::kL2Accesses);
  }
  if (out.l2_miss) {
    ctr_.add(cpu, Event::kL2Misses);
    if (is_load) ctr_.add(cpu, Event::kL2ReadMisses);
  }
}

void Core::check_memory_order(Thread& t, CpuId cpu, Addr addr,
                              uint64_t value) {
  // Did this thread recently load a *different* value from this word?
  bool reloaded_changed = false;
  for (int i = 0; i < Thread::kRlSize; ++i) {
    const int p = (t.rl_pos - 1 - i + 2 * Thread::kRlSize) % Thread::kRlSize;
    if (!t.rl_valid[p]) break;
    if (t.rl_addr[p] == addr) {
      reloaded_changed = t.rl_val[p] != value;
      break;  // most recent observation decides
    }
  }
  if (reloaded_changed) {
    // ...and did the sibling store to it within the detection window?
    const Thread& o = threads_[idx(other(cpu))];
    const Cycle horizon =
        now_ > cfg_.machine_clear_window ? now_ - cfg_.machine_clear_window : 0;
    for (int i = 0; i < Thread::kRsSize; ++i) {
      if (o.rs_valid[i] && o.rs_addr[i] == addr && o.rs_cyc[i] >= horizon) {
        ctr_.add(cpu, Event::kMachineClears);
        t.fetch_stall_until =
            std::max(t.fetch_stall_until, now_ + cfg_.machine_clear_penalty);
        break;
      }
    }
  }
  t.rl_addr[t.rl_pos] = addr;
  t.rl_val[t.rl_pos] = value;
  t.rl_valid[t.rl_pos] = true;
  t.rl_pos = (t.rl_pos + 1) % Thread::kRlSize;
}

// ---------------------------------------------------------------------------
// Stage 1: mode updates
// ---------------------------------------------------------------------------

void Core::update_modes(Thread& t, CpuId cpu) {
  switch (t.mode) {
    case TMode::kHalting:
      if (t.pipeline_empty()) {
        t.mode = TMode::kEnterHalt;
        t.mode_until = now_ + cfg_.halt_enter_cost;
        ctr_.add(cpu, Event::kHaltTransitions);
      }
      break;
    case TMode::kEnterHalt:
      if (now_ >= t.mode_until) {
        t.mode = TMode::kHalted;
      }
      break;
    case TMode::kHalted:
      if (t.ipi_pending) {
        t.ipi_pending = false;
        t.mode = TMode::kWaking;
        t.mode_until = now_ + cfg_.halt_wake_cost;
        for (PipelineObserver* o : subscribers(Hook::kIpiWake)) {
          o->on_ipi_wake(cpu, now_);
        }
      }
      break;
    case TMode::kWaking:
      if (now_ >= t.mode_until) {
        t.mode = TMode::kRunning;
        for (PipelineObserver* o : subscribers(Hook::kHaltExit)) {
          o->on_halt_exit(cpu, now_);
        }
      }
      break;
    case TMode::kExiting:
      if (t.pipeline_empty()) t.mode = TMode::kDone;
      break;
    case TMode::kRunning:
      // An IPI to a running context stays pending (x86 semantics: a HLT
      // executed with an interrupt pending falls straight through). This
      // makes the sleep/wake barrier protocol free of lost-wakeup races.
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Stage 2: retire
// ---------------------------------------------------------------------------

int Core::retire_thread(Thread& t, CpuId cpu) {
  int retired = 0;
  while (retired < cfg_.retire_width && t.head != t.next) {
    RobEntry& e = t.rob[t.head & rob_mask_];
    if (!e.issued || e.done_at > now_) break;
    const DynUop& u = e.uop;

    ctr_.add(cpu, Event::kInstrRetired);
    const int uops = u.op == Opcode::kXchg ? 2 : 1;
    ctr_.add(cpu, Event::kUopsRetired, uops);
    if (u.is_branch) ctr_.add(cpu, Event::kBranchesRetired);
    if (u.is_load && !u.is_prefetch) ctr_.add(cpu, Event::kLoadsRetired);
    if (u.is_store) ctr_.add(cpu, Event::kStoresRetired);
    if (u.is_prefetch) ctr_.add(cpu, Event::kPrefetchesRetired);
    switch (u.unit) {
      case UnitClass::kFpAdd:
      case UnitClass::kFpMul:
      case UnitClass::kFpDiv:
      case UnitClass::kFpMove:
        ctr_.add(cpu, Event::kFpUopsRetired);
        break;
      default:
        break;
    }

    if (u.is_load && !u.is_prefetch) {
      --t.lq_used;
      SMT_DCHECK(t.lq_used >= 0);
    }
    if (u.is_store) {
      // Begin draining through the shared L1 store-commit port.
      const Cycle start = std::max(now_, store_commit_port_free_);
      store_commit_port_free_ = start + 1;
      const mem::AccessOutcome out =
          hier_.access(u.addr, /*is_write=*/true, cpu, start, u.pc);
      mirror_access_stats(cpu, out, /*is_load=*/false, u.pc);
      t.sb_drain_free_at.push_back(std::max(out.ready, start + 1));
      // The store-buffer entry stays occupied until the drain completes.
    }

    for (PipelineObserver* o : subscribers(Hook::kRetire)) {
      o->on_retire(cpu, u, uops, now_);
    }

    ++t.head;
    ++retired;
  }
  return retired;
}

// ---------------------------------------------------------------------------
// Stage 3: issue / execute
// ---------------------------------------------------------------------------

bool Core::try_issue_one(Thread& t, CpuId cpu, int& budget) {
  if (budget <= 0) return false;
  const size_t window = std::min(
      static_cast<size_t>(sched_window_limit(cpu)), t.unissued.size());
  // Resume where this cycle's previous call stopped (see Thread::scan_pos).
  for (; t.scan_pos < window; ++t.scan_pos) {
    const uint64_t seq = t.unissued[t.scan_pos];
    if (!ready(t, seq)) continue;
    RobEntry& e = t.rob[seq & rob_mask_];

    // Structural check + reservation: the first candidate port with
    // capacity left, and the unpipelined divider, if the unit needs one.
    // Portless uops (nop/pause/halt/ipi) take an issue slot only: port -1.
    // The first ready uop denied either is kept for scan_issue_blocks.
    const DynUop& u = e.uop;
    const int port = first_free_port(u.unit, caps_);
    if (port < 0 && !candidate_ports(u.unit).empty()) {
      if (t.first_denied == kNoneDenied) t.first_denied = t.scan_pos;
      continue;
    }
    const int div = divider_[static_cast<int>(u.op)];
    if (div >= 0 && dividers_[div].busy_until > now_) {
      if (t.first_denied == kNoneDenied) t.first_denied = t.scan_pos;
      continue;
    }

    Cycle done;
    if (u.is_load) {
      const mem::AccessOutcome out =
          hier_.access(u.addr, /*is_write=*/false, cpu, now_, u.pc);
      mirror_access_stats(cpu, out, /*is_load=*/true, u.pc);
      done = out.ready;
    } else {
      if (u.is_prefetch) {  // fire-and-forget
        hier_.prefetch(u.addr, u.prefetch_to_l1, cpu, now_);
      }
      done = now_ + latency_[static_cast<int>(u.op)];
    }
    if (port >= 0) --caps_[port];
    if (div >= 0) dividers_[div] = {done, static_cast<int>(idx(cpu))};

    e.issued = true;
    e.done_at = done;
    wake_waiters(t, e, done);
    ctr_.add(cpu, Event::kIssuedUops);
    // Interference bookkeeping: who took which port this cycle (consumed
    // by scan_issue_blocks; simulation state is never read from these).
    ++uops_issued_[idx(cpu)];
    if (port >= 0) ++port_issued_[idx(cpu)][port];
    for (PipelineObserver* o : subscribers(Hook::kIssue)) {
      o->on_issue(cpu, u, port, done, now_);
    }
    // The next uop slides into scan_pos; a zero-latency issue's consumers
    // were just woken ready for this cycle, and they sit after it, so the
    // rest of this scan examines them.
    t.unissued.erase(t.unissued.begin() +
                     static_cast<std::ptrdiff_t>(t.scan_pos));
    --budget;
    return true;
  }
  return false;
}

void Core::scan_issue_blocks() {
  // Attribution-only pass, run after the issue stage settles: for each
  // context, find the oldest dep-ready unissued uop still in the scheduler
  // window. It failed to issue this cycle, so it is blocked on structure —
  // either an unpipelined divider that is mid-operation, or a port taken by
  // other uops this cycle (or the issue slots, when the budget ran out
  // before the issue scan reached it). The issue scan already looked at
  // every entry before scan_pos, and those it found unready stay unready
  // for the rest of the cycle (see Thread::scan_pos), so the oldest ready
  // entry is the first one it denied, or else the first ready one from
  // scan_pos on. Reads the same state try_issue_one reads through the same
  // readiness helper and writes only the Thread attribution fields, so
  // the simulation itself is unperturbed. The blocked uop is classified
  // against the end-of-cycle caps and divider state.
  // In an event-skip window nothing issues and no divider or
  // dependency deadline expires mid-window, so the fields stay constant and
  // record_cycle_counters can replay them exactly over n cycles (a frozen
  // cycle leaves every cap full and port_issued_ all-zero, so the only
  // reachable block there is kDividerBusy — whose owner is also frozen).
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    Thread& t = threads_[i];
    const CpuId cpu = static_cast<CpuId>(i);
    const int sib = 1 - i;
    t.issue_block.active = false;
    const size_t window = std::min(
        static_cast<size_t>(sched_window_limit(cpu)), t.unissued.size());
    for (size_t k = std::min(t.first_denied, t.scan_pos); k < window; ++k) {
      const uint64_t seq = t.unissued[k];
      if (!ready(t, seq)) continue;
      const RobEntry& e = t.rob[seq & rob_mask_];
      // The same candidate list and caps try_issue_one reads: with a
      // candidate port free, only a busy divider can have held it back.
      const int div = divider_[static_cast<int>(e.uop.op)];
      BlockReason reason = BlockReason::kPortConflict;
      bool sibling = false;
      int port = -1;
      if (div >= 0 && dividers_[div].busy_until > now_ &&
          first_free_port(e.uop.unit, caps_) >= 0) {
        reason = BlockReason::kDividerBusy;
        sibling = dividers_[div].owner == sib;
      } else {
        // Port conflict: name the exhausted candidate port, preferring
        // one the sibling actually issued onto this cycle; with no
        // candidate exhausted the uop lost to raw issue-width, blamed on
        // the sibling when it consumed any of the shared slots.
        for (const IssuePort c : candidate_ports(e.uop.unit)) {
          const int p = static_cast<int>(c);
          if (caps_[p] > 0) continue;
          if (port_issued_[sib][p] > 0) {
            port = p;
            sibling = true;
            break;
          }
          if (port < 0) port = p;  // exhausted by this context alone
        }
        if (port < 0) sibling = uops_issued_[sib] > 0;
      }
      t.issue_block = {true, reason, e.uop.pc, sibling, port};
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 4: dispatch (allocation)
// ---------------------------------------------------------------------------

Core::Block Core::alloc_block(const Thread& t, CpuId cpu) const {
  if (t.uq.empty()) return {};
  const DynUop& u = t.uq.front();
  if (t.rob_occupancy() >= static_cast<size_t>(rob_limit(cpu))) {
    return {true, BlockReason::kRob, u.pc,
            partitioned(cpu) &&
                t.rob_occupancy() < static_cast<size_t>(cfg_.rob_size)};
  }
  if (u.is_load && !u.is_prefetch && t.lq_used >= lq_limit(cpu)) {
    return {true, BlockReason::kLoadQueue, u.pc,
            partitioned(cpu) && t.lq_used < cfg_.load_queue_size};
  }
  if (u.is_store && t.sb_used >= sb_limit(cpu)) {
    return {true, BlockReason::kStoreBuffer, u.pc,
            partitioned(cpu) && t.sb_used < cfg_.store_buffer_size};
  }
  return {};
}

int Core::dispatch_thread(Thread& t, CpuId cpu) {
  SMT_DCHECK(t.limits == compute_limits(cpu));
  int dispatched = 0;
  t.alloc_stall = {};
  while (dispatched < cfg_.dispatch_width && !t.uq.empty()) {
    t.alloc_stall = alloc_block(t, cpu);
    if (t.alloc_stall.active) break;
    const DynUop& u = t.uq.front();

    SMT_DCHECK(t.rob_occupancy() <= rob_mask_);
    const uint32_t slot = static_cast<uint32_t>(t.next & rob_mask_);
    RobEntry& e = t.rob[slot];
    e.uop = u;
    e.issued = false;
    e.done_at = 0;
    link_producers(t, slot);

    t.unissued.push_back(t.next);
    if (u.dst != isa::kNoReg) t.last_writer[u.dst] = t.next + 1;
    if (u.is_load && !u.is_prefetch) ++t.lq_used;
    if (u.is_store) ++t.sb_used;

    ++t.next;
    t.uq.pop_front();
    ++dispatched;
    ctr_.add(cpu, Event::kDispatchedUops);
    for (PipelineObserver* o : subscribers(Hook::kDispatch)) {
      o->on_dispatch(cpu, e.uop, now_);
    }
  }
  return dispatched;
}

// ---------------------------------------------------------------------------
// Stage 5: fetch (functional execution)
// ---------------------------------------------------------------------------

int Core::fetch_thread(Thread& t, CpuId cpu) {
  int fetched = 0;
  while (fetched < cfg_.fetch_width &&
         t.uq.size() < static_cast<size_t>(uq_limit(cpu))) {
    const uint32_t pc = t.arch.pc;
    SMT_DCHECK(pc < t.decoded.size());
    const ExecResult r = exec_instr(t.prog->at(pc), t.arch, mem_);
    t.arch.pc = r.next_pc;

    if (r.special == ExecResult::Special::kExit) {
      t.mode = TMode::kExiting;
      break;
    }

    const StaticUop& s = t.decoded[pc];
    DynUop u;
    u.uid = uop_uid_next_++;
    u.pc = pc;
    u.op = s.op;
    u.unit = s.unit;
    u.dst = s.dst;
    std::copy(s.dep_regs.begin(), s.dep_regs.end(), u.dep_regs);
    u.ndep_regs = s.ndep_regs;
    u.addr = r.addr;
    u.is_load = s.is_load;
    u.is_store = s.is_store;
    u.is_prefetch = s.is_prefetch;
    u.prefetch_to_l1 = s.prefetch_to_l1;
    u.is_branch = s.is_branch;

    // Guest-access hook (happens-before race detection, sync-word
    // watchpoints): raised here because functional execution at fetch
    // time makes the call sequence an exact sequentially consistent
    // interleaving of both contexts' accesses, with the stored / exchanged
    // value known. Pure observation — no simulation state is touched.
    const std::vector<PipelineObserver*>& accesses =
        subscribers(Hook::kGuestAccess);
    if (!accesses.empty() && (u.is_load || u.is_store) && !u.is_prefetch) {
      const GuestAccess kind = u.op == Opcode::kXchg ? GuestAccess::kXchg
                               : u.is_store           ? GuestAccess::kStore
                                                      : GuestAccess::kLoad;
      const uint64_t value =
          kind == GuestAccess::kStore ? mem_.read_u64(r.addr) : r.loaded;
      for (PipelineObserver* o : accesses) {
        o->on_guest_access(cpu, u.pc, r.addr, kind, value, now_);
      }
    }

    // Memory-order-violation (spin-exit) modelling.
    if (u.is_load) check_memory_order(t, cpu, r.addr, r.loaded);
    if (u.is_store) {
      t.rs_addr[t.rs_pos] = r.addr;
      t.rs_cyc[t.rs_pos] = now_;
      t.rs_valid[t.rs_pos] = true;
      t.rs_pos = (t.rs_pos + 1) % Thread::kRsSize;
    }

    t.uq.push_back(u);
    ++fetched;
    for (PipelineObserver* o : subscribers(Hook::kFetch)) {
      o->on_fetch(cpu, u, now_);
    }

    switch (r.special) {
      case ExecResult::Special::kPause:
        ctr_.add(cpu, Event::kPausesExecuted);
        t.fetch_stall_until =
            std::max(t.fetch_stall_until, now_ + cfg_.pause_fetch_stall);
        return fetched;
      case ExecResult::Special::kHalt:
        t.mode = TMode::kHalting;
        for (PipelineObserver* o : subscribers(Hook::kHaltEnter)) {
          o->on_halt_enter(cpu, now_);
        }
        return fetched;
      case ExecResult::Special::kIpi:
        ctr_.add(cpu, Event::kIpisSent);
        for (PipelineObserver* o : subscribers(Hook::kIpiSend)) {
          o->on_ipi_send(cpu, now_);
        }
        deliver_ipi(other(cpu));
        break;
      default:
        break;
    }
  }
  return fetched;
}

// ---------------------------------------------------------------------------
// One cycle
// ---------------------------------------------------------------------------

bool Core::step_cycle() {
  bool any = false;

  for (int i = 0; i < kNumLogicalCpus; ++i) {
    Thread& t = threads_[i];
    const TMode before = t.mode;
    update_modes(t, static_cast<CpuId>(i));
    if (t.mode != before) any = true;
  }
  if (any) update_limits();

  // Retire: one context per cycle, alternating; a context with nothing
  // retirable donates the slot.
  {
    const int pref = static_cast<int>(now_ % 2);
    for (int k = 0; k < 2; ++k) {
      const int ti = (pref + k) % 2;
      Thread& t = threads_[ti];
      if (t.head == t.next) continue;
      const RobEntry& h = t.rob[t.head & rob_mask_];
      if (!h.issued || h.done_at > now_) continue;
      const int n = retire_thread(t, static_cast<CpuId>(ti));
      if (n > 0) {
        any = true;
        last_retire_cycle_ = now_;
      }
      break;  // retirement bandwidth belongs to one context per cycle
    }
  }

  // Issue: shared ports, round-robin starting with the preferred context.
  caps_ = port_caps_;
  port_issued_ = {};
  uops_issued_ = {};
  for (Thread& t : threads_) {
    t.scan_pos = 0;
    t.first_denied = kNoneDenied;
  }
  {
    int budget = cfg_.issue_width;
    bool progress = true;
    while (progress && budget > 0) {
      progress = false;
      for (int k = 0; k < 2 && budget > 0; ++k) {
        // Round-robin arbitration: after a thread issues, the sibling gets
        // the next chance. (Cycle-parity priority would starve one thread
        // whenever an unpipelined unit's latency is even: the unit would
        // free on same-parity cycles forever.)
        const int ti = (issue_pref_ + k) % 2;
        if (try_issue_one(threads_[ti], static_cast<CpuId>(ti), budget)) {
          progress = true;
          any = true;
          issue_pref_ = 1 - ti;
        }
      }
    }
  }
  // Attribution-only: find which PC (if any) is issue-blocked this cycle.
  // Must run after the issue stage so the result reflects final port state.
  if (scan_issue_blocks_) scan_issue_blocks();

  // Dispatch: the allocator serves one context per cycle (alternating); a
  // context that has nothing queued — or whose next uop cannot allocate
  // (resources full) — donates the slot to its sibling. Both contexts are
  // classified first; the one not served keeps its blockage as this
  // cycle's allocation stall (for stall accounting), the served one
  // re-classifies as it dispatches.
  {
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      Thread& t = threads_[i];
      if (!t.uq.empty()) reclaim_store_buffer(t);
      t.alloc_stall = alloc_block(t, static_cast<CpuId>(i));
    }
    const auto can_dispatch = [this](int i) {
      return !threads_[i].uq.empty() && !threads_[i].alloc_stall.active;
    };
    const int pref = static_cast<int>(now_ % 2);
    const int ti = can_dispatch(pref)        ? pref
                   : can_dispatch(1 - pref)  ? 1 - pref
                                             : -1;
    if (ti >= 0 && dispatch_thread(threads_[ti], static_cast<CpuId>(ti)) > 0) {
      any = true;
    }
  }

  // Fetch: one context per cycle (alternating), donated when blocked.
  {
    const int pref = static_cast<int>(now_ % 2);
    for (Thread& t : threads_) t.uq_full.active = false;
    for (int k = 0; k < 2; ++k) {
      const int ti = (pref + k) % 2;
      Thread& t = threads_[ti];
      if (t.mode != TMode::kRunning) continue;
      if (t.fetch_stall_until > now_) continue;
      if (t.uq.size() >= static_cast<size_t>(uq_limit(static_cast<CpuId>(ti)))) {
        // The slot is donated; the cycle is attributed to
        // kUopQueueFullCycles in record_cycle_counters so the count
        // replays exactly across event-skip windows.
        t.uq_full = {true, BlockReason::kUopQueueFull, t.arch.pc,
                     partitioned(static_cast<CpuId>(ti)) &&
                         t.uq.size() <
                             static_cast<size_t>(cfg_.uop_queue_size)};
        continue;
      }
      const TMode mode_before = t.mode;
      if (fetch_thread(t, static_cast<CpuId>(ti)) > 0 ||
          t.mode != mode_before) {
        any = true;  // a fetched uop, or an exit/halt mode transition
      }
      break;  // fetch bandwidth belongs to one context per cycle
    }
  }

  record_cycle_counters(now_, 1);
  return any;
}

void Core::record_cycle_counters(Cycle first, Cycle n) {
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const Thread& t = threads_[i];
    const CpuId cpu = static_cast<CpuId>(i);
    switch (t.mode) {
      case TMode::kRunning:
      case TMode::kHalting:
      case TMode::kEnterHalt:
      case TMode::kExiting:
        ctr_.add(cpu, Event::kCyclesActive, n);
        break;
      case TMode::kHalted:
      case TMode::kWaking:
        ctr_.add(cpu, Event::kCyclesHalted, n);
        break;
      default:
        break;
    }
    if (t.mode == TMode::kRunning && t.fetch_stall_until > first) {
      // Count only the cycles of [first, first+n) the stall covers. (For a
      // skipped window the stall in fact covers all of it — fetch_stall_until
      // is a next-event candidate — but clamping keeps the math exact by
      // construction rather than by that invariant.)
      ctr_.add(cpu, Event::kFetchStallCycles,
               std::min(t.fetch_stall_until, first + n) - first);
    }
    if (t.mode == TMode::kRunning && t.uq_full.active) {
      ctr_.add(cpu, Event::kUopQueueFullCycles, n);
      notify_block(cpu, t.uq_full, first, n);
    }
    if (t.alloc_stall.active) {
      const BlockReason r = t.alloc_stall.reason;
      ctr_.add(cpu, Event::kResourceStallCycles, n);
      ctr_.add(cpu,
               r == BlockReason::kRob         ? Event::kRobStallCycles
               : r == BlockReason::kLoadQueue ? Event::kLoadQueueStallCycles
                                              : Event::kStoreBufferStallCycles,
               n);
      notify_block(cpu, t.alloc_stall, first, n);
    }
    if (t.issue_block.active) notify_block(cpu, t.issue_block, first, n);
  }
}

void Core::notify_block(CpuId cpu, const Block& b, Cycle first, Cycle n) {
  for (PipelineObserver* o : subscribers(Hook::kBlock)) {
    o->on_block(cpu, b.reason, b.pc, b.sibling, b.port, n, first);
  }
}

void Core::sample_up_to(Cycle t) {
  while (sampler_ != nullptr && sampler_->next_boundary() <= t) {
    sampler_->on_boundary(sampler_->next_boundary());
  }
}

void Core::record_skipped_window(Cycle first, Cycle n) {
  if (sampler_ == nullptr) {
    record_cycle_counters(first, n);
    return;
  }
  // Chunk the bulk accumulation at sampling boundaries. Within a skipped
  // window every per-cycle predicate is constant and record_cycle_counters
  // is linear in n, so the split is exact: each sampling window sees
  // precisely the cycles it covers, bit-identical to single-stepping.
  const Cycle end = first + n;
  Cycle cur = first;
  while (cur < end) {
    sample_up_to(cur);  // a boundary may fall exactly on the chunk start
    Cycle stop = end;
    const Cycle b = sampler_->next_boundary();
    if (b < stop) stop = b;
    record_cycle_counters(cur, stop - cur);
    cur = stop;
  }
  sample_up_to(end);  // ... or on the very end of the skipped range
}

Cycle Core::next_event_cycle() const {
  Cycle cand = std::numeric_limits<Cycle>::max();
  auto consider = [&cand, this](Cycle c) {
    if (c > now_ && c < cand) cand = c;
  };
  for (const Thread& t : threads_) {
    switch (t.mode) {
      case TMode::kEnterHalt:
      case TMode::kWaking:
        consider(t.mode_until);
        break;
      case TMode::kRunning:
        consider(t.fetch_stall_until);
        break;
      default:
        break;
    }
    for (uint64_t seq = t.head; seq != t.next; ++seq) {
      const RobEntry& e = t.rob[seq & rob_mask_];
      if (e.issued && e.done_at > now_) consider(e.done_at);
    }
    for (const Cycle c : t.sb_drain_free_at) consider(c);
  }
  for (const DividerState& d : dividers_) consider(d.busy_until);
  return cand;
}

namespace {

// The abort/report texts shared by run() and try_run(); run()'s SMT_CHECK
// messages are the historical strings death tests match against.
constexpr const char* kDeadlockAsleepMsg =
    "no future event: all contexts asleep (lost wake-up?)";
constexpr const char* kDeadlockWatchdogMsg =
    "watchdog: no retirement progress (deadlocked sync?)";
constexpr const char* kMaxCyclesMsg = "max_cycles exceeded";

// try_run polls the host cancel predicate once per this many run-loop
// iterations — rare enough to stay off the hot path, frequent enough
// (each iteration advances at least one cycle) for a sweep watchdog.
constexpr uint64_t kCancelPollPeriod = 4096;

}  // namespace

RunResult Core::run_until(Cycle max_cycles, bool (Core::*stop)() const) {
  const Cycle deadline = now_ + max_cycles;
  last_retire_cycle_ = now_;
  uint64_t iter = 0;
  while (!(this->*stop)()) {
    if (cancel_ && (++iter % kCancelPollPeriod) == 0 && cancel_()) {
      return {RunTermination::kCancelled, "cancelled by host watchdog"};
    }
    const bool any = step_cycle();
    if (!any && cfg_.event_skip) {
      const Cycle next = next_event_cycle();
      if (next == kNoFutureEvent) {
        return {RunTermination::kDeadlock, kDeadlockAsleepMsg};
      }
      if (next > now_ + 1) {
        record_skipped_window(now_ + 1, next - now_ - 1);
        now_ = next;
        continue;
      }
    }
    ++now_;
    sample_up_to(now_);
    if (now_ - last_retire_cycle_ >= cfg_.watchdog_cycles) {
      return {RunTermination::kDeadlock, kDeadlockWatchdogMsg};
    }
    if (now_ >= deadline) {
      return {RunTermination::kCycleBudgetExceeded, kMaxCyclesMsg};
    }
  }
  return {};
}

RunResult Core::try_run(Cycle max_cycles) {
  return run_until(max_cycles, &Core::all_done);
}

void Core::run(Cycle max_cycles) {
  const RunResult r = try_run(max_cycles);
  SMT_CHECK_MSG(r.ok(), r.message.c_str());
}

bool Core::any_done() const {
  for (const Thread& t : threads_) {
    if (t.prog != nullptr && t.mode == TMode::kDone) return true;
  }
  return false;
}

RunResult Core::try_run_until_any_done(Cycle max_cycles) {
  return run_until(max_cycles, &Core::any_done);
}

CpuId Core::run_until_any_done(Cycle max_cycles) {
  const RunResult r = try_run_until_any_done(max_cycles);
  SMT_CHECK_MSG(r.ok(), r.message.c_str());
  int i = 0;
  while (!done(static_cast<CpuId>(i))) ++i;
  return static_cast<CpuId>(i);
}

}  // namespace smt::cpu
