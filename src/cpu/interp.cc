#include "cpu/arch_state.h"

#include <bit>

#include "common/check.h"
#include "cpu/config.h"

namespace smt::cpu {

using isa::BrCond;
using isa::Instr;
using isa::kNoReg;
using isa::Opcode;

namespace {

Addr effective_addr(const isa::MemRef& m, const ArchState& st) {
  int64_t a = m.disp;
  if (m.base != kNoReg) a += st.iregs[m.base];
  if (m.index != kNoReg) a += st.iregs[m.index] << m.scale_log2;
  return static_cast<Addr>(a);
}

bool eval_cond(BrCond c, int64_t a, int64_t b) {
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

}  // namespace

ExecResult exec_instr(const Instr& in, ArchState& st, mem::SimMemory& memory) {
  ExecResult r;
  r.next_pc = st.pc + 1;

  auto ival = [&](isa::RegId reg) { return st.iregs[reg]; };
  auto src2 = [&]() { return in.use_imm ? in.imm : ival(in.rs2); };
  auto set_i = [&](int64_t v) { st.iregs[in.rd] = v; };
  auto fval = [&](isa::RegId reg) {
    SMT_DCHECK(isa::is_fp_reg(reg));
    return st.fregs[reg - isa::kNumIRegs];
  };
  auto set_f = [&](double v) {
    SMT_DCHECK(isa::is_fp_reg(in.rd));
    st.fregs[in.rd - isa::kNumIRegs] = v;
  };

  switch (in.op) {
    case Opcode::kIAdd: set_i(ival(in.rs1) + src2()); break;
    case Opcode::kISub: set_i(ival(in.rs1) - src2()); break;
    case Opcode::kIMov: set_i(ival(in.rs1)); break;
    case Opcode::kIMovImm: set_i(in.imm); break;
    case Opcode::kIAnd: set_i(ival(in.rs1) & src2()); break;
    case Opcode::kIOr: set_i(ival(in.rs1) | src2()); break;
    case Opcode::kIXor: set_i(ival(in.rs1) ^ src2()); break;
    case Opcode::kIShl:
      set_i(ival(in.rs1) << (src2() & 63));
      break;
    case Opcode::kIShr:
      set_i(static_cast<int64_t>(
          static_cast<uint64_t>(ival(in.rs1)) >> (src2() & 63)));
      break;
    case Opcode::kIMul: set_i(ival(in.rs1) * src2()); break;
    case Opcode::kIDiv: {
      const int64_t d = src2();
      set_i(d == 0 ? 0 : ival(in.rs1) / d);  // defined result on /0
      break;
    }
    case Opcode::kFAdd: set_f(fval(in.rs1) + fval(in.rs2)); break;
    case Opcode::kFSub: set_f(fval(in.rs1) - fval(in.rs2)); break;
    case Opcode::kFMul: set_f(fval(in.rs1) * fval(in.rs2)); break;
    case Opcode::kFDiv: set_f(fval(in.rs1) / fval(in.rs2)); break;
    case Opcode::kFMov: set_f(fval(in.rs1)); break;
    case Opcode::kFMovImm: set_f(in.fimm); break;
    case Opcode::kFNeg: set_f(-fval(in.rs1)); break;

    case Opcode::kLoad: {
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      const uint64_t v = memory.read_u64(r.addr);
      r.loaded = v;
      set_i(static_cast<int64_t>(v));
      break;
    }
    case Opcode::kStore: {
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      memory.write_u64(r.addr, static_cast<uint64_t>(ival(in.rs1)));
      break;
    }
    case Opcode::kFLoad: {
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      const uint64_t v = memory.read_u64(r.addr);
      r.loaded = v;
      st.fregs[in.rd - isa::kNumIRegs] = std::bit_cast<double>(v);
      break;
    }
    case Opcode::kFStore: {
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      memory.write_f64(r.addr, fval(in.rs1));
      break;
    }
    case Opcode::kPrefetch:
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      break;
    case Opcode::kXchg: {
      r.has_mem = true;
      r.addr = effective_addr(in.mem, st);
      const uint64_t old =
          memory.exchange_u64(r.addr, static_cast<uint64_t>(ival(in.rs1)));
      r.loaded = old;
      set_i(static_cast<int64_t>(old));
      break;
    }

    case Opcode::kBr: {
      const int64_t a = ival(in.rs1);
      const int64_t b = in.use_imm ? in.imm : ival(in.rs2);
      if (eval_cond(in.cond, a, b)) {
        r.taken = true;
        r.next_pc = static_cast<uint32_t>(in.target);
      }
      break;
    }
    case Opcode::kJmp:
      r.taken = true;
      r.next_pc = static_cast<uint32_t>(in.target);
      break;

    case Opcode::kPause: r.special = ExecResult::Special::kPause; break;
    case Opcode::kHalt: r.special = ExecResult::Special::kHalt; break;
    case Opcode::kIpi: r.special = ExecResult::Special::kIpi; break;
    case Opcode::kExit: r.special = ExecResult::Special::kExit; break;
    case Opcode::kNop: break;
    case Opcode::kNumOpcodes: SMT_CHECK_MSG(false, "invalid opcode"); break;
  }
  return r;
}

Cycle CoreConfig::latency(isa::Opcode op) const {
  switch (op) {
    case Opcode::kIAdd:
    case Opcode::kISub:
    case Opcode::kIMov:
    case Opcode::kIMovImm:
    case Opcode::kIAnd:
    case Opcode::kIOr:
    case Opcode::kIXor:
      return lat_simple_alu;
    case Opcode::kIShl:
    case Opcode::kIShr:
      return lat_shift;
    case Opcode::kIMul: return lat_imul;
    case Opcode::kIDiv: return lat_idiv;
    case Opcode::kFAdd:
    case Opcode::kFSub:
      return lat_fadd;
    case Opcode::kFMul: return lat_fmul;
    case Opcode::kFDiv: return lat_fdiv;
    case Opcode::kFMov:
    case Opcode::kFMovImm:
    case Opcode::kFNeg:
      return lat_fmov;
    case Opcode::kBr:
    case Opcode::kJmp:
      return lat_branch;
    default:
      return 1;  // memory latencies come from the hierarchy; rest trivial
  }
}

}  // namespace smt::cpu
