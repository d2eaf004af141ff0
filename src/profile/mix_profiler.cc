#include "profile/mix_profiler.h"

#include <cstdio>

#include "common/check.h"

namespace smt::profile {

namespace {
constexpr const char* kSubunitNames[] = {
    "ALUs",   "INT_MUL", "INT_DIV", "FP_ADD", "FP_MUL",
    "FP_DIV", "FP_MOVE", "LOAD",    "STORE",  "OTHER",
};
}

const char* name(Subunit s) {
  return kSubunitNames[static_cast<int>(s)];
}

Subunit subunit_of(isa::UnitClass u) {
  using isa::UnitClass;
  switch (u) {
    case UnitClass::kAlu:
    case UnitClass::kAlu0:
    case UnitClass::kBranch:
      return Subunit::kAlus;
    case UnitClass::kIntMul: return Subunit::kIntMul;
    case UnitClass::kIntDiv: return Subunit::kIntDiv;
    case UnitClass::kFpAdd: return Subunit::kFpAdd;
    case UnitClass::kFpMul: return Subunit::kFpMul;
    case UnitClass::kFpDiv: return Subunit::kFpDiv;
    case UnitClass::kFpMove: return Subunit::kFpMove;
    case UnitClass::kLoad: return Subunit::kLoad;
    case UnitClass::kStore: return Subunit::kStore;
    case UnitClass::kNone: return Subunit::kOther;
  }
  return Subunit::kOther;
}

double MixCounts::pct(Subunit s) const {
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(counts[static_cast<int>(s)]) /
         static_cast<double>(total);
}

std::optional<MixCounts> mix_from_report(const JsonValue& report, int cpu) {
  const JsonValue* prof = report.find("profile");
  const JsonValue* hotspots =
      prof != nullptr ? prof->find("hotspots") : nullptr;
  if (hotspots == nullptr || !hotspots->is_array() ||
      static_cast<size_t>(cpu) >= hotspots->array.size()) {
    return std::nullopt;
  }
  const JsonValue* pcs = hotspots->array[cpu].find("pcs");
  if (pcs == nullptr || !pcs->is_array()) return std::nullopt;
  MixCounts mix;
  for (const JsonValue& pc : pcs->array) {
    const JsonValue* disasm = pc.find("disasm");
    if (disasm == nullptr || !disasm->is_string()) return std::nullopt;
    const std::string op = disasm->string.substr(0, disasm->string.find(' '));
    int code = 0;
    while (code < isa::kNumOpcodeValues &&
           op != isa::name(static_cast<isa::Opcode>(code))) {
      ++code;
    }
    if (code == isa::kNumOpcodeValues) return std::nullopt;
    const auto retired =
        static_cast<uint64_t>(number_or(pc, "retired_instrs", 0.0));
    const Subunit s = subunit_of(isa::unit_class(static_cast<isa::Opcode>(code)));
    mix.counts[static_cast<int>(s)] += retired;
    mix.total += retired;
  }
  return mix;
}

void MixProfiler::on_retire(CpuId cpu, const cpu::DynUop& uop, int /*uops*/,
                            Cycle /*now*/) {
  MixCounts& m = mix_[idx(cpu)];
  ++m.counts[static_cast<int>(subunit_of(uop.unit))];
  ++m.total;
}

void MixProfiler::reset() { mix_ = {}; }

std::string MixProfiler::column(CpuId cpu) const {
  std::string out;
  char buf[64];
  for (int s = 0; s < static_cast<int>(Subunit::kNumSubunits); ++s) {
    const auto su = static_cast<Subunit>(s);
    if (count(cpu, su) == 0) continue;
    std::snprintf(buf, sizeof buf, "%-8s %6.2f%%\n", name(su), pct(cpu, su));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "Total instr: %llu\n",
                static_cast<unsigned long long>(total(cpu)));
  out += buf;
  return out;
}

}  // namespace smt::profile
