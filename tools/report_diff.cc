// Run-report comparator / regression gate:
//
//   $ report_diff <a.json> <b.json>
//
// Compares two RunReport artifacts (any mix of optional sections):
// cycles, every per-CPU counter, the cycle-accounting breakdown, the
// totals section — when both carry a `profile` section, the per-PC
// hotspot attributions (retired uops, total stall cycles, L2 misses; a PC
// absent on one side counts as zero there) — and, when both carry an
// `interference` section, the per-CPU self/sibling stall attributions
// per resource plus the L2 sibling-eviction counts.
//
// The simulator is deterministic, so the gate is exact: a quantity whose
// values differ at all is a mismatch. Every mismatch is printed; the exit
// code is the gate: 0 = the reports match, 1 = mismatch(es) or a file
// that core::check_run_report rejects (the finding names the file),
// 2 = usage error, 3 = unreadable input. Diff a fresh smt_sweep report
// against a checked-in baseline; the cross-run store of baselines is
// smt_history.
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "common/io.h"
#include "common/json.h"
#include "common/types.h"
#include "core/report_check.h"
#include "perfmon/events.h"

namespace {

using smt::JsonValue;

struct Gate {
  int mismatches = 0;

  // Flags `label` when a and b differ.
  void compare(const std::string& label, double a, double b) {
    if (a == b) return;
    std::printf("MISMATCH %-48s  a=%.17g  b=%.17g\n", label.c_str(), a, b);
    ++mismatches;
  }
};

// Per-(cpu,pc) hotspot triple used for the profile comparison.
struct HotspotRow {
  double uops = 0;
  double stall_cycles = 0;
  double l2_misses = 0;
};

// `report` carries a (validated) profile section.
std::map<std::string, HotspotRow> hotspot_rows(const JsonValue& report) {
  std::map<std::string, HotspotRow> rows;
  const JsonValue& hotspots = *report.find("profile")->find("hotspots");
  for (size_t c = 0; c < hotspots.array.size(); ++c) {
    for (const JsonValue& e : hotspots.array[c].find("pcs")->array) {
      char key[64];
      std::snprintf(key, sizeof key, "cpu%zu.pc%04llu", c,
                    static_cast<unsigned long long>(number_or(e, "pc", 0)));
      HotspotRow& r = rows[key];
      r.uops = number_or(e, "retired_uops", 0.0);
      r.l2_misses = number_or(e, "l2_misses", 0.0);
      const JsonValue* stalls = e.find("stalls");
      if (stalls != nullptr && stalls->is_object()) {
        for (const auto& [name, v] : stalls->object) {
          if (v.is_number()) r.stall_cycles += v.number;
        }
      }
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fprintf(stderr, "usage: %s <a.json> <b.json>\n", argv[0]);
    return 2;
  }
  const char* pa = argv[1];
  const char* pb = argv[2];
  Gate gate;
  // Both inputs are validated first, so everything below may rely on the
  // shape check_run_report vouches for.
  bool a_unreadable = false, b_unreadable = false;
  const auto a = smt::read_valid_json(pa, "not a valid run report",
                                      smt::core::check_run_report,
                                      &a_unreadable);
  const auto b = smt::read_valid_json(pb, "not a valid run report",
                                      smt::core::check_run_report,
                                      &b_unreadable);
  if (!a.has_value() || !b.has_value()) {
    return a_unreadable || b_unreadable ? 3 : 1;
  }

  gate.compare("cycles", number_or(*a, "cycles", 0.0),
               number_or(*b, "cycles", 0.0));

  // Per-CPU counters and cycle-accounting breakdown: both reports carry
  // one cpus entry per logical CPU, each with every event counter.
  const JsonValue& acpus = *a->find("cpus");
  const JsonValue& bcpus = *b->find("cpus");
  for (size_t i = 0; i < acpus.array.size(); ++i) {
    const JsonValue& ae = *acpus.array[i].find("events");
    const JsonValue& be = *bcpus.array[i].find("events");
    for (int e = 0; e < smt::perfmon::kNumEventValues; ++e) {
      const char* name =
          smt::perfmon::name(static_cast<smt::perfmon::Event>(e));
      char label[80];
      std::snprintf(label, sizeof label, "cpu%zu.events.%s", i, name);
      gate.compare(label, number_or(ae, name, 0.0), number_or(be, name, 0.0));
    }
    const JsonValue& bb = *bcpus.array[i].find("breakdown");
    for (const auto& [key, av] : acpus.array[i].find("breakdown")->object) {
      if (!av.is_number()) continue;
      char label[80];
      std::snprintf(label, sizeof label, "cpu%zu.breakdown.%s", i,
                    key.c_str());
      gate.compare(label, av.number, number_or(bb, key, 0.0));
    }
  }

  const JsonValue& bt = *b->find("totals");
  for (const auto& [key, av] : a->find("totals")->object) {
    if (av.is_number()) {
      gate.compare("totals." + key, av.number, number_or(bt, key, 0.0));
    }
  }

  // Hotspot attributions, when both sides carry a profile.
  const bool a_prof = a->find("profile") != nullptr;
  const bool b_prof = b->find("profile") != nullptr;
  if (a_prof && b_prof) {
    const auto ra = hotspot_rows(*a);
    auto rb = hotspot_rows(*b);
    for (const auto& [key, row] : ra) {
      const HotspotRow other = rb.count(key) > 0 ? rb[key] : HotspotRow{};
      rb.erase(key);
      gate.compare(key + ".retired_uops", row.uops, other.uops);
      gate.compare(key + ".stall_cycles", row.stall_cycles,
                   other.stall_cycles);
      gate.compare(key + ".l2_misses", row.l2_misses, other.l2_misses);
    }
    for (const auto& [key, row] : rb) {  // PCs present only in b
      gate.compare(key + ".retired_uops", 0.0, row.uops);
      gate.compare(key + ".stall_cycles", 0.0, row.stall_cycles);
      gate.compare(key + ".l2_misses", 0.0, row.l2_misses);
    }
  } else if (a_prof != b_prof) {
    std::printf("note: only one report carries a profile; hotspots not "
                "compared\n");
  }

  // Interference attributions, when both sides carry them. Every
  // numeric leaf is compared: self/sibling cycles per reason, the
  // port-conflict decomposition and the L2 sibling-eviction count.
  const JsonValue* ai = a->find("interference");
  const JsonValue* bi = b->find("interference");
  if (ai != nullptr && bi != nullptr) {
    for (size_t i = 0; i < ai->array.size(); ++i) {
      const JsonValue& ac = ai->array[i];
      const JsonValue& bc = bi->array[i];
      for (const char* side : {"self", "sibling"}) {
        const JsonValue* bm = bc.find(side);
        for (const auto& [reason, av] : ac.find(side)->object) {
          if (!av.is_number()) continue;
          char label[96];
          std::snprintf(label, sizeof label, "cpu%zu.interference.%s.%s", i,
                        side, reason.c_str());
          gate.compare(label, av.number, number_or(bm, reason, 0.0));
        }
      }
      const JsonValue* bpc = bc.find("port_conflict");
      for (const auto& [side, am] : ac.find("port_conflict")->object) {
        const JsonValue* bm = bpc->find(side);
        for (const auto& [port, av] : am.object) {
          if (!av.is_number()) continue;
          char label[96];
          std::snprintf(label, sizeof label,
                        "cpu%zu.interference.port_conflict.%s.%s", i,
                        side.c_str(), port.c_str());
          gate.compare(label, av.number, number_or(bm, port, 0.0));
        }
      }
      char label[96];
      std::snprintf(label, sizeof label,
                    "cpu%zu.interference.l2_sibling_evictions", i);
      gate.compare(label, number_or(ac, "l2_sibling_evictions", 0.0),
                   number_or(bc, "l2_sibling_evictions", 0.0));
    }
  } else if ((ai != nullptr) != (bi != nullptr)) {
    std::printf("note: only one report carries interference; not "
                "compared\n");
  }

  if (gate.mismatches == 0) {
    std::printf("OK: reports match exactly\n");
    return 0;
  }
  std::printf("%d mismatch(es)\n", gate.mismatches);
  return 1;
}
