// Annotated-disassembly viewer for profiled run reports:
//
//   $ smt_annotate <report.json> [--cpu N] [--top K] [--predict]
//
// Joins the `profile` section of a run report (per-PC retired uops,
// issue-port occupancy, stall cycles by blocking reason, L1/L2 misses —
// see src/profile/pc_profiler.h) with the disassembly the report carries,
// printing for each logical CPU:
//
//   * a Table-1-style port-utilization table: uops issued down each port
//     and the port's utilization against its per-cycle cap — the lens that
//     makes ALU0 serialization (mask-heavy blocked-layout MM) and the
//     single shared FP port visible at a glance;
//   * an annotated listing in program order: estimated cycle share (port
//     occupancy weighted by the per-cycle caps), per-port uop counts,
//     stalls by reason, and miss counts per instruction.
//
// `--top K` restricts the listing to the K busiest PCs (by cycle share),
// still in program order. `--predict` looks the report's workload up in
// the host experiment registry, re-emits its programs, and prints the
// static CPI lower bound (analysis/static_perf.h) next to each CPU's
// measured occupancy — the advisor's prediction against what the
// cycle-accurate core actually did. Exit status: 0 ok; 1 if the file is
// not a valid run report (core::check_run_report) or carries no profile
// section; 2 usage error; 3 unreadable input.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_perf.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "common/types.h"
#include "core/machine.h"
#include "core/report_check.h"
#include "core/workload.h"
#include "cpu/config.h"
#include "cpu/core.h"
#include "host/experiments.h"

namespace {

using smt::JsonValue;

const char* port_name(int p) {
  return smt::cpu::name(static_cast<smt::cpu::IssuePort>(p));
}
const char* reason_name(int r) {
  return smt::cpu::name(static_cast<smt::cpu::BlockReason>(r));
}

struct PcRow {
  uint64_t pc = 0;
  std::string disasm;
  double retired_uops = 0;
  double l1 = 0, l2 = 0;
  double ports[smt::cpu::kNumIssuePorts] = {};
  double stalls[smt::cpu::kNumBlockReasons] = {};
  double port_cycles = 0;  // sum over ports of uops / cap
};

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::optional<int> only_cpu;
  size_t top = 0;  // 0 = all
  bool predict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cpu") == 0 && i + 1 < argc) {
      only_cpu = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--predict") == 0) {
      predict = true;
    } else if (path == nullptr && argv[i][0] != '-') {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(
        stderr, "usage: %s <report.json> [--cpu N] [--top K] [--predict]\n",
        argv[0]);
    return 2;
  }

  bool unreadable = false;
  const auto v = smt::read_valid_json(path, "not a valid run report",
                                      smt::core::check_run_report,
                                      &unreadable);
  if (!v.has_value()) return unreadable ? 3 : 1;
  // check_run_report vouches for the workload name and for the section's
  // shape: per-CPU hotspots (each with a pcs array) and occupancy
  // arrays, and positive caps.
  const JsonValue* prof = v->find("profile");
  if (prof == nullptr) {
    smt::log::error(
        "no profile section (run smt_sweep --profile)",
        {{"path", path}});
    return 1;
  }
  const JsonValue* hotspots = prof->find("hotspots");
  const JsonValue* occupancy = prof->find("port_occupancy");
  const JsonValue* caps = prof->find("port_caps_per_cycle");
  const double cycles = number_or(*v, "cycles", 0.0);
  const std::string& workload = v->find("workload")->string;
  std::printf("annotated profile: %s  (%.0f cycles)\n", workload.c_str(),
              cycles);

  // --predict: rebuild the report's workload and compute the static CPI
  // lower bound for each logical CPU's program.
  std::vector<smt::analysis::StaticPerf> predictions;
  if (predict) {
    const smt::host::ExperimentDef* def =
        smt::host::find_experiment(workload);
    if (def == nullptr) {
      smt::log::warn("--predict: workload not in the experiment registry",
                     {{"workload", workload}});
    } else {
      const std::unique_ptr<smt::core::Workload> wl = def->make();
      smt::core::Machine m;
      wl->setup(m);
      const smt::cpu::CoreConfig cfg;
      for (const smt::isa::Program& p : wl->programs()) {
        predictions.push_back(smt::analysis::static_cpi_bound(p, cfg));
      }
    }
  }

  double cap[smt::cpu::kNumIssuePorts];
  for (int p = 0; p < smt::cpu::kNumIssuePorts; ++p) {
    cap[p] = number_or(caps, port_name(p), 0.0);
  }

  for (size_t c = 0; c < hotspots->array.size(); ++c) {
    if (only_cpu.has_value() && static_cast<size_t>(*only_cpu) != c) continue;
    const JsonValue* pcs = hotspots->array[c].find("pcs");

    // Port-utilization table (Table-1 style, per logical CPU).
    const JsonValue* occ = occupancy->array[c].find("ports");
    smt::TextTable ports({"port", "uops", "uops/cycle", "util%"});
    for (int p = 0; p < smt::cpu::kNumIssuePorts; ++p) {
      const double uops = number_or(occ, port_name(p), 0.0);
      ports.add_row({port_name(p), smt::fmt_count(static_cast<uint64_t>(uops)),
                     smt::fmt(cycles > 0 ? uops / cycles : 0.0, 3),
                     smt::fmt(cycles > 0 ? 100.0 * uops / (cap[p] * cycles)
                                         : 0.0,
                              1)});
    }
    std::printf("\n=== cpu%zu port occupancy ===\n%s", c,
                ports.to_string().c_str());

    if (c < predictions.size()) {
      const smt::analysis::StaticPerf& sp = predictions[c];
      std::printf("static advisor: cpi >= %.3f  (bound by %s, %s)\n",
                  sp.cpi_lb, sp.binding.c_str(),
                  sp.exact ? "exact loop structure" : "path-density fallback");
      if (sp.exact) {
        std::printf("  predicted: %llu instrs, %llu uops, >= %.0f cycles;"
                    " port uops:",
                    static_cast<unsigned long long>(sp.instrs),
                    static_cast<unsigned long long>(sp.uops), sp.cycles_lb);
        for (int p = 0; p < smt::cpu::kNumIssuePorts; ++p) {
          std::printf(" %s=%.0f", port_name(p), sp.port_uops[p]);
        }
        std::printf("\n");
      }
    }

    std::vector<PcRow> rows;
    double total_port_cycles = 0;
    for (const JsonValue& entry : pcs->array) {
      PcRow r;
      r.pc = static_cast<uint64_t>(number_or(entry, "pc", 0.0));
      const JsonValue* d = entry.find("disasm");
      if (d != nullptr) r.disasm = d->string;
      r.retired_uops = number_or(entry, "retired_uops", 0.0);
      r.l1 = number_or(entry, "l1_misses", 0.0);
      r.l2 = number_or(entry, "l2_misses", 0.0);
      for (int p = 0; p < smt::cpu::kNumIssuePorts; ++p) {
        r.ports[p] = number_or(entry.find("ports"), port_name(p), 0.0);
        // A double-speed port delivers cap[p] uops per cycle, so uops/cap
        // estimates the cycles this PC had the port busy.
        r.port_cycles += r.ports[p] / cap[p];
      }
      for (int s = 0; s < smt::cpu::kNumBlockReasons; ++s) {
        r.stalls[s] = number_or(entry.find("stalls"), reason_name(s), 0.0);
      }
      total_port_cycles += r.port_cycles;
      rows.push_back(std::move(r));
    }

    if (top > 0 && rows.size() > top) {
      // Keep the K busiest PCs, then restore program order.
      std::sort(rows.begin(), rows.end(), [](const PcRow& a, const PcRow& b) {
        return a.port_cycles > b.port_cycles;
      });
      rows.resize(top);
      std::sort(rows.begin(), rows.end(), [](const PcRow& a, const PcRow& b) {
        return a.pc < b.pc;
      });
    }

    smt::TextTable t({"pc  disasm", "cycles%", "uops", "alu0", "alu1",
                      "fp", "fp_move", "load", "store", "stalls", "L1miss",
                      "L2miss"});
    for (const PcRow& r : rows) {
      std::string stalls;
      for (int s = 0; s < smt::cpu::kNumBlockReasons; ++s) {
        if (r.stalls[s] <= 0) continue;
        if (!stalls.empty()) stalls += " ";
        stalls += std::string(reason_name(s)) + ":" +
                  smt::fmt_count(static_cast<uint64_t>(r.stalls[s]));
      }
      char pc_buf[16];
      std::snprintf(pc_buf, sizeof pc_buf, "%04llu",
                    static_cast<unsigned long long>(r.pc));
      t.add_row({std::string(pc_buf) + "  " + r.disasm,
                 smt::fmt(total_port_cycles > 0
                              ? 100.0 * r.port_cycles / total_port_cycles
                              : 0.0,
                          1),
                 smt::fmt_count(static_cast<uint64_t>(r.retired_uops)),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[0])),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[1])),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[2])),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[3])),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[4])),
                 smt::fmt_count(static_cast<uint64_t>(r.ports[5])),
                 stalls.empty() ? "-" : stalls,
                 smt::fmt_count(static_cast<uint64_t>(r.l1)),
                 smt::fmt_count(static_cast<uint64_t>(r.l2))});
    }
    std::printf("\n=== cpu%zu hotspots%s ===\n%s", c,
                top > 0 ? " (top)" : "", t.to_string().c_str());
  }
  return 0;
}
