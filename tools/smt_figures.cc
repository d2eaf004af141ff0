// smt_figures: prints the paper's figures and tables, its ablations and
// the multiprogram extension from registry sweeps; it simulates nothing.
//
//   $ smt_figures --index FILE [--index FILE...]
//                 [--figure 1|2|3|4|5|table1|sync|spr-span|partitioning|
//                           multiprog]... [--csv]
//
// Jobs are looked up by name across the sweep indexes given, their run
// reports beside them. Each figure reads the sweeps of these manifests:
//   1, 2          streams (Figure 2 prints its four panels)
//   3, 4, 5       default
//   table1        default's MM and LU n = 64 jobs and table1, both swept
//                 with --profile: the mix comes from each report's
//                 `profile` section
//   sync          sync
//   spr-span      default and ablation
//   partitioning  default and ablation
//   multiprog     default (MM's and LU's solo runs) and multiprog
// Figures 3-4 print every matrix size the indexes hold a job of (a
// `--manifest full` sweep adds n = 256); Figure 5 prints the full sizes
// instead of the default ones when the indexes hold them. --figure picks
// tables, in the order given (default: all, in the order above); --csv
// adds CSV. A job a table needs that is missing, did not end ok or is
// unverified, or that two indexes share, or a Table 1 job without a
// profile section, is a "<job>: <finding>" stderr line, and nothing
// prints. Exit status: 0 ok; 1 any finding (including an invalid index
// or report); 2 usage error; 3 an unreadable index or report.
#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "core/report_check.h"
#include "host/experiments.h"
#include "host/sweep_index.h"
#include "perfmon/events.h"
#include "profile/mix_profiler.h"

namespace fs = std::filesystem;

namespace {

using smt::JsonValue;
using smt::perfmon::Event;

/// One finished job's run report.
struct Run {
  JsonValue report;

  uint64_t cycles() const {
    return static_cast<uint64_t>(smt::number_or(report, "cycles", 0.0));
  }
  uint64_t cpu(size_t c, Event e) const {
    return static_cast<uint64_t>(smt::number_or(
        *report.find("cpus")->array[c].find("events"), smt::perfmon::name(e),
        0.0));
  }
  uint64_t total(Event e) const {
    uint64_t t = 0;
    for (size_t c = 0; c < report.find("cpus")->array.size(); ++c) {
      t += cpu(c, e);
    }
    return t;
  }
  /// CPU `c`'s cycles per retired instruction while active (0 when it
  /// retired nothing).
  double cpi(size_t c) const {
    const uint64_t instrs = cpu(c, Event::kInstrRetired);
    const uint64_t active = cpu(c, Event::kCyclesActive);
    if (instrs == 0 || active == 0) return 0.0;
    return static_cast<double>(active) / static_cast<double>(instrs);
  }
};
using Runs = std::map<std::string, Run>;

/// Every job of every index, by name, with the index that holds it.
using Catalog =
    std::map<std::string, std::pair<fs::path, smt::host::IndexEntry>>;

/// One table: the jobs it reads and how its rows come from their runs.
struct Table {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::string> jobs;
  std::function<std::vector<std::vector<std::string>>(const Runs&)> rows;
  const char* note;  // the shape-check paragraph printed after it
  /// Its jobs' reports must carry a `profile` section.
  bool profiled = false;
};

// Each table's shape-check paragraph.
constexpr char kFig1Note[] =
    "\nPaper shape check: fadd/fmul min-ILP CPI is flat from 1thr to 2thr\n"
    "(pure TLP win); best throughput at 1thr-maxILP; 2thr-maxILP gains\n"
    "nothing over 1thr-maxILP; iadd is ~flat everywhere.\n";
constexpr char kFig2Note[] =
    "\nPaper shape check: fdiv-fdiv 120-140%; fadd/fsub up to ~100% vs fp\n"
    "streams; min-ILP fadd/fmul/fdiv pairs coexist near 0% (except\n"
    "fdiv-fdiv); iadd-iadd ~100% (serialized); imul/idiv nearly\n"
    "unaffected.\n";
constexpr char kTable1Note[] =
    "\nPaper shape check: MM ~25% logical (ALU0-only) ops and ~39% loads;\n"
    "LU the highest ALU share, and an SPR thread with a comparable total\n"
    "instruction count to the worker; CG load-heavy; BT the lowest ALU\n"
    "share and fp-dense. SPR threads execute no FP_ADD/FP_MUL at all.\n";
constexpr char kSyncNote[] =
    "\nPaper shape check: tight spinning hurts the worker most and incurs\n"
    "machine clears on exit; pause reduces the waiter's uop consumption\n"
    "drastically; halting releases the partitioned resources so the\n"
    "worker runs at (nearly) stand-alone speed, paying the transition\n"
    "cost in its own wait at the end.\n";
constexpr char kMultiprogNote[] =
    "\nReading: each cell is how much slower the row application runs\n"
    "when the column application occupies the sibling hardware context\n"
    "(both serial, disjoint address windows). Identical pairs interfere\n"
    "worst only for LU and CG. LU is the worst neighbour of every row but\n"
    "CG's: MM slows about as much beside LU as beside itself, and BT\n"
    "slows least beside itself. Complementary mixes co-exist better where\n"
    "the row application is dispatch-bound (fp-dense MM beside load-heavy\n"
    "CG) — the application-level analogue of Figure 2 — while the\n"
    "memory-bound CG row is slowed by every neighbour.\n";
constexpr char kFig3Note[] =
    "\nPaper shape check (1024-4096 on real HT hardware): no dual-threaded\n"
    "method beats serial; tlp-pfetch is the fastest dual method, nearly\n"
    "identical to serial, with ~82% fewer worker L2 misses; tlp-coarse,\n"
    "tlp-fine and tlp-pfetch+work are 1.12x / 1.34x / 1.58x slower.\n";
constexpr char kFig4Note[] =
    "\nPaper shape check: tlp-coarse is the fastest, with a slight speedup\n"
    "(0.5-8.9%) but 1-2 orders of magnitude more stall cycles; tlp-pfetch\n"
    "cuts the worker's L2 misses ~98% yet runs 1.61-1.96x slower because\n"
    "the prefetcher retires about as many uops as the worker.\n";
constexpr char kFig5Note[] =
    "\nPaper shape check: CG's serial version beats all dual-threaded ones\n"
    "(coarse 1.03x, pfetch 1.82x, hybrid 1.91x slower; the prefetch loss\n"
    "comes with a large uop increase, not stall cycles). BT is the one\n"
    "TLP success: coarse ~6% faster; pfetch ~1% slower despite a large\n"
    "worker L2-miss reduction.\n";
constexpr char kSprSpanNote[] =
    "\nPaper shape check: shrinking the span raises synchronization\n"
    "frequency and with it the SPR overhead (the mechanism the paper\n"
    "blames for CG's SPR slowdown); growing it reduces sync cost until\n"
    "prefetch run-ahead stops helping.\n";
constexpr char kPartitioningNote[] =
    "\nThe 'partitioning cost' column is how much slower the statically\n"
    "partitioned machine runs the same two-thread kernel than an\n"
    "idealized dynamically-shared one — the structural share of the\n"
    "paper's 'no TLP speedup' result (the rest is port/cache/bus\n"
    "contention, which both machines have).\n";

std::string ratio(uint64_t num, uint64_t den) {
  return smt::fmt(static_cast<double>(num) / den, 3);
}

/// A Figure 3-5 row: its leading cells, its job and its serial baseline.
struct KernelRow {
  std::vector<std::string> lead;
  std::string version, job, serial;
};

/// Figures 3-5: cycles, normalized time, L2 misses, store-buffer stall
/// cycles and uops. As in the paper, the L2 misses of the pure and hybrid
/// prefetch methods (tlp-pfetch*) are the worker's (CPU 0) only; every
/// other column sums both logical processors. load_runs refuses an
/// unverified job, so "verified" reads yes.
Table kernel_table(std::string title, std::vector<std::string> lead,
                   std::vector<KernelRow> rows, const char* note) {
  Table t{std::move(title), std::move(lead), {}, nullptr, note};
  t.header.insert(t.header.end(), {"cycles", "norm.time", "L2 misses",
                                   "SB stall cyc", "uops retired", "verified"});
  for (const KernelRow& r : rows) t.jobs.push_back(r.job);
  t.rows = [rows](const Runs& runs) {
    std::vector<std::vector<std::string>> out;
    for (const KernelRow& r : rows) {
      const Run& run = runs.at(r.job);
      const uint64_t l2 = r.version.starts_with("tlp-pfetch")
                              ? run.cpu(0, Event::kL2ReadMisses)
                              : run.total(Event::kL2ReadMisses);
      out.push_back(r.lead);
      out.back().insert(
          out.back().end(),
          {smt::fmt_count(run.cycles()),
           ratio(run.cycles(), runs.at(r.serial).cycles()), smt::fmt_count(l2),
           smt::fmt_count(run.total(Event::kStoreBufferStallCycles)),
           smt::fmt_count(run.total(Event::kUopsRetired)), "yes"});
    }
    return out;
  };
  return t;
}

/// Figures 3 and 4: every version at each size the catalog holds a job
/// of (n = 64 when it holds none, so the findings name those jobs).
Table sized_figure(const Catalog& cat, const std::string& app,
                   const std::vector<std::string>& versions, const char* title,
                   const char* note) {
  const auto job = [&app](const std::string& v, size_t n) {
    return app + "." + v + ".n" + std::to_string(n);
  };
  std::vector<size_t> sizes;
  for (size_t n : {64, 128, 256}) {
    for (const std::string& v : versions) {
      if (cat.count(job(v, n)) > 0) {
        sizes.push_back(n);
        break;
      }
    }
  }
  if (sizes.empty()) sizes.push_back(64);
  std::vector<KernelRow> rows;
  for (size_t n : sizes) {
    for (const std::string& v : versions) {
      rows.push_back(
          {{v, std::to_string(n)}, v, job(v, n), job(versions[0], n)});
    }
  }
  return kernel_table(title, {"version", "n"}, std::move(rows), note);
}

/// Figure 5 at the full sizes when the catalog holds any of those jobs,
/// else at the default ones.
Table figure5(const Catalog& cat) {
  const auto rows = [](bool full) {
    std::vector<KernelRow> out;
    const auto add = [&out](const char* app, const std::string& prefix,
                            const std::string& suffix,
                            const std::vector<std::string>& versions) {
      for (const std::string& v : versions) {
        out.push_back(
            {{app, v}, v, prefix + v + suffix, prefix + "serial" + suffix});
      }
    };
    add("CG", "cg.", full ? ".n16384.i8" : "",
        {"serial", "tlp-coarse", "tlp-pfetch", "tlp-pfetch+work"});
    add("BT", "bt.", full ? ".l96c32" : "",
        {"serial", "tlp-coarse", "tlp-pfetch"});
    return out;
  };
  bool full = false;
  for (const KernelRow& r : rows(true)) full |= cat.count(r.job) > 0;
  return kernel_table("Figure 5: CG and BT NAS kernels", {"app", "version"},
                      rows(full), kFig5Note);
}

/// Ablation (paper 3.2): CG's SPR precomputation span against serial.
Table spr_span() {
  const std::vector<size_t> spans = {8, 16, 32, 64, 128, 256};
  const auto job = [](size_t span) {
    return "cg.tlp-pfetch.i4.span" + std::to_string(span);
  };
  Table t{"Ablation (paper 3.2): CG precomputation-span sweep",
          {"span (rows)", "~footprint", "norm.time", "worker L2 misses",
           "pauses (sync spin)", "uops total", "verified"},
          {"cg.serial.i4"},
          nullptr,
          kSprSpanNote};
  for (size_t span : spans) t.jobs.push_back(job(span));
  t.rows = [spans, job](const Runs& runs) {
    const Run& serial = runs.at("cg.serial.i4");
    // A CSR row holds 2 * 8 off-diagonal nonzeros and the diagonal, 16
    // bytes (value and column index) each.
    constexpr size_t kRowBytes = (2 * 8 + 1) * 16;
    std::vector<std::vector<std::string>> out = {
        {"serial", "-", "1.000",
         smt::fmt_count(serial.cpu(0, Event::kL2ReadMisses)), "0",
         smt::fmt_count(serial.total(Event::kUopsRetired)), "yes"}};
    for (size_t span : spans) {
      const Run& r = runs.at(job(span));
      out.push_back({std::to_string(span),
                     smt::fmt_eng(span * kRowBytes, 1) + "B",
                     ratio(r.cycles(), serial.cycles()),
                     smt::fmt_count(r.cpu(0, Event::kL2ReadMisses)),
                     smt::fmt_count(r.total(Event::kPausesExecuted)),
                     smt::fmt_count(r.total(Event::kUopsRetired)), "yes"});
    }
    return out;
  };
  return t;
}

/// Ablation: each TLP-coarse kernel on the statically partitioned machine
/// and on its `.dynpart` twin, whose buffering structures are shared
/// dynamically (the MM and LU jobs are Figures 3-4's n = 128 ones).
Table partitioning() {
  using App = std::pair<std::string, std::string>;  // serial, tlp-coarse
  const std::vector<App> apps = {{"mm.serial.n128", "mm.tlp-coarse.n128"},
                                 {"lu.serial.n128", "lu.tlp-coarse.n128"},
                                 {"cg.serial.i4", "cg.tlp-coarse.i4"},
                                 {"bt.serial.l48c24", "bt.tlp-coarse.l48c24"}};
  Table t{"Ablation: static vs dynamic partitioning (TLP-coarse kernels)",
          {"app", "serial cycles", "tlp static (norm)", "tlp dynamic (norm)",
           "partitioning cost"},
          {},
          nullptr,
          kPartitioningNote};
  for (const auto& [serial, coarse] : apps) {
    t.jobs.insert(t.jobs.end(), {serial, coarse, coarse + ".dynpart"});
  }
  t.rows = [apps](const Runs& runs) {
    std::vector<std::vector<std::string>> out;
    for (const auto& [serial, coarse] : apps) {
      const uint64_t s = runs.at(serial).cycles();
      const uint64_t st = runs.at(coarse).cycles();
      const uint64_t dy = runs.at(coarse + ".dynpart").cycles();
      out.push_back({serial.substr(0, 2), smt::fmt_count(s), ratio(st, s),
                     ratio(dy, s),
                     smt::fmt(100.0 * (static_cast<double>(st) / dy - 1.0), 1) +
                         "%"});
    }
    return out;
  };
  return t;
}

using smt::streams::IlpLevel;
using smt::streams::StreamKind;

/// Figure 1: CPU 0's CPI of each stream alone and beside a copy of
/// itself (the two contexts are symmetric), at each ILP level.
Table figure1() {
  Table t{"Figure 1: average CPI per TLP/ILP execution mode",
          {"stream"},
          {},
          nullptr,
          kFig1Note};
  for (int threads : {1, 2}) {
    for (IlpLevel l : smt::host::kIlpLevels) {
      t.header.push_back(std::to_string(threads) + "thr-" +
                         smt::streams::name(l));
    }
  }
  for (StreamKind k : smt::host::kFig1Streams) {
    for (int threads : {1, 2}) {
      for (IlpLevel l : smt::host::kIlpLevels) {
        t.jobs.push_back(smt::host::fig1_job(k, l, threads));
      }
    }
  }
  t.rows = [](const Runs& runs) {
    std::vector<std::vector<std::string>> out;
    for (StreamKind k : smt::host::kFig1Streams) {
      std::vector<std::string> row{smt::streams::name(k)};
      for (int threads : {1, 2}) {
        for (IlpLevel l : smt::host::kIlpLevels) {
          row.push_back(
              smt::fmt(runs.at(smt::host::fig1_job(k, l, threads)).cpi(0), 2));
        }
      }
      out.push_back(std::move(row));
    }
    return out;
  };
  return t;
}

/// One Figure 2 panel: each victim's CPI increase beside each aggressor,
/// against its CPI alone (0% = unaffected, 100% = doubled CPI).
Table figure2_panel(const char* title, std::span<const StreamKind> victims,
                    std::span<const StreamKind> aggressors, const char* note) {
  Table t{title, {"victim \\ with"}, {}, nullptr, note};
  for (StreamKind a : aggressors) t.header.push_back(smt::streams::name(a));
  for (StreamKind v : victims) {
    for (IlpLevel l : smt::host::kIlpLevels) {
      t.jobs.push_back(smt::host::fig2_job(v, std::nullopt, l));
      for (StreamKind a : aggressors) {
        t.jobs.push_back(smt::host::fig2_job(v, a, l));
      }
    }
  }
  t.rows = [victims, aggressors](const Runs& runs) {
    std::vector<std::vector<std::string>> out;
    for (StreamKind v : victims) {
      for (IlpLevel l : smt::host::kIlpLevels) {
        std::vector<std::string> row{std::string(smt::streams::name(v)) +
                                     "." + smt::streams::name(l)};
        const double base =
            runs.at(smt::host::fig2_job(v, std::nullopt, l)).cpi(0);
        for (StreamKind a : aggressors) {
          const double pair = runs.at(smt::host::fig2_job(v, a, l)).cpi(0);
          row.push_back(smt::fmt(100.0 * (pair / base - 1.0), 0) + "%");
        }
        out.push_back(std::move(row));
      }
    }
    return out;
  };
  return t;
}

/// Table 1: each application's instruction mix per Table-1 category for
/// the serial run, one thread of the TLP run (CPU 0) and the SPR run's
/// prefetcher (CPU 1), from the jobs' profile sections. A category no
/// column uses is left out.
Table table1() {
  struct App {
    const char* name;
    std::array<std::string, 3> jobs;  // serial, tlp, spr
  };
  const std::vector<App> apps = {
      {"MM", {"mm.serial.n64", "mm.tlp-coarse.n64", "mm.tlp-pfetch.n64"}},
      {"LU", {"lu.serial.n64", "lu.tlp-coarse.n64", "lu.tlp-pfetch.n64"}},
      {"CG",
       {"cg.serial.n4096.i4", "cg.tlp-coarse.n4096.i4",
        "cg.tlp-pfetch.n4096.i4"}},
      {"BT", {"bt.serial.l32c16", "bt.tlp-coarse.l32c16",
              "bt.tlp-pfetch.l32c16"}}};
  Table t{"Table 1: processor subunit utilization per thread",
          {"app", "EX. UNIT", "serial", "tlp", "spr"},
          {},
          nullptr,
          kTable1Note,
          /*profiled=*/true};
  for (const App& app : apps) {
    t.jobs.insert(t.jobs.end(), app.jobs.begin(), app.jobs.end());
  }
  t.rows = [apps](const Runs& runs) {
    using smt::profile::Subunit;
    constexpr Subunit kRows[] = {Subunit::kAlus,   Subunit::kFpAdd,
                                 Subunit::kFpMul,  Subunit::kFpDiv,
                                 Subunit::kFpMove, Subunit::kLoad,
                                 Subunit::kStore};
    std::vector<std::vector<std::string>> out;
    for (const App& app : apps) {
      std::array<smt::profile::MixCounts, 3> mix;
      for (int c = 0; c < 3; ++c) {
        mix[c] = *smt::profile::mix_from_report(runs.at(app.jobs[c]).report,
                                                c == 2 ? 1 : 0);
      }
      for (Subunit s : kRows) {
        if (mix[0].pct(s) < 0.005 && mix[1].pct(s) < 0.005 &&
            mix[2].pct(s) < 0.005) {
          continue;
        }
        out.push_back({app.name, smt::profile::name(s)});
        for (const smt::profile::MixCounts& m : mix) {
          out.back().push_back(smt::fmt(m.pct(s), 2) + "%");
        }
      }
      out.push_back({app.name, "Total instr."});
      for (const smt::profile::MixCounts& m : mix) {
        out.back().push_back(smt::fmt_eng(static_cast<double>(m.total), 2));
      }
    }
    return out;
  };
  return t;
}

/// Ablation (paper 3.1): the worker's cycles beside each waiting sibling
/// against its cycles alone, and what the waiter consumed.
Table sync_ablation() {
  const std::vector<std::pair<std::string, std::string>> waits = {
      {"no sibling", "sync.none"},
      {"tight spin", "sync.tight"},
      {"pause spin", "sync.pause"},
      {"halt+IPI", "sync.halt"}};
  Table t{"Ablation (paper 3.1): cost of an idle sibling per wait flavour",
          {"sibling wait", "worker cycles", "slowdown vs alone", "waiter uops",
           "machine clears", "waiter halted cyc"},
          {},
          nullptr,
          kSyncNote};
  for (const auto& [label, job] : waits) t.jobs.push_back(job);
  t.rows = [waits](const Runs& runs) {
    const uint64_t alone = runs.at("sync.none").cpu(0, Event::kCyclesActive);
    std::vector<std::vector<std::string>> out;
    for (const auto& [label, job] : waits) {
      const Run& r = runs.at(job);
      const uint64_t worker = r.cpu(0, Event::kCyclesActive);
      out.push_back({label, smt::fmt_count(worker),
                     smt::fmt(static_cast<double>(worker) /
                                  static_cast<double>(alone),
                              3),
                     smt::fmt_count(r.cpu(1, Event::kUopsRetired)),
                     smt::fmt_count(r.total(Event::kMachineClears)),
                     smt::fmt_count(r.cpu(1, Event::kCyclesHalted))});
    }
    return out;
  };
  return t;
}

/// Extension: each serial application's CPI beside each other one, over
/// the fully-overlapped window, against its CPI alone.
Table multiprog() {
  const std::vector<std::string> apps(std::begin(smt::host::kMultiprogApps),
                                      std::end(smt::host::kMultiprogApps));
  Table t{"Extension: multiprogrammed kernel pairs (CPI slowdown of the row "
          "app)",
          {"app \\ beside"},
          {},
          nullptr,
          kMultiprogNote};
  t.header.insert(t.header.end(), apps.begin(), apps.end());
  t.header.push_back("solo CPI");
  for (const std::string& a : apps) {
    t.jobs.push_back(smt::host::multiprog_solo_job(a));
    for (const std::string& b : apps) {
      t.jobs.push_back(smt::host::multiprog_job(a, b));
    }
  }
  t.rows = [apps](const Runs& runs) {
    std::vector<std::vector<std::string>> out;
    for (const std::string& a : apps) {
      const double solo = runs.at(smt::host::multiprog_solo_job(a)).cpi(0);
      std::vector<std::string> row{a};
      for (const std::string& b : apps) {
        const double cpi = runs.at(smt::host::multiprog_job(a, b)).cpi(0);
        row.push_back(smt::fmt(100.0 * (cpi / solo - 1.0), 0) + "%");
      }
      row.push_back(smt::fmt(solo, 2));
      out.push_back(std::move(row));
    }
    return out;
  };
  return t;
}

/// The named figure's tables over `cat`; nullopt for an unknown name.
std::optional<std::vector<Table>> figure(const std::string& name,
                                         const Catalog& cat) {
  if (name == "1") return std::vector<Table>{figure1()};
  if (name == "2") {
    return std::vector<Table>{
        figure2_panel(
            "Figure 2(a): slowdown of fp streams co-executing with fp streams",
            smt::host::kFig2FpSet, smt::host::kFig2FpSet, ""),
        figure2_panel("Figure 2(b): slowdown of int streams co-executing "
                      "with int streams",
                      smt::host::kFig2IntSet, smt::host::kFig2IntSet, ""),
        figure2_panel("Figure 2(c): slowdown of fp arithmetic co-executing "
                      "with int arithmetic",
                      smt::host::kFig2FpArith, smt::host::kFig2IntArith, ""),
        figure2_panel("Figure 2(c'): slowdown of int arithmetic co-executing "
                      "with fp arithmetic",
                      smt::host::kFig2IntArith, smt::host::kFig2FpArith,
                      kFig2Note)};
  }
  if (name == "3") {
    return std::vector<Table>{
        sized_figure(cat, "mm",
                     {"serial", "tlp-fine", "tlp-coarse", "tlp-pfetch",
                      "tlp-pfetch+work"},
                     "Figure 3: Matrix Multiplication kernel", kFig3Note)};
  }
  if (name == "4") {
    return std::vector<Table>{
        sized_figure(cat, "lu", {"serial", "tlp-coarse", "tlp-pfetch"},
                     "Figure 4: LU decomposition kernel", kFig4Note)};
  }
  if (name == "5") return std::vector<Table>{figure5(cat)};
  if (name == "table1") return std::vector<Table>{table1()};
  if (name == "sync") return std::vector<Table>{sync_ablation()};
  if (name == "spr-span") return std::vector<Table>{spr_span()};
  if (name == "partitioning") return std::vector<Table>{partitioning()};
  if (name == "multiprog") return std::vector<Table>{multiprog()};
  return std::nullopt;
}

/// Reads every index into `cat`; the exit code on failure.
std::optional<int> load_catalog(const std::vector<std::string>& indexes,
                                Catalog* cat) {
  int findings = 0;
  for (const std::string& path : indexes) {
    const std::optional<std::string> text = smt::read_text_file(path);
    if (!text.has_value()) {
      smt::log::error("cannot read", {{"path", path}});
      return 3;
    }
    smt::host::SweepIndex index;
    if (const auto finding = smt::host::parse_sweep_index(*text, &index)) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), finding->c_str());
      return 1;
    }
    for (smt::host::IndexEntry& e : index.jobs) {
      const auto [it, fresh] = cat->try_emplace(e.name, path, e);
      if (!fresh) {
        std::fprintf(stderr, "%s: in both %s and %s\n", e.name.c_str(),
                     it->second.first.c_str(), path.c_str());
        ++findings;
      }
    }
  }
  return findings > 0 ? std::optional<int>(1) : std::nullopt;
}

/// Loads the report of every job in `names` into `runs`; the exit code
/// when any is missing, failed, unverified or unreadable.
std::optional<int> load_runs(const Catalog& cat,
                             const std::set<std::string>& names, Runs* runs) {
  int findings = 0;
  bool io_error = false;
  for (const std::string& name : names) {
    const auto it = cat.find(name);
    std::string finding;
    if (it == cat.end()) {
      finding = "not in any index";
    } else if (!it->second.second.ok()) {
      finding = "outcome " + it->second.second.outcome + " in " +
                it->second.first.string();
    } else if (!it->second.second.verified) {
      finding = "not verified in " + it->second.first.string();
    }
    if (!finding.empty()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), finding.c_str());
      ++findings;
      continue;
    }
    bool unreadable = false;
    std::optional<JsonValue> report = smt::read_valid_json(
        (it->second.first.parent_path() / it->second.second.report).string(),
        "malformed run report", smt::core::check_run_report, &unreadable);
    io_error |= unreadable;
    if (report.has_value()) {
      runs->emplace(name, Run{std::move(*report)});
    } else {
      ++findings;
    }
  }
  if (io_error) return 3;
  return findings > 0 ? std::optional<int>(1) : std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --index FILE [--index FILE...]\n"
               "       [--figure 1|2|3|4|5|table1|sync|spr-span|partitioning|"
               "multiprog]...\n"
               "       [--csv]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> indexes;
  std::vector<std::string> names;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--csv") {
      csv = true;
    } else if ((a == "--index" || a == "--figure") && i + 1 < argc) {
      (a == "--index" ? indexes : names).push_back(argv[++i]);
    } else {
      smt::log::error("bad argument", {{"argument", a}});
      return usage(argv[0]);
    }
  }
  if (indexes.empty()) return usage(argv[0]);
  if (names.empty()) {
    names = {"1",    "2",        "3",            "4",        "5", "table1",
             "sync", "spr-span", "partitioning", "multiprog"};
  }

  Catalog cat;
  if (const auto rc = load_catalog(indexes, &cat)) return *rc;
  std::vector<Table> tables;
  for (const std::string& name : names) {
    std::optional<std::vector<Table>> t = figure(name, cat);
    if (!t.has_value()) {
      smt::log::error("unknown figure", {{"figure", name}});
      return usage(argv[0]);
    }
    for (Table& table : *t) tables.push_back(std::move(table));
  }
  // Every table's jobs load before any table prints.
  std::set<std::string> jobs;
  std::set<std::string> profiled;
  for (const Table& t : tables) {
    jobs.insert(t.jobs.begin(), t.jobs.end());
    if (t.profiled) profiled.insert(t.jobs.begin(), t.jobs.end());
  }
  Runs runs;
  if (const auto rc = load_runs(cat, jobs, &runs)) return *rc;
  int findings = 0;
  for (const std::string& name : profiled) {
    for (int cpu = 0; cpu < smt::kNumLogicalCpus; ++cpu) {
      if (!smt::profile::mix_from_report(runs.at(name).report, cpu)) {
        std::fprintf(stderr,
                     "%s: no instruction mix for CPU %d in its report (sweep "
                     "it with --profile)\n",
                     name.c_str(), cpu);
        ++findings;
        break;
      }
    }
  }
  if (findings > 0) return 1;
  for (const Table& t : tables) {
    smt::TextTable text(t.header);
    for (std::vector<std::string>& row : t.rows(runs)) {
      text.add_row(std::move(row));
    }
    std::printf("\n=== %s ===\n%s", t.title.c_str(), text.to_string().c_str());
    if (csv) std::printf("\n[csv]\n%s", text.to_csv().c_str());
    std::fputs(t.note, stdout);
  }
  return 0;
}
