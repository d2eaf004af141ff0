// smt_figures: prints the paper's kernel figures (3-5) and the two kernel
// ablations from registry sweeps; it simulates nothing.
//
//   $ smt_figures --index FILE [--index FILE...]
//                 [--figure 3|4|5|spr-span|partitioning]... [--csv]
//
// Jobs are looked up by name across the sweep indexes given, their run
// reports beside them. Figures 3-5 need a default-manifest sweep, the
// ablations also a `--manifest ablation` one. Figures 3-4 print every
// matrix size the indexes hold a job of (a `--manifest full` sweep adds
// n = 256); Figure 5 prints the full sizes instead of the default ones
// when the indexes hold them. --figure picks tables, in the order given
// (default: all five); --csv adds CSV. A job a table needs that is
// missing, did not end ok or is unverified, or that two indexes share,
// is a "<job>: <finding>" stderr line, and nothing prints. Exit status:
// 0 ok; 1 any finding (including an invalid index or report); 2 usage
// error; 3 an unreadable index or report.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/table.h"
#include "core/report_check.h"
#include "host/sweep_index.h"
#include "perfmon/events.h"

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
};

// Each table's shape-check paragraph.
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

/// The named table over `cat`; nullopt for an unknown name.
std::optional<Table> figure(const std::string& name, const Catalog& cat) {
  if (name == "3") {
    return sized_figure(cat, "mm",
                        {"serial", "tlp-fine", "tlp-coarse", "tlp-pfetch",
                         "tlp-pfetch+work"},
                        "Figure 3: Matrix Multiplication kernel", kFig3Note);
  }
  if (name == "4") {
    return sized_figure(cat, "lu", {"serial", "tlp-coarse", "tlp-pfetch"},
                        "Figure 4: LU decomposition kernel", kFig4Note);
  }
  if (name == "5") return figure5(cat);
  if (name == "spr-span") return spr_span();
  if (name == "partitioning") return partitioning();
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
               "usage: %s --index FILE [--index FILE...] "
               "[--figure 3|4|5|spr-span|partitioning]... [--csv]\n",
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
  if (names.empty()) names = {"3", "4", "5", "spr-span", "partitioning"};

  Catalog cat;
  if (const auto rc = load_catalog(indexes, &cat)) return *rc;
  std::vector<Table> tables;
  for (const std::string& name : names) {
    std::optional<Table> t = figure(name, cat);
    if (!t.has_value()) {
      smt::log::error("unknown figure", {{"figure", name}});
      return usage(argv[0]);
    }
    tables.push_back(std::move(*t));
  }
  // Every table's jobs load before any table prints.
  std::set<std::string> jobs;
  for (const Table& t : tables) jobs.insert(t.jobs.begin(), t.jobs.end());
  Runs runs;
  if (const auto rc = load_runs(cat, jobs, &runs)) return *rc;
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
