// smt_explain: post-mortem diagnoser for failed simulator runs.
//
//   $ smt_explain <dump.json> [report.json]
//
// Renders an `smt-core-dump/1` document (written by the flight recorder —
// see RunOptions::flight_recorder and smt_sweep's <out>/dumps/) into a
// human diagnosis: what each logical CPU was doing at the moment of
// death, the values of every declared sync word, the wait-for graph
// between the two contexts, and a one-paragraph verdict (e.g. "both
// contexts are waiting on each other — a lost wake-up cycle").
//
// When a companion RunReport with an `interference` section (from
// smt_sweep --interference) is also given, the diagnosis is extended with
// the top sibling-blamed stall resources per CPU and what machine
// parameter each one implicates.
//
// Both inputs are validated before anything is printed: the dump through
// core::check_core_dump (src/core/flight_recorder.h), the report through
// core::check_run_report (src/core/report_check.h); the rendering below
// relies on the shape they vouch for.
//
// Exit status: 0 when a diagnosis was printed; 1 when an input is not a
// valid dump/report (the finding is logged); 2 on usage errors; 3 when a
// file cannot be read.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "core/flight_recorder.h"
#include "core/report_check.h"

namespace {

using smt::JsonValue;

constexpr int kExitBadInput = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

/// What a sibling-blamed stall resource implicates: the machine parameter
/// (or structural hazard) a user would tune to relieve it.
const char* implication(const std::string& reason) {
  if (reason == "rob") return "shared ROB capacity (MachineConfig rob_size)";
  if (reason == "load_queue") {
    return "shared load-queue capacity (load_queue_size)";
  }
  if (reason == "store_buffer") {
    return "shared store-buffer capacity (store_buffer_size)";
  }
  if (reason == "uop_queue_full") {
    return "shared uop-queue capacity (uop_queue_size)";
  }
  if (reason == "port_conflict") {
    return "issue ports / issue bandwidth held by the sibling";
  }
  if (reason == "divider_busy") {
    return "the non-pipelined divider, busy on a sibling divide";
  }
  return "an unrecognized resource";
}

/// One logical CPU's state at the moment of death, printed as two lines.
void print_cpu(const JsonValue& c) {
  const int id = static_cast<int>(number_or(c, "cpu", -1));
  std::printf("cpu%d: mode=%s pc=%" PRIu64 " `%s`\n", id,
              string_or(c, "mode", "?").c_str(),
              static_cast<uint64_t>(number_or(c, "pc", 0)),
              string_or(c, "disasm", "?").c_str());
  std::printf("      rob=%d uop_queue=%d load_queue=%d store_buffer=%d "
              "ipi_pending=%s\n",
              static_cast<int>(number_or(c, "rob", 0)),
              static_cast<int>(number_or(c, "uop_queue", 0)),
              static_cast<int>(number_or(c, "load_queue", 0)),
              static_cast<int>(number_or(c, "store_buffer", 0)),
              [&c] {
                const JsonValue* v = c.find("ipi_pending");
                return v != nullptr && v->type == JsonValue::Type::kBool &&
                               v->boolean
                           ? "yes"
                           : "no";
              }());
  const JsonValue* recent = c.find("recent_retired");
  if (!recent->array.empty()) {
    const JsonValue& last = recent->array.back();
    std::printf("      last retired: cycle %" PRIu64 " pc=%" PRIu64 " `%s` "
                "(%zu in ring)\n",
                static_cast<uint64_t>(number_or(last, "cycle", 0)),
                static_cast<uint64_t>(number_or(last, "pc", 0)),
                string_or(last, "disasm", "?").c_str(),
                recent->array.size());
  } else {
    std::printf("      last retired: <nothing retired>\n");
  }
}

/// Top sibling-blamed stall reasons for one CPU's interference entry,
/// descending; empty when nothing is sibling-blamed.
std::vector<std::pair<std::string, double>> sibling_blame(
    const JsonValue& entry) {
  std::vector<std::pair<std::string, double>> top;
  for (const auto& [reason, v] : entry.find("sibling")->object) {
    if (v.is_number() && v.number > 0) top.emplace_back(reason, v.number);
  }
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return top;
}

}  // namespace

int main(int argc, char** argv) {
  const char* dump_path = nullptr;
  const char* report_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "usage: %s <dump.json> [report.json]\n", argv[0]);
      return kExitUsage;
    }
    (dump_path == nullptr ? dump_path : report_path) = argv[i];
  }
  if (dump_path == nullptr) {
    std::fprintf(stderr, "usage: %s <dump.json> [report.json]\n", argv[0]);
    return kExitUsage;
  }

  bool unreadable = false;
  const auto dump = smt::read_valid_json(dump_path, "not a valid core dump",
                                         smt::core::check_core_dump,
                                         &unreadable);
  if (!dump.has_value()) return unreadable ? kExitIo : kExitBadInput;
  std::optional<JsonValue> report;
  if (report_path != nullptr) {
    report = smt::read_valid_json(report_path, "not a valid run report",
                                  smt::core::check_run_report, &unreadable);
    if (!report.has_value()) return unreadable ? kExitIo : kExitBadInput;
  }

  const std::string outcome = string_or(*dump, "outcome", "?");
  const uint64_t cycle =
      static_cast<uint64_t>(number_or(*dump, "cycle", 0));
  std::printf("workload: %s\n", string_or(*dump, "workload", "?").c_str());
  std::printf("outcome: %s at cycle %" PRIu64 " — %s\n", outcome.c_str(),
              cycle, string_or(*dump, "message", "").c_str());
  std::printf("\n");

  const JsonValue* cpus = dump->find("cpus");
  for (const JsonValue& c : cpus->array) print_cpu(c);

  const JsonValue* sync = dump->find("sync_words");
  if (!sync->array.empty()) {
    std::printf("\nsync words at death:\n");
    for (const JsonValue& s : sync->array) {
      std::printf("  %s[0x%" PRIx64 "] = %" PRIu64 "\n",
                  string_or(s, "region", "?").c_str(),
                  static_cast<uint64_t>(number_or(s, "addr", 0)),
                  static_cast<uint64_t>(number_or(s, "value", 0)));
    }
  }

  // Wait-for graph: who is blocked on whom, and why.
  const JsonValue* wf = dump->find("wait_for");
  size_t waiting = 0;
  std::printf("\nwait-for graph:\n");
  if (!wf->array.empty()) {
    waiting = wf->array.size();
    for (const JsonValue& e : wf->array) {
      const int from = static_cast<int>(number_or(e, "from", -1));
      const int to = static_cast<int>(number_or(e, "to", -1));
      std::string mode = "?";
      for (const JsonValue& c : cpus->array) {
        if (static_cast<int>(number_or(c, "cpu", -1)) == from) {
          mode = string_or(c, "mode", "?");
        }
      }
      std::printf("  cpu%d (%s) -> cpu%d: %s\n", from, mode.c_str(), to,
                  string_or(e, "why", "?").c_str());
    }
  } else {
    std::printf("  (no context is waiting)\n");
  }

  // The verdict. Keep the cycle number in this line too: it is the one a
  // regression test greps for.
  std::printf("\ndiagnosis: ");
  if (outcome == "deadlock" && waiting >= cpus->array.size()) {
    std::printf(
        "both contexts are waiting on each other at cycle %" PRIu64
        " — the classic lost wake-up cycle. Neither sibling can run the "
        "code that would release the other; check the sync-word values "
        "above against what each spin/halt site expects.\n",
        cycle);
  } else if (outcome == "deadlock" && waiting > 0) {
    std::printf(
        "one context is waiting at cycle %" PRIu64
        " for a wake-up its sibling never delivers (the sibling is not "
        "itself blocked — it likely exited or branched past the "
        "release).\n",
        cycle);
  } else if (outcome == "deadlock") {
    std::printf(
        "no forward progress at cycle %" PRIu64
        " with no annotated wait — likely a guest spin outside any "
        "declared sync region; inspect the per-CPU pc/disasm above.\n",
        cycle);
  } else if (outcome == "cycle_budget_exceeded") {
    std::printf(
        "the run was cut off at cycle %" PRIu64
        " by its cycle budget. The recent-retired rings above show "
        "whether it was still making progress (raise the budget) or "
        "crawling (check the interference section of its run report).\n",
        cycle);
  } else if (outcome == "race_detected") {
    std::printf(
        "a data race was detected by cycle %" PRIu64
        " — see the message above for the conflicting accesses; the "
        "registers and sync words show the state the race left behind.\n",
        cycle);
  } else {
    std::printf("outcome '%s' at cycle %" PRIu64 ".\n", outcome.c_str(),
                cycle);
  }

  // Optional companion report: sibling-blamed interference ranking.
  if (report.has_value()) {
    const JsonValue* inter = report->find("interference");
    if (inter == nullptr) {
      std::printf(
          "\nnote: the sibling-blame ranking needs an `interference` "
          "section; %s has none (run smt_sweep --interference)\n",
          report_path);
    } else {
      std::printf("\nsibling-blamed stalls (from %s):\n", report_path);
      for (const JsonValue& entry : inter->array) {
        const int id = static_cast<int>(number_or(entry, "cpu", -1));
        const auto top = sibling_blame(entry);
        if (top.empty()) {
          std::printf("  cpu%d: none — every stall was self-inflicted\n", id);
          continue;
        }
        for (const auto& [reason, cycles] : top) {
          std::printf("  cpu%d: %-14s %12.0f cycles — implicates %s\n", id,
                      reason.c_str(), cycles, implication(reason));
        }
      }
    }
  }
  return 0;
}
