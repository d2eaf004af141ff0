#include "host/result_store.h"

#include <atomic>
#include <filesystem>
#include <utility>

#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "core/run_report.h"
#include "isa/serialize.h"

namespace fs = std::filesystem;

namespace smt::host {

namespace {

constexpr char kMetaSchema[] = "smt-result-cache/1";

std::string meta_json(const ResultKey& key, const CachedResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kMetaSchema);
  w.kv("key", key.hash());
  w.kv("experiment", key.experiment);
  w.key("program_digests");
  w.begin_array();
  for (const std::string& d : key.program_digests) w.value(d);
  w.end_array();
  w.kv("config_hash", key.config_hash);
  w.kv("cycle_budget", static_cast<uint64_t>(key.cycle_budget));
  w.kv("race_detect", key.race_detect);
  w.kv("flight_recorder", key.flight_recorder);
  if (!key.options.empty()) w.kv("options", key.options);
  w.kv("report_epoch", key.report_epoch);
  w.kv("outcome", r.outcome);
  w.kv("message", r.message);
  w.kv("cycles", static_cast<uint64_t>(r.cycles));
  w.kv("verified", r.verified);
  w.kv("has_dump", !r.dump_json.empty());
  w.end_object();
  return w.str();
}

}  // namespace

std::string ResultKey::canonical() const {
  std::string out = "smt-result-key/1\n";
  out += "experiment " + experiment + "\n";
  out += "programs " + std::to_string(program_digests.size()) + "\n";
  for (const std::string& d : program_digests) out += d + "\n";
  out += "config " + config_hash + "\n";
  out += "cycle_budget " + std::to_string(cycle_budget) + "\n";
  out += std::string("race_detect ") + (race_detect ? "1" : "0") + "\n";
  out += std::string("flight_recorder ") + (flight_recorder ? "1" : "0") +
         "\n";
  if (!options.empty()) out += "options " + options + "\n";
  out += "report_epoch " + report_epoch + "\n";
  return out;
}

std::string ResultKey::hash() const { return fnv1a64_hex(canonical()); }

std::string options_text(const core::RunOptions& opt) {
  std::string out;
  const trace::TelemetryConfig& t = opt.telemetry;
  if (t.any()) {
    const auto flag = [](bool b) { return b ? "1" : "0"; };
    out += std::string("telemetry=") + flag(t.enabled) + "/" +
           std::to_string(t.sample_window) + "/" +
           std::to_string(t.ring_capacity) + "/" +
           std::to_string(t.l2_burst_gap) + " pc_profile=" +
           flag(t.pc_profile) + " interference=" + flag(t.interference) +
           " pipeview=" + flag(t.pipeview) + "/" +
           std::to_string(t.pipeview_begin) + ":" +
           std::to_string(t.pipeview_end);
  }
  if (opt.until_first_done) {
    out += std::string(out.empty() ? "" : " ") + "until_first_done";
  }
  return out;
}

ResultKey result_key(const ExperimentDef& def, const core::MachineConfig& cfg,
                     Cycle cycle_budget, const core::RunOptions& opt) {
  ResultKey key;
  key.experiment = def.name;
  const std::unique_ptr<core::Workload> w = def.make();
  core::Machine scratch(cfg);
  w->setup(scratch);
  for (const isa::Program& p : w->programs()) {
    key.program_digests.push_back(isa::program_digest(p));
  }
  key.config_hash = fnv1a64_hex(core::machine_config_json(cfg));
  key.cycle_budget = cycle_budget;
  key.race_detect = opt.race_detect;
  key.flight_recorder = opt.flight_recorder;
  key.options = options_text(opt);
  return key;
}

bool cacheable_outcome(const std::string& outcome) {
  return outcome == "ok" || outcome == "deadlock" ||
         outcome == "cycle_budget_exceeded" || outcome == "verify_failed" ||
         outcome == "race_detected";
}

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {}

std::string ResultStore::object_dir(const ResultKey& key) const {
  return (fs::path(root_) / "objects" / key.hash()).string();
}

std::optional<CachedResult> ResultStore::load(const ResultKey& key) const {
  const fs::path dir = object_dir(key);
  const auto meta_bytes = read_text_file(dir / "meta.json");
  if (!meta_bytes.has_value()) return std::nullopt;
  const auto meta = parse_json(*meta_bytes);
  if (!meta.has_value() || !meta->is_object()) return std::nullopt;

  // Field-for-field key verification: the directory name is only a hash;
  // the meta document carries the full key so a collision (or a store
  // written under a different format understanding) reads as a miss.
  const auto str = [&](const char* k) -> const std::string* {
    const JsonValue* v = meta->find(k);
    return (v != nullptr && v->is_string()) ? &v->string : nullptr;
  };
  const auto boolean = [&](const char* k, bool* out) {
    const JsonValue* v = meta->find(k);
    if (v == nullptr || v->type != JsonValue::Type::kBool) return false;
    *out = v->boolean;
    return true;
  };
  const std::string* schema = str("schema");
  const std::string* experiment = str("experiment");
  const std::string* config_hash = str("config_hash");
  const std::string* report_epoch = str("report_epoch");
  const std::string* outcome = str("outcome");
  const std::string* message = str("message");
  const JsonValue* digests = meta->find("program_digests");
  const JsonValue* budget = meta->find("cycle_budget");
  const JsonValue* cycles = meta->find("cycles");
  const JsonValue* options = meta->find("options");
  bool race_detect = false;
  bool flight_recorder = false;
  bool verified = false;
  bool has_dump = false;
  if (schema == nullptr || *schema != kMetaSchema || experiment == nullptr ||
      *experiment != key.experiment || config_hash == nullptr ||
      *config_hash != key.config_hash || report_epoch == nullptr ||
      *report_epoch != key.report_epoch || outcome == nullptr ||
      message == nullptr || digests == nullptr || !digests->is_array() ||
      budget == nullptr || !budget->is_number() || cycles == nullptr ||
      !cycles->is_number() ||
      !boolean("race_detect", &race_detect) ||
      race_detect != key.race_detect ||
      !boolean("flight_recorder", &flight_recorder) ||
      flight_recorder != key.flight_recorder ||
      !boolean("verified", &verified) || !boolean("has_dump", &has_dump)) {
    return std::nullopt;
  }
  if (static_cast<Cycle>(budget->number) != key.cycle_budget ||
      (options == nullptr ? !key.options.empty()
                          : !options->is_string() ||
                                options->string != key.options)) {
    return std::nullopt;
  }
  if (digests->array.size() != key.program_digests.size()) return std::nullopt;
  for (size_t i = 0; i < digests->array.size(); ++i) {
    if (!digests->array[i].is_string() ||
        digests->array[i].string != key.program_digests[i]) {
      return std::nullopt;
    }
  }
  if (!cacheable_outcome(*outcome)) return std::nullopt;

  CachedResult r;
  r.outcome = *outcome;
  r.message = *message;
  r.cycles = static_cast<Cycle>(cycles->number);
  r.verified = verified;
  auto report = read_text_file(dir / "report.json");
  if (!report.has_value() || report->empty()) return std::nullopt;
  r.report_json = std::move(*report);
  if (has_dump) {
    auto dump = read_text_file(dir / "dump.json");
    if (!dump.has_value() || dump->empty()) return std::nullopt;
    r.dump_json = std::move(*dump);
  }
  return r;
}

bool ResultStore::store(const ResultKey& key, const CachedResult& result)
    const {
  if (!cacheable_outcome(result.outcome)) return false;
  if (result.report_json.empty()) return false;
  const fs::path dir = object_dir(key);
  std::error_code ec;
  if (fs::exists(dir / "meta.json", ec)) return true;  // first writer won

  // Build the object in a uniquely named temp dir, then rename into
  // place: readers only ever observe absent or complete objects.
  static std::atomic<uint64_t> tmp_seq{0};
  const fs::path tmp =
      dir.string() + ".tmp" +
      std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
  if (!write_text_file((tmp / "meta.json").string(),
                       meta_json(key, result)) ||
      !write_text_file((tmp / "report.json").string(), result.report_json) ||
      (!result.dump_json.empty() &&
       !write_text_file((tmp / "dump.json").string(), result.dump_json))) {
    fs::remove_all(tmp, ec);
    return false;
  }
  fs::rename(tmp, dir, ec);
  if (ec) {
    // Lost the race to a concurrent writer of the same key (identical
    // bytes under the determinism contract) — or a real I/O failure.
    fs::remove_all(tmp, ec);
    std::error_code ec2;
    if (fs::exists(dir / "meta.json", ec2)) return true;
    log::error("result store write failed", {{"dir", dir.string()}});
    return false;
  }
  return true;
}

}  // namespace smt::host
