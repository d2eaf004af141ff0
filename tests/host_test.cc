// Tests for the host-parallel job pool, the result store, the sweep index,
// the sweep experiment registry and its lint report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "host/bench_history.h"
#include "host/experiments.h"
#include "host/job_pool.h"
#include "host/result_store.h"
#include "host/sweep_index.h"
#include "isa/serialize.h"
#include "profile/mix_profiler.h"

namespace smt::host {
namespace {

Job make_job(std::string name,
             std::function<JobStatus(const CancelToken&, std::string*)> fn) {
  Job j;
  j.name = std::move(name);
  j.fn = std::move(fn);
  return j;
}

TEST(JobPool, ResultsComeBackInJobOrder) {
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    std::string jname = "j";
    jname += std::to_string(i);
    jobs.push_back(make_job(
        jname, [i](const CancelToken&, std::string* message) {
          *message = "ran ";
          *message += std::to_string(i);
          return JobStatus::kOk;
        }));
  }
  JobPoolConfig cfg;
  cfg.workers = 4;
  const std::vector<JobResult> results = run_jobs(cfg, jobs);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i].status, JobStatus::kOk);
    std::string expect = "ran ";
    expect += std::to_string(i);
    EXPECT_EQ(results[i].message, expect);
  }
}

TEST(JobPool, EmptyJobListIsFine) {
  JobPoolConfig cfg;
  cfg.workers = 4;
  EXPECT_TRUE(run_jobs(cfg, {}).empty());
}

TEST(JobPool, OneFailureDoesNotStopTheOthers) {
  std::atomic<int> executed{0};
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    std::string jname = "j";
    jname += std::to_string(i);
    jobs.push_back(make_job(
        jname,
        [i, &executed](const CancelToken&, std::string* message) {
          executed.fetch_add(1);
          if (i == 2) {
            *message = "synthetic failure";
            return JobStatus::kFailed;
          }
          return JobStatus::kOk;
        }));
  }
  JobPoolConfig cfg;
  cfg.workers = 2;
  const std::vector<JobResult> results = run_jobs(cfg, jobs);
  EXPECT_EQ(executed.load(), 6);
  EXPECT_EQ(results[2].status, JobStatus::kFailed);
  EXPECT_EQ(results[2].message, "synthetic failure");
  for (int i = 0; i < 6; ++i) {
    if (i != 2) {
      EXPECT_EQ(results[i].status, JobStatus::kOk);
    }
  }
}

TEST(JobPool, JobsRunConcurrentlyAcrossWorkers) {
  // Two jobs that each wait (bounded) for the other to start can only both
  // finish ok if the pool really runs them on different threads at once.
  std::atomic<int> started{0};
  auto meet = [&started](const CancelToken&, std::string* message) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() >= deadline) {
        *message = "peer never started";
        return JobStatus::kFailed;
      }
      std::this_thread::yield();
    }
    return JobStatus::kOk;
  };
  JobPoolConfig cfg;
  cfg.workers = 2;
  const std::vector<JobResult> results =
      run_jobs(cfg, {make_job("a", meet), make_job("b", meet)});
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[1].status, JobStatus::kOk);
}

TEST(JobPool, WatchdogExpiryReportsTimeoutAfterOneAttempt) {
  std::atomic<int> attempts_seen{0};
  Job job = make_job(
      "stuck", [&attempts_seen](const CancelToken& token,
                                std::string* message) {
        attempts_seen.fetch_add(1);
        while (!token.expired()) std::this_thread::yield();
        *message = "token expired";
        return JobStatus::kTimeout;
      });
  JobPoolConfig cfg;
  cfg.workers = 1;
  cfg.job_timeout = std::chrono::milliseconds(20);
  const std::vector<JobResult> results = run_jobs(cfg, {job});
  EXPECT_EQ(results[0].status, JobStatus::kTimeout);
  EXPECT_EQ(results[0].message, "token expired");
  EXPECT_EQ(attempts_seen.load(), 1);
  EXPECT_GT(results[0].wall_ms, 0.0);
}

TEST(JobPool, StructuredFailureIsNotRetried) {
  std::atomic<int> attempts_seen{0};
  Job job = make_job(
      "bad", [&attempts_seen](const CancelToken&, std::string*) {
        attempts_seen.fetch_add(1);
        return JobStatus::kFailed;
      });
  JobPoolConfig cfg;
  cfg.workers = 1;
  cfg.job_timeout = std::chrono::milliseconds(1000);
  const std::vector<JobResult> results = run_jobs(cfg, {job});
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_EQ(attempts_seen.load(), 1);
}

TEST(CancelToken, ExpiresOnlyOnceItsDeadlinePassed) {
  CancelToken fresh;
  EXPECT_FALSE(fresh.expired());

  CancelToken timed;
  timed.arm_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_TRUE(timed.expired());
}

// ---------------------------------------------------------------------------
// Claim order
// ---------------------------------------------------------------------------

TEST(ClaimOrder, LongestFirstThenUnestimatedInInputOrder) {
  const std::vector<std::optional<double>> estimates = {
      std::nullopt, 5.0, 9.0, std::nullopt, 5.0, 12.0};
  // 12 > 9 > 5 = 5 (input order kept on the tie), then the two jobs
  // without an estimate, in input order.
  EXPECT_EQ(longest_first(estimates),
            (std::vector<size_t>{5, 2, 1, 4, 0, 3}));
}

TEST(ClaimOrder, NoEstimatesIsTheIdentity) {
  EXPECT_EQ(longest_first(std::vector<std::optional<double>>(5)),
            (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(longest_first({}).empty());
  EXPECT_EQ(longest_first({3.0, 3.0, 3.0}),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(ClaimOrder, OnePoolWorkerClaimsInThatOrderAndResultsLandInTheirSlots) {
  // As smt_sweep submits: pool job k is manifest slot submit[k], and each
  // job writes only its own slot.
  const std::vector<std::optional<double>> estimates = {1.0, std::nullopt,
                                                        30.0, 20.0};
  const std::vector<size_t> submit = longest_first(estimates);
  std::vector<std::string> slots(estimates.size());
  std::vector<size_t> claimed;  // one worker: no synchronization needed
  std::vector<Job> jobs;
  for (const size_t slot : submit) {
    jobs.push_back(make_job(
        "slot" + std::to_string(slot),
        [&, slot](const CancelToken&, std::string* message) {
          claimed.push_back(slot);
          slots[slot] = "wrote " + std::to_string(slot);
          *message = slots[slot];
          return JobStatus::kOk;
        }));
  }
  JobPoolConfig cfg;
  cfg.workers = 1;
  const std::vector<JobResult> results = run_jobs(cfg, jobs);
  EXPECT_EQ(claimed, (std::vector<size_t>{2, 3, 0, 1}));
  ASSERT_EQ(results.size(), submit.size());
  for (size_t k = 0; k < results.size(); ++k) {
    EXPECT_EQ(results[k].message, "wrote " + std::to_string(submit[k]));
  }
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    EXPECT_EQ(slots[slot], "wrote " + std::to_string(slot));
  }
}

// ---------------------------------------------------------------------------
// Content-addressed result store
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

ResultKey sample_key(const std::string& experiment) {
  ResultKey k;
  k.experiment = experiment;
  k.program_digests = {"0123456789abcdef", "fedcba9876543210"};
  k.config_hash = "00ff00ff00ff00ff";
  k.cycle_budget = 1'000'000;
  k.race_detect = false;
  k.flight_recorder = true;
  return k;
}

CachedResult sample_result() {
  CachedResult r;
  r.outcome = "deadlock";
  r.message = "all contexts halted";
  r.cycles = 4242;
  r.verified = false;
  r.report_json = "{\"schema\":\"smt-run-report/1\",\"cycles\":4242}";
  r.dump_json = "{\"schema\":\"smt-core-dump/1\"}";
  return r;
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("result_store_test_" +
             std::to_string(
                 std::chrono::steady_clock::now().time_since_epoch().count()));
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ResultStoreTest, StoreThenLoadRoundTripsEveryField) {
  ResultStore store(root_.string());
  const ResultKey key = sample_key("rt");
  EXPECT_FALSE(store.load(key).has_value());  // cold store: miss

  ASSERT_TRUE(store.store(key, sample_result()));
  const auto hit = store.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, "deadlock");
  EXPECT_EQ(hit->message, "all contexts halted");
  EXPECT_EQ(hit->cycles, 4242u);
  EXPECT_FALSE(hit->verified);
  EXPECT_EQ(hit->report_json, sample_result().report_json);
  EXPECT_EQ(hit->dump_json, sample_result().dump_json);
}

TEST_F(ResultStoreTest, DumplessResultRoundTripsEmptyDump) {
  ResultStore store(root_.string());
  CachedResult r = sample_result();
  r.outcome = "ok";
  r.dump_json.clear();
  ASSERT_TRUE(store.store(sample_key("ok"), r));
  const auto hit = store.load(sample_key("ok"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, "ok");
  EXPECT_TRUE(hit->dump_json.empty());
}

TEST_F(ResultStoreTest, DifferentKeysNeverAlias) {
  ResultStore store(root_.string());
  ASSERT_TRUE(store.store(sample_key("a"), sample_result()));
  // Every key field participates in the address.
  EXPECT_FALSE(store.load(sample_key("b")).has_value());
  ResultKey budget = sample_key("a");
  budget.cycle_budget += 1;
  EXPECT_FALSE(store.load(budget).has_value());
  ResultKey race = sample_key("a");
  race.race_detect = true;
  EXPECT_FALSE(store.load(race).has_value());
  ResultKey programs = sample_key("a");
  programs.program_digests.pop_back();
  EXPECT_FALSE(store.load(programs).has_value());
  ResultKey epoch = sample_key("a");
  epoch.report_epoch = "smt-run-report/3";
  EXPECT_FALSE(store.load(epoch).has_value());
}

TEST_F(ResultStoreTest, NonCacheableOutcomesAreRefused) {
  ResultStore store(root_.string());
  for (const char* outcome : {"timeout", "cancelled", "", "bogus"}) {
    CachedResult r = sample_result();
    r.outcome = outcome;
    EXPECT_FALSE(store.store(sample_key("x"), r)) << outcome;
  }
  EXPECT_FALSE(store.load(sample_key("x")).has_value());
}

TEST_F(ResultStoreTest, CorruptObjectDegradesToMiss) {
  ResultStore store(root_.string());
  const ResultKey key = sample_key("corrupt");
  ASSERT_TRUE(store.store(key, sample_result()));
  const fs::path obj = root_ / "objects" / key.hash();
  ASSERT_TRUE(fs::is_directory(obj));

  // Truncated meta.json: parse failure, not wrong bytes.
  std::ofstream(obj / "meta.json") << "{\"schema\":";
  EXPECT_FALSE(store.load(key).has_value());

  // Nesting far past any artifact's: a parse failure, not a crash.
  std::ofstream(obj / "meta.json") << std::string(30000, '[');
  EXPECT_FALSE(store.load(key).has_value());

  // Meta for a *different* key squatting in this key's slot (simulated
  // hash collision): field verification must reject it.
  ASSERT_TRUE(fs::remove_all(obj) > 0);
  ASSERT_TRUE(store.store(sample_key("other"), sample_result()));
  const fs::path other = root_ / "objects" / sample_key("other").hash();
  fs::create_directories(obj);
  for (const char* f : {"meta.json", "report.json", "dump.json"}) {
    fs::copy_file(other / f, obj / f);
  }
  EXPECT_FALSE(store.load(key).has_value());
}

TEST_F(ResultStoreTest, StrandedTempDirFromAKilledStoreIsIgnored) {
  // A store killed before its rename leaves objects/<hash>.tmpN holding
  // whatever it had written; a later sweep with the same --cache must
  // miss on that key, store over it and then hit.
  ResultStore store(root_.string());
  const ResultKey key = sample_key("stranded");
  const fs::path tmp = root_ / "objects" / (key.hash() + ".tmp0");
  fs::create_directories(tmp);
  std::ofstream(tmp / "meta.json") << "{\"schema\":";
  EXPECT_FALSE(store.load(key).has_value());

  ASSERT_TRUE(store.store(key, sample_result()));
  const auto hit = store.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, sample_result().outcome);
  EXPECT_EQ(hit->report_json, sample_result().report_json);
  EXPECT_EQ(hit->dump_json, sample_result().dump_json);
}

TEST_F(ResultStoreTest, FirstWriterWins) {
  ResultStore store(root_.string());
  const ResultKey key = sample_key("first");
  ASSERT_TRUE(store.store(key, sample_result()));
  CachedResult second = sample_result();
  second.message = "late writer";
  EXPECT_TRUE(store.store(key, second));  // tolerated, not an error
  const auto hit = store.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->message, "all contexts halted");
}

TEST(ResultKey, CacheableOutcomeTruthTable) {
  for (const char* yes : {"ok", "deadlock", "cycle_budget_exceeded",
                          "verify_failed", "race_detected"}) {
    EXPECT_TRUE(cacheable_outcome(yes)) << yes;
  }
  for (const char* no :
       {"timeout", "cancelled", "cache_verify_failed", "report_write_failed",
        "", "OK"}) {
    EXPECT_FALSE(cacheable_outcome(no)) << no;
  }
}

TEST(ResultKey, RegistryKeyIsStableAndSensitive) {
  const ExperimentDef* serial = find_experiment("mm.serial.n64");
  const ExperimentDef* fine = find_experiment("mm.tlp-fine.n64");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(fine, nullptr);
  core::RunOptions ro;
  ro.flight_recorder = true;

  const ResultKey k1 =
      result_key(*serial, core::MachineConfig{}, serial->cycle_budget, ro);
  const ResultKey k2 =
      result_key(*serial, core::MachineConfig{}, serial->cycle_budget, ro);
  EXPECT_EQ(k1.canonical(), k2.canonical());
  EXPECT_EQ(k1.hash(), k2.hash());
  EXPECT_FALSE(k1.program_digests.empty());
  EXPECT_EQ(k1.config_hash.size(), 16u);

  // A different variant of the same kernel keys apart (its programs
  // differ), as does the same experiment under different run options or
  // budget.
  const ResultKey kf =
      result_key(*fine, core::MachineConfig{}, fine->cycle_budget, ro);
  EXPECT_NE(k1.hash(), kf.hash());
  const ResultKey kb =
      result_key(*serial, core::MachineConfig{}, serial->cycle_budget + 1, ro);
  EXPECT_NE(k1.hash(), kb.hash());
  core::RunOptions race = ro;
  race.race_detect = true;
  const ResultKey kr =
      result_key(*serial, core::MachineConfig{}, serial->cycle_budget, race);
  EXPECT_NE(k1.hash(), kr.hash());
}

// ---------------------------------------------------------------------------
// Sweep index
// ---------------------------------------------------------------------------

IndexEntry index_entry(std::string name, std::string outcome,
                       std::string message, int attempts, double wall_ms) {
  IndexEntry e;
  e.name = std::move(name);
  e.outcome = std::move(outcome);
  e.message = std::move(message);
  e.key = "10a46e17308b7f2c";
  e.attempts = attempts;
  e.wall_ms = wall_ms;
  e.report = "reports/" + e.name + ".json";
  return e;
}

// One entry of every shape smt_sweep writes.
SweepIndex sample_index() {
  SweepIndex index;
  index.workers = 4;
  index.job_timeout_ms = 30000;
  IndexEntry ok = index_entry("mm.serial.n64", "ok", "", 1, 2306.463937);
  ok.cycles = 980998;
  ok.verified = true;
  IndexEntry cached = ok;
  cached.name = "bt.serial";
  cached.cached = true;
  cached.wall_ms = 0.1 + 0.2;  // needs all 17 significant digits
  IndexEntry lint = index_entry("selftest.lint", "lint_failed",
                                "2 lint error(s); job not simulated", 0, 0);
  lint.key.clear();
  lint.report.clear();
  const IndexEntry timeout = index_entry(
      "selftest.hang", "timeout", "wall-clock watchdog expired", 1, 61.5);
  IndexEntry dead = index_entry(
      "selftest.deadlock", "deadlock",
      "no future event: \"cpu0\" halted\n\tawaiting IPI \\ from cpu1", 1,
      12.75);
  dead.cycles = 1505;
  dead.dump = "dumps/selftest.deadlock.dump.json";
  index.jobs = {ok, cached, lint, timeout, dead};
  return index;
}

TEST(SweepIndex, WriteParseWriteIsByteIdentical) {
  const SweepIndex index = sample_index();
  EXPECT_EQ(index.failed(), 3);
  const std::string bytes = index.to_json();
  SweepIndex parsed;
  const std::optional<std::string> finding = parse_sweep_index(bytes, &parsed);
  ASSERT_FALSE(finding.has_value()) << *finding;
  EXPECT_EQ(parsed.to_json(), bytes);
  ASSERT_EQ(parsed.jobs.size(), index.jobs.size());
  EXPECT_EQ(parsed.jobs[4].message, index.jobs[4].message);
  EXPECT_EQ(parsed.jobs[1].wall_ms, 0.1 + 0.2);
}

JsonValue json_of(JsonValue::Type type) {
  JsonValue v;
  v.type = type;
  return v;
}
JsonValue json_number(double n) {
  JsonValue v = json_of(JsonValue::Type::kNumber);
  v.number = n;
  return v;
}
JsonValue json_string(std::string s) {
  JsonValue v = json_of(JsonValue::Type::kString);
  v.string = std::move(s);
  return v;
}

TEST(SweepIndex, ParserNamesTheFirstBadField) {
  const std::optional<JsonValue> base = parse_json(sample_index().to_json());
  ASSERT_TRUE(base.has_value());
  const JsonValue kBool = json_of(JsonValue::Type::kBool);
  const JsonValue kObject = json_of(JsonValue::Type::kObject);
  // {field, replacement, finding prefix}; "jobs[N]." fields go into entry
  // N (jobs[2] is lint_failed), an absent replacement deletes the field.
  const struct {
    std::string field;
    std::optional<JsonValue> value;
    std::string finding;
  } cases[] = {
      {"schema", json_string("smt-sweep-index/2"), "schema:"},
      {"schema", std::nullopt, "schema: missing"},
      {"workers", json_string("4"), "workers:"},
      {"job_timeout_ms", json_number(0.5), "job_timeout_ms:"},
      {"total", json_number(-1), "total:"},
      {"failed", kBool, "failed:"},
      {"jobs", kObject, "jobs:"},
      {"total", json_number(7), "total: 7"},
      {"failed", json_number(0), "failed: 0"},
      {"jobs[0].name", json_number(1), "jobs[0].name:"},
      {"jobs[0].outcome", kBool, "jobs[0].outcome:"},
      {"jobs[0].message", json_number(0), "jobs[0].message:"},
      {"jobs[0].key", json_number(16), "jobs[0].key:"},
      {"jobs[0].cached", json_string("true"), "jobs[0].cached:"},
      {"jobs[0].attempts", json_number(1.5), "jobs[0].attempts:"},
      {"jobs[0].wall_ms", json_string("2306"), "jobs[0].wall_ms:"},
      {"jobs[0].cycles", json_number(-1), "jobs[0].cycles:"},
      {"jobs[0].verified", json_number(1), "jobs[0].verified:"},
      {"jobs[0].report", json_number(0), "jobs[0].report:"},
      {"jobs[0].dump", json_of(JsonValue::Type::kArray), "jobs[0].dump:"},
      {"jobs[0].verified", std::nullopt, "jobs[0].verified: missing"},
      {"jobs[2].attempts", json_number(1), "jobs[2].attempts: 1 for a"},
  };
  for (const auto& c : cases) {
    JsonValue doc = *base;
    const bool in_entry = c.field.rfind("jobs[", 0) == 0;
    JsonValue& obj =
        in_entry ? doc.object["jobs"].array[c.field[5] - '0'] : doc;
    const std::string name = in_entry ? c.field.substr(8) : c.field;
    if (c.value.has_value()) {
      obj.object[name] = *c.value;
    } else {
      obj.object.erase(name);
    }
    SweepIndex parsed;
    const std::optional<std::string> finding =
        parse_sweep_index(to_canonical_string(doc), &parsed);
    ASSERT_TRUE(finding.has_value()) << c.field;
    EXPECT_EQ(finding->rfind(c.finding, 0), 0u)
        << c.field << " gave \"" << *finding << '"';
  }
  SweepIndex parsed;
  EXPECT_EQ(parse_sweep_index("[]", &parsed), "not a JSON object");
}

TEST(SweepIndex, EntryWithoutKeyOrCachedReadsAsPreCache) {
  const char* pre_cache =
      R"({"schema":"smt-sweep-index/1","workers":1,"job_timeout_ms":0,)"
      R"("total":1,"failed":0,"jobs":[{"name":"mm.serial.n64",)"
      R"("outcome":"ok","message":"","attempts":1,"wall_ms":3.5,)"
      R"("cycles":980998,"verified":true,)"
      R"("report":"reports/mm.serial.n64.json","dump":""}]})";
  SweepIndex parsed;
  const std::optional<std::string> finding =
      parse_sweep_index(pre_cache, &parsed);
  ASSERT_FALSE(finding.has_value()) << *finding;
  ASSERT_EQ(parsed.jobs.size(), 1u);
  EXPECT_EQ(parsed.jobs[0].key, "");
  EXPECT_FALSE(parsed.jobs[0].cached);
  EXPECT_EQ(parsed.jobs[0].cycles, 980998u);
  EXPECT_TRUE(parsed.jobs[0].verified);
}

// ---------------------------------------------------------------------------
// Experiment registry
// ---------------------------------------------------------------------------

/// mm.serial.n64's canonical result key with the flight recorder on and
/// no other run option, as smt_sweep computes it.
constexpr char kMmSerialN64CanonicalKey[] =
    "smt-result-key/1\n"
    "experiment mm.serial.n64\n"
    "programs 1\n"
    "b5f301883ca868b0\n"
    "config 0241c0c2edb24cae\n"
    "cycle_budget 4000000000\n"
    "race_detect 0\n"
    "flight_recorder 1\n"
    "report_epoch smt-run-report/4\n";

TEST(Experiments, RegistryNamesAreUniqueAndLookupsWork) {
  std::set<std::string> names;
  for (const ExperimentDef& d : experiments()) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate: " << d.name;
    EXPECT_EQ(find_experiment(d.name), &d);
  }
  EXPECT_EQ(find_experiment("no.such.experiment"), nullptr);
}

TEST(Experiments, RegistryInvariantCheckAcceptsTheRealRegistry) {
  detail::check_registry_invariants(experiments());
}

TEST(Experiments, RegistryInvariantCheckRejectsBadRegistries) {
  const auto def = [](const std::string& name) {
    ExperimentDef d;
    d.name = name;
    return d;
  };
  EXPECT_DEATH(detail::check_registry_invariants({def("a"), def("a")}),
               "duplicate");
  EXPECT_DEATH(detail::check_registry_invariants({def("")}), "empty");
  // Distinct names whose sanitized artifact keys would collide on disk.
  // sanitize_artifact_key appends a disambiguating hash whenever it has
  // to substitute characters, so colliding keys can only come from names
  // that are byte-identical after substitution AND hash — i.e. the same
  // name; this arm therefore only documents the check, via names that
  // differ (and must pass).
  detail::check_registry_invariants({def("a/b"), def("a_b")});
}

TEST(Experiments, DefaultManifestExcludesSelfTests) {
  // Nor any ablation or full-size job: the default manifest is the
  // figure suite CI sweeps on every change.
  for (const std::string& name : manifest("default")) {
    const ExperimentDef* d = find_experiment(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_EQ(name.find("selftest."), std::string::npos) << name;
    EXPECT_TRUE(d->config.core.static_partitioning) << name;
  }
  for (const char* other : {"selftest", "ablation", "full"}) {
    for (const std::string& name : manifest(other)) {
      const std::vector<std::string> def = manifest("default");
      EXPECT_EQ(std::find(def.begin(), def.end(), name), def.end()) << name;
    }
  }
}

TEST(Experiments, DefaultManifestIsTheFigureSuiteInItsOrder) {
  // The 23 jobs bench/history pins, in the order every sweep index lists
  // them.
  const std::vector<std::string> want = {
      "mm.serial.n64",       "mm.tlp-fine.n64",         "mm.tlp-coarse.n64",
      "mm.tlp-pfetch.n64",   "mm.tlp-pfetch+work.n64",  "mm.serial.n128",
      "mm.tlp-fine.n128",    "mm.tlp-coarse.n128",      "mm.tlp-pfetch.n128",
      "mm.tlp-pfetch+work.n128", "lu.serial.n64",       "lu.tlp-coarse.n64",
      "lu.tlp-pfetch.n64",   "lu.serial.n128",          "lu.tlp-coarse.n128",
      "lu.tlp-pfetch.n128",  "cg.serial",               "cg.tlp-coarse",
      "cg.tlp-pfetch",       "cg.tlp-pfetch+work",      "bt.serial",
      "bt.tlp-coarse",       "bt.tlp-pfetch"};
  EXPECT_EQ(manifest("default"), want);
}

TEST(Experiments, EveryJobIsInExactlyOneKnownManifest) {
  size_t listed = 0;
  for (const char* m : kManifests) {
    const std::vector<std::string> names = manifest(m);
    EXPECT_FALSE(names.empty()) << m;
    for (const std::string& name : names) {
      EXPECT_EQ(find_experiment(name)->manifest, m) << name;
    }
    listed += names.size();
  }
  EXPECT_EQ(listed, experiments().size());
  EXPECT_TRUE(manifest("no-such-manifest").empty());
  for (const std::string& name : manifest("selftest")) {
    EXPECT_EQ(name.rfind("selftest.", 0), 0u) << name;
  }
  EXPECT_EQ(manifest("ablation").size(), 14u);
  EXPECT_EQ(manifest("full").size(), 15u);
}

TEST(Experiments, DynpartJobsDifferFromTheirStaticTwinOnlyInPartitioning) {
  int twins = 0;
  for (const ExperimentDef& d : experiments()) {
    const size_t at = d.name.rfind(".dynpart");
    if (at == std::string::npos) continue;
    ++twins;
    const ExperimentDef* twin = find_experiment(d.name.substr(0, at));
    ASSERT_NE(twin, nullptr) << d.name;
    EXPECT_FALSE(d.config.core.static_partitioning) << d.name;
    EXPECT_TRUE(twin->config.core.static_partitioning) << twin->name;
    core::MachineConfig flipped = twin->config;
    flipped.core.static_partitioning = false;
    EXPECT_EQ(core::machine_config_json(flipped),
              core::machine_config_json(d.config));
    EXPECT_EQ(d.cycle_budget, twin->cycle_budget);
    EXPECT_EQ(d.race_detect, twin->race_detect);

    // Same programs, different key: only the config hash (and the
    // name) tells them apart.
    core::RunOptions ro;
    ro.flight_recorder = true;
    const ResultKey a = result_key(*twin, twin->config, twin->cycle_budget, ro);
    const ResultKey b = result_key(d, d.config, d.cycle_budget, ro);
    EXPECT_EQ(a.program_digests, b.program_digests) << d.name;
    EXPECT_NE(a.config_hash, b.config_hash) << d.name;
    EXPECT_NE(a.hash(), b.hash()) << d.name;
  }
  EXPECT_EQ(twins, 4);
}

TEST(Experiments, DefaultJobKeysAreUnchanged) {
  // The key smt_sweep computes for mm.serial.n64 (flight recorder on):
  // the registry's machine config is the default one, so the cache and
  // bench/history entries of every default job keep their addresses.
  const ExperimentDef* def = find_experiment("mm.serial.n64");
  ASSERT_NE(def, nullptr);
  core::RunOptions ro;
  ro.flight_recorder = true;
  EXPECT_EQ(result_key(*def, def->config, def->cycle_budget, ro).hash(),
            "10a46e17308b7f2c");
}

TEST(Experiments, DefaultJobCanonicalKeyWithoutInstruments) {
  // The whole canonical key of a default job run as smt_sweep runs it
  // with no instrument option: no options line, so the key (and every
  // cache object and history entry filed under it) is the one the
  // registry had before run options could carry instruments.
  const ExperimentDef* def = find_experiment("mm.serial.n64");
  ASSERT_NE(def, nullptr);
  core::RunOptions ro;
  ro.flight_recorder = true;
  EXPECT_EQ(options_text(ro), "");
  EXPECT_EQ(result_key(*def, def->config, def->cycle_budget, ro).canonical(),
            kMmSerialN64CanonicalKey);
}

TEST(Experiments, InstrumentsAndTheFirstDoneStopEnterTheKey) {
  const ExperimentDef* def = find_experiment("mm.serial.n64");
  ASSERT_NE(def, nullptr);
  core::RunOptions plain;
  plain.flight_recorder = true;
  const ResultKey base =
      result_key(*def, def->config, def->cycle_budget, plain);
  std::set<std::string> hashes = {base.hash()};
  for (int variant = 0; variant < 4; ++variant) {
    core::RunOptions ro = plain;
    ro.telemetry.pc_profile = variant == 0;
    ro.telemetry.interference = variant == 1;
    ro.telemetry.enabled = variant == 2;
    ro.until_first_done = variant == 3;
    const ResultKey k = result_key(*def, def->config, def->cycle_budget, ro);
    EXPECT_EQ(k.program_digests, base.program_digests);
    EXPECT_FALSE(k.options.empty());
    EXPECT_TRUE(hashes.insert(k.hash()).second) << k.canonical();
  }
}

TEST(Experiments, MultiprogPairVerifiesTheAppThatFinished) {
  const ExperimentDef* def = find_experiment("multiprog.mm_bt");
  ASSERT_NE(def, nullptr);
  ASSERT_TRUE(def->until_first_done);
  core::RunOptions ro;
  ro.until_first_done = true;
  const core::RunOutcome o = core::try_run_workload(
      def->config, *def->make(), def->cycle_budget, nullptr, ro);
  ASSERT_EQ(o.status, core::RunStatus::kOk) << o.message;
  const std::optional<JsonValue> report =
      parse_json(core::RunReport::from(o.stats).to_json());
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->find("verified")->boolean);

  // The same run by hand: the verdict is the finished app's own check,
  // so wiping that app's address-space window fails it.
  const std::unique_ptr<core::Workload> w = def->make();
  core::Machine m(def->config);
  w->setup(m);
  const std::vector<isa::Program> progs = w->programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  const CpuId first = m.run_until_any_done();
  EXPECT_EQ(m.cycles(), o.stats.cycles);
  EXPECT_TRUE(w->verify(m));
  constexpr Addr kWindowBytes = 64ull << 20;
  const Addr lo = idx(first) * kWindowBytes;
  for (const mem::MemoryLayout::Region& r : w->mem_info().data) {
    if (r.base < lo || r.base >= lo + kWindowBytes) continue;
    for (Addr a = r.base; a + 8 <= r.base + r.bytes; a += 8) {
      m.memory().write_i64(a, 0);
    }
  }
  EXPECT_FALSE(w->verify(m));
}

TEST(Experiments, MultiprogAppsInWindowZeroAreTheirSoloJobs) {
  // A pair's CPU 0 program is its row app's solo job's program: the
  // table's baseline is the same code in the same window.
  const auto digest0 = [](const ExperimentDef& d) {
    const std::unique_ptr<core::Workload> w = d.make();
    core::Machine m(d.config);
    w->setup(m);
    return isa::program_digest(w->programs().at(0));
  };
  for (const char* app : kMultiprogApps) {
    const ExperimentDef* solo = find_experiment(multiprog_solo_job(app));
    const ExperimentDef* pair = find_experiment(multiprog_job(app, "mm"));
    ASSERT_NE(solo, nullptr) << app;
    ASSERT_NE(pair, nullptr) << app;
    EXPECT_EQ(digest0(*solo), digest0(*pair)) << app;
  }
}

TEST(Experiments, Table1MixFromAProfiledReportEqualsTheMixProfiler) {
  // Table 1 reads the mix from a --profile report; MixProfiler counts it
  // at retire. On an SPR job both contexts retire, so both CPUs compare.
  const ExperimentDef* def = find_experiment("mm.tlp-pfetch.n64");
  ASSERT_NE(def, nullptr);
  const std::unique_ptr<core::Workload> w = def->make();
  core::Machine m(def->config);
  trace::TelemetryConfig profile;
  profile.pc_profile = true;
  m.attach_instruments(profile);
  profile::MixProfiler mix;
  m.core().add_observer(&mix);
  w->setup(m);
  const std::vector<isa::Program> progs = w->programs();
  ASSERT_EQ(progs.size(), 2u);
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), progs[i]);
  }
  m.run();
  const std::optional<JsonValue> report = parse_json(
      core::RunReport::from(core::stats_from_machine(m, def->name, true))
          .to_json());
  ASSERT_TRUE(report.has_value());
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const std::optional<profile::MixCounts> got =
        profile::mix_from_report(*report, c);
    ASSERT_TRUE(got.has_value()) << c;
    const profile::MixCounts& want = mix.mix(static_cast<CpuId>(c));
    EXPECT_GT(want.total, 0u) << c;
    EXPECT_EQ(got->total, want.total) << c;
    EXPECT_EQ(got->counts, want.counts) << c;
  }
  // A report without a profile section has no mix.
  const std::optional<JsonValue> plain = parse_json(
      core::RunReport::from(core::try_run_workload(def->config, *def->make(),
                                                   def->cycle_budget)
                                .stats)
          .to_json());
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(profile::mix_from_report(*plain, 0).has_value());
}

TEST(Experiments, SelfTestsFailTheWayTheyPromise) {
  const ExperimentDef* deadlock = find_experiment("selftest.deadlock");
  ASSERT_NE(deadlock, nullptr);
  const core::RunOutcome o = core::try_run_workload(
      core::MachineConfig{}, *deadlock->make(), deadlock->cycle_budget);
  EXPECT_EQ(o.status, core::RunStatus::kDeadlock);

  const ExperimentDef* budget = find_experiment("selftest.budget");
  ASSERT_NE(budget, nullptr);
  const core::RunOutcome b = core::try_run_workload(
      core::MachineConfig{}, *budget->make(), budget->cycle_budget);
  EXPECT_EQ(b.status, core::RunStatus::kCycleBudgetExceeded);

  const ExperimentDef* verify = find_experiment("selftest.verify-fail");
  ASSERT_NE(verify, nullptr);
  const core::RunOutcome v = core::try_run_workload(
      core::MachineConfig{}, *verify->make(), verify->cycle_budget);
  EXPECT_EQ(v.status, core::RunStatus::kVerifyFailed);
}

TEST(Experiments, ExperimentRunsAreDeterministic) {
  // The sweep's byte-identical-reports guarantee rests on this: two fresh
  // instances of the same definition produce identical report JSON.
  const ExperimentDef* def = find_experiment("mm.serial.n64");
  ASSERT_NE(def, nullptr);
  std::string json[2];
  for (std::string& j : json) {
    const core::RunOutcome o = core::try_run_workload(
        core::MachineConfig{}, *def->make(), def->cycle_budget);
    ASSERT_EQ(o.status, core::RunStatus::kOk);
    j = core::RunReport::from(o.stats).to_json();
  }
  EXPECT_EQ(json[0], json[1]);
}

// ---------------------------------------------------------------------------
// Lint report
// ---------------------------------------------------------------------------

// smt_lint's output for the sync manifest: the report accepts it, and
// each single mutation of it yields exactly the findings check_reports
// prints. The sync jobs are the cheapest to set up; the whole registry's
// lint is gated by LintRegistry.EveryExperimentProgramIsLintClean.
TEST(LintReport, CheckNamesEachViolation) {
  const std::vector<std::string> names = manifest("sync");
  ASSERT_FALSE(names.empty());
  std::vector<ExperimentLint> lints;
  for (const std::string& name : names) {
    lints.push_back({name, lint_workload(*find_experiment(name)->make())});
  }
  const LintTotals t = lint_totals(lints);
  EXPECT_EQ(t.experiments, static_cast<int>(names.size()));
  EXPECT_EQ(t.errors, 0u);
  std::optional<JsonValue> base = parse_json(lint_report_json(lints));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(check_lint_report(*base), std::vector<std::string>{});

  // One more warning, so the rows below have a diagnostic to break.
  JsonValue& exp0 = base->object["experiments"].array[0];
  ASSERT_FALSE(exp0.object["programs"].array.empty());
  exp0.object["programs"].array[0].object["diagnostics"].array.push_back(
      *parse_json(R"({"check":"unreachable","severity":"warning",)"
                  R"("pc":3,"block":1,"message":"m"})"));
  base->object["totals"].object["warnings"].number += 1;
  ASSERT_EQ(check_lint_report(*base), std::vector<std::string>{});

  const auto diag = [](JsonValue& r) -> JsonValue& {
    return r.object["experiments"].array[0].object["programs"].array[0]
        .object["diagnostics"].array.back();
  };
  const auto totals = [](JsonValue& r) -> JsonValue& {
    return r.object["totals"];
  };
  const std::string warnings = std::to_string(t.warnings + 1);
  const struct {
    const char* what;
    std::function<void(JsonValue&)> mutate;
    std::vector<std::string> findings;
  } cases[] = {
      {"other schema",
       [](JsonValue& r) { r.object["schema"].string = "smt-lint-report/2"; },
       {"missing/unknown schema"}},
      {"no totals", [](JsonValue& r) { r.object.erase("totals"); },
       {"missing experiments/totals"}},
      {"experiment without name",
       [](JsonValue& r) {
         r.object["experiments"].array[0].object.erase("name");
       },
       {"malformed experiment entry"}},
      {"program without diagnostics",
       [](JsonValue& r) {
         r.object["experiments"].array[0].object["programs"].array[0]
             .object.erase("diagnostics");
       },
       {"malformed program entry"}},
      {"diagnostic without pc",
       [&](JsonValue& r) { diag(r).object.erase("pc"); },
       {"malformed diagnostic entry"}},
      {"unknown severity",
       [&](JsonValue& r) { diag(r).object["severity"].string = "note"; },
       {"unknown severity \"note\""}},
      {"warning recounted as an error",
       [&](JsonValue& r) { diag(r).object["severity"].string = "error"; },
       {"totals.errors is 0, recount says 1",
        "totals.warnings is " + warnings + ", recount says " +
            std::to_string(t.warnings)}},
      {"two wrong totals",
       [&](JsonValue& r) {
         totals(r).object["errors"].number = 2;
         totals(r).object["programs"].number = 0;
       },
       {"totals.errors is 2, recount says 0",
        "totals.programs is 0, recount says " + std::to_string(t.programs)}},
      {"no experiments total",
       [&](JsonValue& r) { totals(r).object.erase("experiments"); },
       {"totals.experiments is -1, recount says " +
        std::to_string(t.experiments)}},
  };
  for (const auto& c : cases) {
    JsonValue r = *base;
    c.mutate(r);
    EXPECT_EQ(check_lint_report(r), c.findings) << c.what;
  }
}


// ---------------------------------------------------------------------------
// Benchmark history
// ---------------------------------------------------------------------------

class BenchHistoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("bench_history_test_" +
             std::to_string(
                 std::chrono::steady_clock::now().time_since_epoch().count())))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& experiment, const std::string& text) {
    std::ofstream(history_file(dir_, experiment)) << text;
  }

  std::string dir_;
};

History sample_history() {
  return {"mm.serial.n64",
          {{"aaaaaaaaaaaaaaaa",
            kHistoryReportSchema,
            {{"r1", "k1", {{"cycles", 100}, {"totals.ipc", 1.5}}},
             {"r2", "", {{"cycles", 120}}}}},
           {"bbbbbbbbbbbbbbbb", kHistoryReportSchema, {}}}};
}

TEST_F(BenchHistoryTest, SaveThenLoadRoundTripsAndRewritesTheSameBytes) {
  const History h = sample_history();
  ASSERT_TRUE(save_history(dir_, h));
  const std::optional<History> back = load_history(dir_, h.experiment);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
  EXPECT_EQ(history_json(*back), history_json(h));
  // An absent file is an empty history, not an error.
  const std::optional<History> none = load_history(dir_, "lu.serial.n64");
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(*none, (History{"lu.serial.n64", {}}));
}

TEST_F(BenchHistoryTest, ParserNamesTheFirstMalformedPart) {
  History h;
  EXPECT_EQ(parse_history("{\"schema\":", &h),
            "does not parse as a JSON object");
  EXPECT_EQ(parse_history("{\"schema\":\"smt-bench-history/2\","
                          "\"experiment\":\"x\",\"trajectories\":[]}",
                          &h),
            "malformed history file");
  EXPECT_EQ(parse_history("{\"schema\":\"smt-bench-history/1\","
                          "\"experiment\":\"x\",\"trajectories\":"
                          "[{\"config_hash\":\"a\","
                          "\"report_schema\":\"s\"}]}",
                          &h),
            "malformed trajectory");
  EXPECT_EQ(parse_history("{\"schema\":\"smt-bench-history/1\","
                          "\"experiment\":\"x\",\"trajectories\":"
                          "[{\"config_hash\":\"a\",\"report_schema\":"
                          "\"s\",\"runs\":[{\"run_id\":\"r\"}]}]}",
                          &h),
            "malformed run entry");
  EXPECT_EQ(parse_history(history_json(sample_history()), &h), std::nullopt);
  EXPECT_EQ(h, sample_history());
}

TEST_F(BenchHistoryTest, BaselineCyclesAreTheLatestRunOfTheMatchingConfig) {
  ASSERT_TRUE(save_history(dir_, sample_history()));
  EXPECT_EQ(baseline_cycles(dir_, "mm.serial.n64", "aaaaaaaaaaaaaaaa"),
            120.0);
  // Another config, a run-less trajectory, no file: no estimate.
  EXPECT_EQ(baseline_cycles(dir_, "mm.serial.n64", "cccccccccccccccc"),
            std::nullopt);
  EXPECT_EQ(baseline_cycles(dir_, "mm.serial.n64", "bbbbbbbbbbbbbbbb"),
            std::nullopt);
  EXPECT_EQ(baseline_cycles(dir_, "lu.serial.n64", "aaaaaaaaaaaaaaaa"),
            std::nullopt);
  EXPECT_EQ(baseline_cycles(dir_ + "/absent", "mm.serial.n64",
                            "aaaaaaaaaaaaaaaa"),
            std::nullopt);
}

TEST_F(BenchHistoryTest, UnusableBaselineFilesGiveNoEstimate) {
  const std::string good = history_json(sample_history());
  write("mm.serial.n64", good.substr(0, good.size() / 2));  // truncated
  EXPECT_EQ(baseline_cycles(dir_, "mm.serial.n64", "aaaaaaaaaaaaaaaa"),
            std::nullopt);
  EXPECT_EQ(load_history(dir_, "mm.serial.n64"), std::nullopt);
  // A file named for one experiment that holds another.
  write("lu.serial.n64", good);
  EXPECT_EQ(baseline_cycles(dir_, "lu.serial.n64", "aaaaaaaaaaaaaaaa"),
            std::nullopt);
  EXPECT_EQ(load_history(dir_, "lu.serial.n64"), std::nullopt);
}

TEST(BenchHistory, MachineConfigHashEqualsItsReportsConfigHash) {
  const ExperimentDef* def = find_experiment("mm.serial.n64");
  ASSERT_NE(def, nullptr);
  const core::Machine m(def->config);
  const std::optional<JsonValue> report = parse_json(
      core::report_from_machine(m, def->name, true).to_json());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(history_config_hash(*report->find("config")),
            history_config_hash(def->config));
  core::MachineConfig other = def->config;
  other.core.rob_size /= 2;
  EXPECT_NE(history_config_hash(other), history_config_hash(def->config));
}

}  // namespace
}  // namespace smt::host
