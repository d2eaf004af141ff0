// Tests for the common utilities: RNG determinism, numeric helpers, and the
// table/number formatting the bench harness depends on.
#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace smt {
namespace {

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForAGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(13), 13u);
  }
  // Small bounds hit every residue (sanity against bias bugs).
  Rng r2(8);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r2.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoublesAreInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(SplitMix64, KnownSequenceIsStable) {
  // Regression pin: SplitMix64(0) must produce the published sequence.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafull);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ull);
}

TEST(Helpers, SafeRatioAndRelErr) {
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(safe_ratio(6.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_err(2.0, 2.0), 0.0);
  EXPECT_NEAR(rel_err(2.0, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(rel_err(0.0, 0.0), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// TextTable and formatting
// ---------------------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Every line has the same width (header, rule, rows).
  size_t first_len = s.find('\n');
  size_t pos = 0;
  for (int line = 0; pos < s.size(); ++line) {
    const size_t next = s.find('\n', pos);
    ASSERT_NE(next, std::string::npos);
    EXPECT_EQ(next - pos, first_len) << "line " << line;
    pos = next + 1;
  }
}

TEST(TextTable, CsvEscapesCommas) {
  TextTable t({"k", "v"});
  t.add_row({"a,b", "1"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("a;b,1"), std::string::npos);
}

TEST(TextTableDeath, ArityMismatchIsFatal) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "arity");
}

TEST(Format, FixedPoint) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-0.5, 3), "-0.500");
}

TEST(Format, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
}

TEST(Format, EngineeringSuffixes) {
  EXPECT_EQ(fmt_eng(950, 0), "950");
  EXPECT_EQ(fmt_eng(1500, 1), "1.5K");
  EXPECT_EQ(fmt_eng(2.5e6, 1), "2.5M");
  EXPECT_EQ(fmt_eng(4.6e9, 2), "4.60G");
}

// ---------------------------------------------------------------------------
// JSON double serialization
// ---------------------------------------------------------------------------

/// Serializes `v` through JsonWriter and re-parses the emitted literal.
double json_round_trip(double v) {
  JsonWriter w;
  w.value(v);
  const std::optional<JsonValue> parsed = parse_json(w.str());
  EXPECT_TRUE(parsed.has_value()) << w.str();
  EXPECT_TRUE(parsed->is_number()) << w.str();
  return parsed->number;
}

TEST(Json, DoublesRoundTripExactly) {
  // The old %.12g writer silently dropped significand bits; every awkward
  // double must now re-parse bit-for-bit equal.
  const std::vector<double> awkward = {
      0.0,
      1.0 / 3.0,
      0.1,
      2.0 / 3.0e10,
      1e-300,
      1.7976931348623157e308,          // DBL_MAX
      DBL_MIN,                         // smallest normal
      5e-324,                          // smallest denormal
      2.2250738585072011e-308,         // largest denormal neighborhood
      9007199254740992.0,              // 2^53
      9007199254740993.0,              // 2^53 + 1 (rounds to 2^53)
      9007199254740991.0,              // 2^53 - 1
      3.141592653589793,
      6.02214076e23,
      -1.2345678901234567e-89,
  };
  for (double v : awkward) {
    for (double signedv : {v, -v}) {
      const double back = json_round_trip(signedv);
      EXPECT_EQ(back, signedv) << "value " << signedv;
      EXPECT_EQ(std::signbit(back), std::signbit(signedv));
    }
  }
}

TEST(Json, DoublesRoundTripUnderRandomSweep) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    // Spread across magnitudes: mantissa in [0,1), exponent in [-80, 80].
    const double mantissa = rng.next_double();
    const int exp = static_cast<int>(rng.next_below(161)) - 80;
    const double v = std::ldexp(mantissa, exp);
    EXPECT_EQ(json_round_trip(v), v);
  }
}

TEST(Json, IntegralDoublesStayCompact) {
  JsonWriter w;
  w.value(2.0);
  EXPECT_EQ(w.str(), "2");  // shortest-form search must not bloat easy values
}

TEST(Json, AccessorsFallBackOnAbsentOrMistypedMembers) {
  const auto v = parse_json(R"({"n":3,"s":"x","o":{"k":1}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(has_number(*v, "n"));
  EXPECT_FALSE(has_number(*v, "s"));
  EXPECT_EQ(number_or(*v, "n", -1.0), 3.0);
  EXPECT_EQ(number_or(*v, "s", -1.0), -1.0);
  EXPECT_EQ(number_or(*v, "absent", -1.0), -1.0);
  EXPECT_EQ(number_or(v->find("o"), "k", 0.0), 1.0);
  EXPECT_EQ(number_or(v->find("absent"), "k", 7.0), 7.0);  // null object
  EXPECT_EQ(string_or(*v, "s", "?"), "x");
  EXPECT_EQ(string_or(*v, "n", "?"), "?");
}

// ---------------------------------------------------------------------------
// Whole-file text I/O
// ---------------------------------------------------------------------------

TEST(TextFile, ReadReturnsWhatWriteStored) {
  const std::string path = testing::TempDir() + "/text_file_test/a.txt";
  const std::string content("line one\n\0binary\xff tail", 22);
  ASSERT_TRUE(write_text_file(path, content));
  EXPECT_EQ(read_text_file(path), content);
}

TEST(TextFile, ReadOfMissingOrDirectoryPathIsNullopt) {
  EXPECT_EQ(read_text_file(testing::TempDir() + "/no/such/file"),
            std::nullopt);
  EXPECT_EQ(read_text_file(testing::TempDir()), std::nullopt);
}

// ---------------------------------------------------------------------------
// Artifact-key sanitization
// ---------------------------------------------------------------------------

TEST(SanitizeArtifactKey, CleanKeysPassThroughVerbatim) {
  EXPECT_EQ(sanitize_artifact_key("mm.serial.n64"), "mm.serial.n64");
  EXPECT_EQ(sanitize_artifact_key("fig3_matmul.mm.tlp-fine.n128"),
            "fig3_matmul.mm.tlp-fine.n128");
}

TEST(SanitizeArtifactKey, DistinctDirtyKeysStayDistinct) {
  // "a/b" used to collapse onto the clean key "a_b" — both mapped to the
  // same report filename and the second write clobbered the first.
  const std::string slash = sanitize_artifact_key("a/b");
  EXPECT_NE(slash, "a_b");
  EXPECT_NE(slash, sanitize_artifact_key("a_b"));
  EXPECT_NE(sanitize_artifact_key("a/b"), sanitize_artifact_key("a:b"));
  EXPECT_NE(sanitize_artifact_key("cg.tlp-pfetch+work"),
            sanitize_artifact_key("cg.tlp-pfetch_work"));
}

TEST(SanitizeArtifactKey, ResultIsAlwaysFilenameSafe) {
  for (const std::string key :
       {"a/b", "a b", "cg.tlp-pfetch+work", "x:y|z*?", "plain"}) {
    const std::string s = sanitize_artifact_key(key);
    EXPECT_FALSE(s.empty());
    for (char c : s) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                  c == '_' || c == '-')
          << key << " -> " << s;
    }
    // Deterministic: same key, same fragment.
    EXPECT_EQ(s, sanitize_artifact_key(key));
  }
}

// ---------------------------------------------------------------------------
// Structured logger
// ---------------------------------------------------------------------------

TEST(Log, ParseLevelAndFormat) {
  log::Level lvl;
  EXPECT_TRUE(log::parse_level("debug", &lvl));
  EXPECT_EQ(lvl, log::Level::kDebug);
  EXPECT_TRUE(log::parse_level("WARN", &lvl));  // case-insensitive
  EXPECT_EQ(lvl, log::Level::kWarn);
  EXPECT_TRUE(log::parse_level("off", &lvl));
  EXPECT_EQ(lvl, log::Level::kOff);
  EXPECT_FALSE(log::parse_level("loud", &lvl));
  EXPECT_FALSE(log::parse_level("", &lvl));

  log::Format f;
  EXPECT_TRUE(log::parse_format("json", &f));
  EXPECT_EQ(f, log::Format::kJson);
  EXPECT_TRUE(log::parse_format("human", &f));
  EXPECT_EQ(f, log::Format::kHuman);
  EXPECT_FALSE(log::parse_format("xml", &f));
}

TEST(Log, HumanRenderingIsCompactKeyValue) {
  const std::string line =
      log::render(log::Format::kHuman, log::Level::kWarn, "watchdog expired",
                  {{"job", "mm.serial.n64"}, {"attempt", 1}}, 12345);
  EXPECT_EQ(line, "smt W watchdog expired  job=mm.serial.n64 attempt=1");
}

TEST(Log, HumanRenderingQuotesAwkwardValues) {
  const std::string line =
      log::render(log::Format::kHuman, log::Level::kError, "job failed",
                  {{"message", "verify failed: x=1"}}, 0);
  // Value holds spaces and '=': must come out quoted so the line stays
  // machine-splittable on unquoted whitespace.
  EXPECT_EQ(line, "smt E job failed  message=\"verify failed: x=1\"");
}

TEST(Log, JsonRenderingParsesAndCarriesTypedFields) {
  const std::string line = log::render(
      log::Format::kJson, log::Level::kInfo, "sweep starting",
      {{"jobs", 12}, {"ratio", 0.5}, {"ok", true}, {"out", "sw"}}, 777);
  const auto v = parse_json(line);
  ASSERT_TRUE(v.has_value() && v->is_object());
  EXPECT_EQ(v->find("ts_ms")->number, 777.0);
  EXPECT_EQ(v->find("level")->string, "info");
  EXPECT_EQ(v->find("msg")->string, "sweep starting");
  EXPECT_EQ(v->find("jobs")->number, 12.0);
  EXPECT_EQ(v->find("ratio")->number, 0.5);
  EXPECT_TRUE(v->find("ok")->boolean);
  EXPECT_EQ(v->find("out")->string, "sw");
}

TEST(Log, LevelThresholdGatesEnabled) {
  const log::Level before = log::level();
  log::set_level(log::Level::kWarn);
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
  EXPECT_FALSE(log::enabled(log::Level::kInfo));
  EXPECT_TRUE(log::enabled(log::Level::kWarn));
  EXPECT_TRUE(log::enabled(log::Level::kError));
  log::set_level(log::Level::kOff);
  EXPECT_FALSE(log::enabled(log::Level::kError));
  log::set_level(before);
}

// ---------------------------------------------------------------------------
// FNV-1a hashing / canonical JSON (smt_history's content addressing)
// ---------------------------------------------------------------------------

TEST(Hash, Fnv1a64KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a64_hex("a"), "af63dc4c8601ec8c");
}

TEST(Json, CanonicalStringIsOrderAndWhitespaceInvariant) {
  const auto a = parse_json(R"({"b":2,"a":[1,2.5,"x"],"c":{"y":true}})");
  const auto b = parse_json(
      "{ \"c\" : { \"y\" : true },\n  \"a\" : [ 1, 2.5, \"x\" ],\n"
      "  \"b\" : 2 }");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(to_canonical_string(*a), to_canonical_string(*b));
  EXPECT_EQ(to_canonical_string(*a),
            R"({"a":[1,2.5,"x"],"b":2,"c":{"y":true}})");
}

TEST(Json, CanonicalStringDistinguishesDifferentTrees) {
  const auto a = parse_json(R"({"x":1})");
  const auto b = parse_json(R"({"x":2})");
  EXPECT_NE(to_canonical_string(*a), to_canonical_string(*b));
}

}  // namespace
}  // namespace smt
