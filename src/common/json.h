// Minimal JSON support for the structured run reports.
//
// JsonWriter is a small streaming emitter (objects, arrays, scalars) used
// by core::RunReport to serialize run artifacts; parse_json is a strict
// recursive-descent reader used by tests and the bench-report smoke
// checker to validate those artifacts round-trip. Both cover exactly the
// JSON subset the reports need (no \uXXXX escapes beyond pass-through, no
// NaN/Inf — callers must emit finite numbers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smt {

class JsonWriter {
 public:
  /// Serialized document accumulated so far.
  const std::string& str() const { return out_; }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next member; must be inside an object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(bool v);

  /// key + scalar in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void pre_value();

  std::string out_;
  // Per-nesting-level "needs a comma before the next element" flags.
  std::vector<bool> comma_;
  bool after_key_ = false;
};

/// Escapes `s` as a JSON string literal (with quotes).
std::string json_quote(std::string_view s);

/// Parsed JSON value (tree form).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
};

/// True when `obj` has a number member `key`.
bool has_number(const JsonValue& obj, const std::string& key);

/// obj[key] when it is a number, else `fallback`. The pointer form also
/// yields `fallback` for a null `obj`, so an absent sub-object reads as
/// all-`fallback` (report sections treat absent counts as zero).
double number_or(const JsonValue& obj, const std::string& key,
                 double fallback);
double number_or(const JsonValue* obj, const std::string& key,
                 double fallback);

/// obj[key] when it is a string, else `fallback`.
std::string string_or(const JsonValue& obj, const std::string& key,
                      const std::string& fallback);

/// Deepest nesting of arrays and objects parse_json accepts. Every
/// artifact the project writes nests at most 7 levels; the cap keeps the
/// recursive reader's stack bounded on hostile input.
inline constexpr int kMaxJsonDepth = 256;

/// Parses a complete JSON document; std::nullopt on any syntax error,
/// trailing garbage or nesting deeper than kMaxJsonDepth.
std::optional<JsonValue> parse_json(std::string_view text);

/// Serializes a parsed tree back to a canonical string: no whitespace,
/// object members in sorted-key order (JsonValue::object is a std::map),
/// numbers via JsonWriter's shortest-round-trip formatting. Two
/// documents that parse to the same tree canonicalize identically — the
/// basis of content-addressed keys (smt_history's config hash).
std::string to_canonical_string(const JsonValue& v);

}  // namespace smt
