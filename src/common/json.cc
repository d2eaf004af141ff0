#include "common/json.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace smt {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!comma_.empty()) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ += '{';
  comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SMT_CHECK(!comma_.empty());
  comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ += '[';
  comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SMT_CHECK(!comma_.empty());
  comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  SMT_CHECK(!comma_.empty() && !after_key_);
  if (comma_.back()) out_ += ',';
  comma_.back() = true;
  out_ += json_quote(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  out_ += json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  char buf[40];
  // Shortest form that round-trips exactly: most doubles re-parse equal at
  // %.15g; the rest need 16 or (worst case, by IEEE-754) 17 significant
  // digits. Emitting fewer digits than round-trip (the old %.12g) made
  // re-parsed reports drift from the originals, which report_diff's
  // exact gate would flag.
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  pre_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  pre_value();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& k) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(k);
  return it == object.end() ? nullptr : &it->second;
}

bool has_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number();
}

double number_or(const JsonValue& obj, const std::string& key,
                 double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

double number_or(const JsonValue* obj, const std::string& key,
                 double fallback) {
  return obj != nullptr ? number_or(*obj, key, fallback) : fallback;
}

std::string string_or(const JsonValue& obj, const std::string& key,
                      const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->string : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view t) : t_(t) {}

  std::optional<JsonValue> run() {
    JsonValue v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != t_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < t_.size() && std::isspace(static_cast<unsigned char>(t_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < t_.size() && t_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (t_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < t_.size()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= t_.size()) return false;
        const char e = t_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > t_.size()) return false;
            // Reports only emit control-character escapes; decode to the
            // raw byte (sufficient for < U+0100, which is all we write).
            const std::string hex(t_.substr(pos_, 4));
            pos_ += 4;
            out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
            break;
          }
          default:
            return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parse_value(JsonValue& v) {
    skip_ws();
    if (pos_ >= t_.size()) return false;
    const char c = t_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) return false;
      ++depth_;
      const bool ok = c == '{' ? parse_object(v) : parse_array(v);
      --depth_;
      return ok;
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      return parse_string(v.string);
    }
    if (c == 't') {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      v.type = JsonValue::Type::kBool;
      v.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      v.type = JsonValue::Type::kNull;
      return literal("null");
    }
    return parse_number(v);
  }

  bool parse_number(JsonValue& v) {
    const size_t start = pos_;
    if (pos_ < t_.size() && (t_[pos_] == '-' || t_[pos_] == '+')) ++pos_;
    bool any = false;
    while (pos_ < t_.size() &&
           (std::isdigit(static_cast<unsigned char>(t_[pos_])) ||
            t_[pos_] == '.' || t_[pos_] == 'e' || t_[pos_] == 'E' ||
            t_[pos_] == '-' || t_[pos_] == '+')) {
      ++pos_;
      any = true;
    }
    if (!any) return false;
    const std::string text(t_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    v.type = JsonValue::Type::kNumber;
    return true;
  }

  bool parse_object(JsonValue& v) {
    if (!eat('{')) return false;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string k;
      if (!parse_string(k)) return false;
      if (!eat(':')) return false;
      JsonValue member;
      if (!parse_value(member)) return false;
      v.object.emplace(std::move(k), std::move(member));
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& v) {
    if (!eat('[')) return false;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue elem;
      if (!parse_value(elem)) return false;
      v.array.push_back(std::move(elem));
      if (eat(',')) continue;
      return eat(']');
    }
  }

  std::string_view t_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return Parser(text).run();
}

namespace {

void write_canonical(JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      // The writer has no null (reports never emit one); an explicit
      // token keeps canonicalization total over anything parse_json
      // accepts.
      w.value("null");
      break;
    case JsonValue::Type::kBool:   w.value(v.boolean); break;
    case JsonValue::Type::kNumber: w.value(v.number); break;
    case JsonValue::Type::kString: w.value(std::string_view(v.string)); break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const JsonValue& e : v.array) write_canonical(w, e);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {  // std::map: sorted keys
        w.key(k);
        write_canonical(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string to_canonical_string(const JsonValue& v) {
  JsonWriter w;
  write_canonical(w, v);
  return w.str();
}

}  // namespace smt
