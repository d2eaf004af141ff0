#include "common/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/log.h"

namespace smt {

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return std::nullopt;
  return text;
}

std::optional<JsonValue> read_json_object(const std::string& path,
                                          bool* unreadable) {
  const std::optional<std::string> text = read_text_file(path);
  *unreadable = !text.has_value();
  if (*unreadable) {
    log::error("cannot read", {{"path", path}});
    return std::nullopt;
  }
  std::optional<JsonValue> v = parse_json(*text);
  if (!v.has_value() || !v->is_object()) return std::nullopt;
  return v;
}

std::optional<JsonValue> read_valid_json(
    const std::string& path, const char* what,
    std::optional<std::string> (*check)(const JsonValue&), bool* unreadable) {
  std::optional<JsonValue> v = read_json_object(path, unreadable);
  if (*unreadable) return std::nullopt;
  const std::optional<std::string> finding =
      v.has_value() ? check(*v) : "does not parse as a JSON object";
  if (finding.has_value()) {
    log::error(what, {{"path", path}, {"finding", *finding}});
    return std::nullopt;
  }
  return v;
}

bool write_text_file(const std::string& path, std::string_view content) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create directory %s: %s\n",
                   parent.c_str(), ec.message().c_str());
      return false;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::string sanitize_artifact_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  bool replaced = false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) replaced = true;
    out += ok ? c : '_';
  }
  if (replaced) {
    // FNV-1a over the *raw* key: two distinct keys that sanitize to the
    // same string differ in at least one replaced character, so their
    // hashes (and thus their fragments) differ.
    uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    char suffix[12];
    std::snprintf(suffix, sizeof suffix, "-%08x",
                  static_cast<unsigned>(h ^ (h >> 32)));
    out += suffix;
  }
  return out;
}

}  // namespace smt
