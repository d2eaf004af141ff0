// Small file helpers shared by the artifact writers and readers (run
// reports, Chrome traces, sweep indexes, cache objects): whole-file text
// input and output with directory creation, the one JSON-artifact loader
// of the tools, and collision-free mapping of registry keys to filename
// fragments.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"

namespace smt {

/// The whole content of `path`, or std::nullopt when it cannot be opened
/// or read. Logs nothing: callers decide whether a missing file is an
/// error, and how to report it.
std::optional<std::string> read_text_file(const std::string& path);

/// The JSON object stored at `path`; std::nullopt when the file cannot be
/// read (logged as "cannot read", *unreadable set: an I/O failure for
/// every caller) or is not a JSON object (unlogged: each tool words that
/// finding itself).
std::optional<JsonValue> read_json_object(const std::string& path,
                                          bool* unreadable);

/// read_json_object, then `check`: std::nullopt unless it finds nothing.
/// A file that is not a JSON object, or that `check` rejects, is logged
/// as `what` with its path and the finding.
std::optional<JsonValue> read_valid_json(
    const std::string& path, const char* what,
    std::optional<std::string> (*check)(const JsonValue&), bool* unreadable);

/// Writes `content` to `path`, creating missing parent directories first.
/// Returns false — after logging the reason to stderr — if the directory
/// cannot be created or the file cannot be written.
bool write_text_file(const std::string& path, std::string_view content);

/// Turns an artifact registry key into a safe filename fragment:
/// characters outside [A-Za-z0-9._-] are replaced with '_'. Distinct keys
/// always map to distinct fragments — whenever any character had to be
/// replaced, a short hash of the raw key is appended, so keys that would
/// otherwise collapse onto the same name (e.g. "a/b" and "a_b") stay
/// distinguishable. Keys that are already clean are returned verbatim
/// (existing artifact filenames are unchanged).
std::string sanitize_artifact_key(const std::string& key);

}  // namespace smt
