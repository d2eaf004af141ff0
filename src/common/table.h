// Plain-text table formatting for the figure renderer.
//
// tools/smt_figures prints each figure/table of the paper as an aligned
// ASCII table (and optionally CSV); this keeps the output diffable and
// lets EXPERIMENTS.md quote rows verbatim.
#pragma once

#include <string>
#include <vector>

namespace smt {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with column alignment (first column left, rest right).
  std::string to_string() const;

  /// Renders as RFC-4180-ish CSV (no quoting of embedded commas needed for
  /// our numeric content; commas in cells are replaced by ';').
  std::string to_csv() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` decimals.
std::string fmt(double v, int prec = 2);

/// Formats a count with thousands separators (1234567 -> "1,234,567").
std::string fmt_count(uint64_t v);

/// Formats a large count in engineering style (e.g. "4.60e9" like Table 1's
/// "x10^9" column, or "12.3M").
std::string fmt_eng(double v, int prec = 2);

}  // namespace smt
