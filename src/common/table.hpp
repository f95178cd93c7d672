// Plain-text table printer used by the benchmark harness to emit the
// paper-style rows (and a machine-readable CSV next to them).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace rfs {

/// Collects rows of string cells and renders an aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row, padding missing trailing cells with empty ones, so
  /// every row is as wide as the header. Aborts on a row wider than the
  /// header: a cell without a column is a bug in the bench.
  void row(std::vector<std::string> cells);

  /// Formats helpers for numeric cells.
  static std::string num(double v, int precision = 2);
  static std::string us(double nanoseconds, int precision = 2);   // ns -> "x.xx us"
  static std::string ms(double nanoseconds, int precision = 2);   // ns -> "x.xx ms"

  /// Renders the aligned table to `out` (defaults to stdout).
  void print(std::FILE* out = stdout) const;

  /// Renders comma-separated values (header + rows) to `out`.
  void print_csv(std::FILE* out = stdout) const;

  /// Renders {"columns": [...], "rows": [[...], ...]} to `out`; cells are
  /// emitted as JSON strings (they carry formatted units).
  void print_json(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rfs
