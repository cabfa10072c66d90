// Minimal fixed-column text table the bench/ printers and xhybrid_cli use
// to print paper-style tables (e.g. Table 1).
#pragma once

#include <string>
#include <vector>

namespace xh {

/// Accumulates rows of strings and renders them with aligned columns.
class TextTable {
 public:
  /// Creates a table with the given header row.
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; it may have at most as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a separator line under the header.
  std::string render() const;

  /// Formats a double with @p digits decimal places.
  static std::string num(double value, int digits = 2);

  /// Formats a count in millions with two decimals, e.g. "1515.15M".
  static std::string millions(double value);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace xh
