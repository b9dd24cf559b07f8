#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace bcop::util {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void AsciiTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("AsciiTable: row arity mismatch");
  rows_.push_back(std::move(row));
}

namespace {
bool is_numeric(const std::string& s) {
  if (s.empty()) return false;
  double v;
  const auto* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  return ec == std::errc() && p == end;
}
}  // namespace

std::string AsciiTable::render() const {
  const std::size_t ncol = header_.size();
  std::vector<std::size_t> width(ncol);
  std::vector<bool> right(ncol, true);
  for (std::size_t c = 0; c < ncol; ++c) {
    width[c] = header_[c].size();
    bool any = false;
    for (const auto& r : rows_) {
      width[c] = std::max(width[c], r[c].size());
      if (!r[c].empty()) {
        any = true;
        if (!is_numeric(r[c])) right[c] = false;
      }
    }
    if (!any) right[c] = false;
  }
  auto sep = [&] {
    std::string s = "+";
    for (std::size_t c = 0; c < ncol; ++c) s += std::string(width[c] + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& r, bool align_right_ok) {
    std::string s = "|";
    for (std::size_t c = 0; c < ncol; ++c) {
      const std::string& cell = r[c];
      const std::size_t pad = width[c] - cell.size();
      s += ' ';
      if (align_right_ok && right[c])
        s.append(pad, ' ').append(cell);
      else
        s.append(cell).append(pad, ' ');
      s += " |";
    }
    return s + "\n";
  };
  std::string out = sep() + line(header_, false) + sep();
  for (const auto& r : rows_) out += line(r, true);
  out += sep();
  return out;
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace bcop::util
