#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace msol::util {

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  bool digit_seen = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit_seen = true;
    } else if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+' &&
               c != 'x' && c != '%') {
      return false;
    }
  }
  return digit_seen;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      const bool right = align_numeric && looks_numeric(row[c]);
      if (c > 0) out << "  ";
      if (right) out << std::string(pad, ' ') << row[c];
      else out << row[c] << std::string(pad, ' ');
    }
    out << '\n';
  };
  emit(header_, false);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c > 0 ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row, true);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string fmt_exact(double value) {
  if (!std::isfinite(value)) {  // "inf"/"-inf"/"nan"; never round-trips
    std::ostringstream out;
    out << value;
    return out.str();
  }
  // "%.*g" is how iostreams format the default floatfield at a given
  // precision, so this prints what `os.precision(p); os << value` would,
  // without building a stream per attempt.
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    // strtod, not stod: stod throws out_of_range on subnormal input, and a
    // tiny-but-valid metric value must not abort a whole run mid-output.
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  return std::to_string(value);  // unreachable: precision 17 round-trips
}

}  // namespace msol::util
