#include "util/cli.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace msol::util {

Cli::Cli(int argc, const char* const* argv) : Cli(argc, argv, {}) {}

Cli::Cli(int argc, const char* const* argv,
         const std::set<std::string>& value_keys) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (value_keys.count(arg) > 0) {
      // A declared value key must get one: silently degrading "--csv
      // --quiet" to a flag would send output to a file named "true".
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument("--" + arg + " expects a value");
      }
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects an integer, got '" +
                                it->second + "'");
  }
}

int Cli::get_int32(const std::string& key, int fallback) const {
  const std::int64_t value = get_int(key, fallback);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--" + key + " is out of range, got '" +
                                values_.at(key) + "'");
  }
  return static_cast<int>(value);
}

std::uint64_t Cli::get_uint64(const std::string& key,
                              std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // stoull silently wraps negatives ("-1" -> 2^64-1), so reject them first.
  if (it->second.empty() || it->second[0] == '-') {
    throw std::invalid_argument("--" + key +
                                " expects a non-negative integer, got '" +
                                it->second + "'");
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t value = std::stoull(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key +
                                " expects a non-negative integer, got '" +
                                it->second + "'");
  }
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    // stod stops at the first non-numeric character, so "0.5x" would parse
    // as 0.5; require full consumption and a finite value ("inf"/"nan" are
    // never meaningful knob settings), matching get_uint64's strictness.
    std::size_t pos = 0;
    const double value = std::stod(it->second, &pos);
    if (pos != it->second.size() || !std::isfinite(value)) {
      throw std::invalid_argument(it->second);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                it->second + "'");
  }
}

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace msol::util
