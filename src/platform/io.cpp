#include "platform/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace msol::platform {

std::string serialize(const Platform& platform) {
  std::ostringstream out;
  write(out, platform);
  return out.str();
}

void write(std::ostream& os, const Platform& platform) {
  os << "# msol platform: one slave per line, columns are c_j p_j\n";
  os.precision(17);
  for (const SlaveSpec& s : platform.slaves()) {
    os << s.comm << ' ' << s.comp << '\n';
  }
}

Platform parse(const std::string& text) {
  std::istringstream in(text);
  return read(in);
}

namespace {

/// One whitespace-separated field as a number: the whole token must parse,
/// else the error names the token and its line.
double parse_field(const std::string& token, int line_no) {
  std::istringstream in(token);
  double value = 0.0;
  if (!(in >> value) || !in.eof()) {
    throw std::invalid_argument("platform line " + std::to_string(line_no) +
                                ": not a number '" + token + "'");
  }
  return value;
}

}  // namespace

Platform read(std::istream& is) {
  std::vector<SlaveSpec> slaves;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;  // blank or comment-only line
    SlaveSpec s;
    s.comm = parse_field(tokens[0], line_no);
    if (tokens.size() == 1) {
      throw std::invalid_argument("platform line " + std::to_string(line_no) +
                                  ": expected two columns (c_j p_j)");
    }
    s.comp = parse_field(tokens[1], line_no);
    if (tokens.size() > 2) {
      throw std::invalid_argument("platform line " + std::to_string(line_no) +
                                  ": trailing garbage '" + tokens[2] + "'");
    }
    slaves.push_back(s);
  }
  if (slaves.empty()) {
    throw std::invalid_argument("platform: no slaves found in input");
  }
  return Platform(std::move(slaves));  // re-validates positivity
}

}  // namespace msol::platform
