#include "core/workload_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace msol::core {

std::string serialize(const Workload& workload) {
  std::ostringstream out;
  write(out, workload);
  return out.str();
}

void write(std::ostream& os, const Workload& workload) {
  os << "# msol workload: release [comm_factor] [comp_factor]\n";
  os.precision(17);
  for (const TaskSpec& t : workload.tasks()) {
    os << t.release << ' ' << t.comm_factor << ' ' << t.comp_factor << '\n';
  }
}

Workload parse_workload(const std::string& text) {
  std::istringstream in(text);
  return read_workload(in);
}

namespace {

/// One whitespace-separated field as a number: the whole token must parse,
/// else the error names the token and its line.
double parse_field(const std::string& token, int line_no) {
  std::istringstream in(token);
  double value = 0.0;
  if (!(in >> value) || !in.eof()) {
    throw std::invalid_argument("workload line " + std::to_string(line_no) +
                                ": not a number '" + token + "'");
  }
  return value;
}

}  // namespace

Workload read_workload(std::istream& is) {
  std::vector<TaskSpec> tasks;
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
    TaskSpec t;
    double* const columns[] = {&t.release, &t.comm_factor, &t.comp_factor};
    for (std::size_t k = 0; k < tokens.size() && k < 3; ++k) {
      *columns[k] = parse_field(tokens[k], line_no);
    }
    if (tokens.size() > 3) {
      throw std::invalid_argument("workload line " + std::to_string(line_no) +
                                  ": trailing garbage '" + tokens[3] + "'");
    }
    if (tokens.size() == 2) {
      throw std::invalid_argument(
          "workload line " + std::to_string(line_no) +
          ": comm_factor given without comp_factor");
    }
    tasks.push_back(t);
  }
  return Workload(std::move(tasks));  // re-validates
}

}  // namespace msol::core
