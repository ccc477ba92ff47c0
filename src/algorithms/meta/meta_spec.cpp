#include "algorithms/meta/meta_spec.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace msol::algorithms::meta {

bool operator==(const MetaSpec& a, const MetaSpec& b) {
  return a.kind == b.kind && a.members == b.members &&
         a.horizon == b.horizon && a.window == b.window &&
         a.hysteresis == b.hysteresis;
}

namespace {

[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("meta spec '" + text + "': " + why);
}

[[noreturn]] void fail_clause(const std::string& text,
                              const std::string& clause, std::size_t offset,
                              const std::string& why) {
  throw std::invalid_argument("meta spec '" + text + "': clause '" + clause +
                              "' (offset " + std::to_string(offset) +
                              "): " + why);
}

/// Strict full-string integer parse; every meta clause lands in an int
/// field, so values outside int's range are rejected rather than wrapped.
int parse_int_strict(const std::string& token, const std::string& text,
                     const std::string& clause, std::size_t offset) {
  std::int64_t v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    fail_clause(text, clause, offset, "bad integer '" + token + "'");
  }
  if (v > std::numeric_limits<int>::max() ||
      v < std::numeric_limits<int>::min()) {
    fail_clause(text, clause, offset,
                "integer '" + token + "' out of range (max " +
                    std::to_string(std::numeric_limits<int>::max()) + ")");
  }
  return static_cast<int>(v);
}

bool is_meta_key(const std::string& clause, std::string& key,
                 std::string& value) {
  const std::size_t colon = clause.find(':');
  if (colon == std::string::npos) return false;
  key = clause.substr(0, colon);
  value = clause.substr(colon + 1);
  return key == "horizon" || key == "window" || key == "hyst";
}

}  // namespace

bool is_meta_spec(const std::string& text) {
  return text.rfind("portfolio:", 0) == 0 || text.rfind("hedge:", 0) == 0;
}

MetaSpec parse_meta_spec(const std::string& text, int lookahead,
                         std::uint64_t seed) {
  MetaSpec spec;
  std::size_t body_begin = 0;
  if (text.rfind("portfolio:", 0) == 0) {
    spec.kind = MetaKind::kPortfolio;
    body_begin = 10;
  } else if (text.rfind("hedge:", 0) == 0) {
    spec.kind = MetaKind::kHedge;
    body_begin = 6;
  } else {
    fail(text, "expected portfolio: or hedge: prefix");
  }

  // Strip meta clauses off the tail, rightmost first: `horizon:` /
  // `window:` / `hyst:` are not base-grammar keys, so the first non-meta
  // tail clause ends the meta section and the rest belongs to the members.
  std::string body = text.substr(body_begin);
  bool saw_horizon = false, saw_window = false, saw_hyst = false;
  while (true) {
    const std::size_t plus = body.rfind('+');
    if (plus == std::string::npos) break;
    const std::string clause = body.substr(plus + 1);
    std::string key, value;
    if (!is_meta_key(clause, key, value)) break;
    const std::size_t offset = body_begin + plus + 1;
    const bool for_portfolio = key == "horizon";
    if (for_portfolio != (spec.kind == MetaKind::kPortfolio)) {
      fail_clause(text, clause, offset,
                  key + ": only valid for " +
                      (for_portfolio ? std::string("portfolio:")
                                     : std::string("hedge:")));
    }
    const int v = parse_int_strict(value, text, clause, offset);
    if (key == "horizon") {
      if (saw_horizon) fail_clause(text, clause, offset, "duplicate clause");
      if (v < 1) fail_clause(text, clause, offset, "horizon must be >= 1");
      spec.horizon = v;
      saw_horizon = true;
    } else if (key == "window") {
      if (saw_window) fail_clause(text, clause, offset, "duplicate clause");
      if (v < 2) fail_clause(text, clause, offset, "window must be >= 2");
      spec.window = v;
      saw_window = true;
    } else {
      if (saw_hyst) fail_clause(text, clause, offset, "duplicate clause");
      if (v < 1) fail_clause(text, clause, offset, "hyst must be >= 1");
      spec.hysteresis = v;
      saw_hyst = true;
    }
    body.resize(plus);
  }

  // The remainder is the `;`-separated member list, each in the base
  // grammar (or a legacy registry name).
  std::size_t begin = 0;
  int index = 0;
  while (begin <= body.size()) {
    const std::size_t end = body.find(';', begin);
    const std::string member =
        body.substr(begin, end == std::string::npos ? std::string::npos
                                                    : end - begin);
    if (member.empty()) {
      fail(text, "member " + std::to_string(index) + " is empty");
    }
    if (is_meta_spec(member)) {
      fail(text, "member " + std::to_string(index) +
                     ": meta specs cannot nest");
    }
    try {
      spec.members.push_back(parse_policy_spec(member, lookahead, seed));
    } catch (const std::invalid_argument& error) {
      fail(text,
           "member " + std::to_string(index) + ": " + error.what());
    }
    ++index;
    if (end == std::string::npos) break;
    begin = end + 1;
  }

  if (spec.kind == MetaKind::kPortfolio && spec.members.size() < 2) {
    fail(text, "portfolio needs at least 2 member specs");
  }
  if (spec.kind == MetaKind::kHedge && spec.members.size() != 2) {
    fail(text, "hedge needs exactly 2 member specs (calm; stressed)");
  }
  return spec;
}

std::string to_string(const MetaSpec& spec) {
  std::string out =
      spec.kind == MetaKind::kPortfolio ? "portfolio:" : "hedge:";
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    if (i > 0) out += ';';
    out += algorithms::to_string(spec.members[i]);
  }
  if (spec.kind == MetaKind::kPortfolio) {
    out += "+horizon:" + std::to_string(spec.horizon);
  } else {
    out += "+window:" + std::to_string(spec.window);
    out += "+hyst:" + std::to_string(spec.hysteresis);
  }
  return out;
}

}  // namespace msol::algorithms::meta
