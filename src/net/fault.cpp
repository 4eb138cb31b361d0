#include "net/fault.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <iomanip>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace sage::net {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDelay: return "delay";
  }
  return "?";
}

bool FaultPlan::node_dead(int rank) const {
  return std::find(dead_nodes.begin(), dead_nodes.end(), rank) !=
         dead_nodes.end();
}

FaultOutcome FaultPlan::link_outcome(int src, int dst,
                                     std::uint64_t link_seq) const {
  FaultOutcome outcome;
  if (link_rules.empty()) return outcome;

  // Counter-mode draws: the generator state is a hash of (seed, src,
  // dst, link_seq), so the verdict does not depend on the host-time
  // order in which links are exercised. One draw is consumed per
  // probabilistic rule considered, keeping rules independent.
  std::uint64_t state = seed;
  state ^= 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(src + 1);
  state ^= 0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(dst + 1);
  state ^= 0x94D049BB133111EBull * (link_seq + 1);

  for (const LinkFaultRule& rule : link_rules) {
    if (rule.src != -1 && rule.src != src) continue;
    if (rule.dst != -1 && rule.dst != dst) continue;
    bool fire = false;
    if (rule.at_index >= 0) {
      fire = static_cast<std::uint64_t>(rule.at_index) == link_seq;
    }
    if (!fire && rule.probability > 0.0) {
      const std::uint64_t draw = support::splitmix64(state);
      const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
      fire = u < rule.probability;
    }
    if (!fire) continue;
    outcome.kind = rule.kind;
    outcome.delay_vt = rule.delay_vt;
    outcome.corrupt_bytes = rule.corrupt_bytes;
    outcome.draw = support::splitmix64(state);
    return outcome;
  }
  return outcome;
}

double FaultPlan::stall_vt(int node, int iteration) const {
  double total = 0.0;
  for (const StallRule& rule : stall_rules) {
    if (rule.node != -1 && rule.node != node) continue;
    if (rule.iteration != -1 && rule.iteration != iteration) continue;
    total += rule.stall_vt;
  }
  return total;
}

namespace {

// Bounds the text format enforces (docs/RUNTIME.md "Plan format"): a
// transfer gets at most 64 tries, a corruption flips at most 64 KiB,
// and every double is finite.
constexpr long long kMaxAttempts = 64;
constexpr long long kMaxCorruptBytes = 65536;
constexpr double kMaxDouble = std::numeric_limits<double>::max();

/// Parses the number `text` of field `field` on plan line `line`. Text
/// that is not a T, or a value outside [lo, hi], is a ConfigError
/// naming the line -- never a silent truncation into a narrower field.
template <typename T>
T plan_number(std::string_view text, T lo, T hi, int line,
              const char* field) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    raise<ConfigError>("fault plan line ", line, ": ", field, " '",
                       std::string(text), "' is not a number in [", lo,
                       ", ", hi, "]");
  }
  return value;
}

/// A node rank or iteration index.
int plan_index(std::string_view text, int line, const char* field) {
  return static_cast<int>(
      plan_number<long long>(text, 0, INT_MAX, line, field));
}

/// Parses "a->b" / "*" / "*->b" / "a->*" into (src, dst); -1 = any.
void parse_link(std::string_view spec, int line, int& src, int& dst) {
  src = dst = -1;
  if (spec == "*") return;
  const auto arrow = spec.find("->");
  SAGE_CHECK_AS(ConfigError, arrow != std::string_view::npos,
                "fault plan: bad link spec '", std::string(spec),
                "' (want 'src->dst' or '*')");
  const std::string_view a = spec.substr(0, arrow);
  const std::string_view b = spec.substr(arrow + 2);
  if (a != "*") src = plan_index(a, line, "link src");
  if (b != "*") dst = plan_index(b, line, "link dst");
}

/// Splits "key=value"; throws on missing '='.
std::pair<std::string, std::string> key_value(const std::string& token,
                                              int line) {
  const auto eq = token.find('=');
  SAGE_CHECK_AS(ConfigError, eq != std::string::npos, "fault plan line ",
                line, ": expected key=value, got '", token, "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  bool saw_header = false;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    std::string_view line = support::trim(raw);
    const auto hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = support::trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const std::vector<std::string> tokens = support::split_ws(line);
    const std::string& word = tokens[0];

    if (word == "fault-plan") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2 && tokens[1] == "1",
                    "fault plan line ", line_number,
                    ": unsupported version");
      saw_header = true;
      continue;
    }
    SAGE_CHECK_AS(ConfigError, saw_header, "fault plan line ", line_number,
                  ": missing 'fault-plan 1' header");

    if (word == "seed") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2, "fault plan line ",
                    line_number, ": seed wants one value");
      plan.seed = plan_number<std::uint64_t>(
          tokens[1], 0, std::numeric_limits<std::uint64_t>::max(),
          line_number, "seed");
    } else if (word == "detect-timeout") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2, "fault plan line ",
                    line_number, ": detect-timeout wants one value");
      plan.detect_timeout_vt =
          plan_number(tokens[1], 0.0, kMaxDouble, line_number,
                      "detect-timeout");
    } else if (word == "backoff") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2, "fault plan line ",
                    line_number, ": backoff wants one value");
      plan.backoff_factor =
          plan_number(tokens[1], 1.0, kMaxDouble, line_number, "backoff");
    } else if (word == "max-attempts") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2, "fault plan line ",
                    line_number, ": max-attempts wants one value");
      plan.max_attempts = static_cast<int>(plan_number<long long>(
          tokens[1], 1, kMaxAttempts, line_number, "max-attempts"));
    } else if (word == "drop" || word == "corrupt" || word == "delay") {
      LinkFaultRule rule;
      rule.kind = (word == "drop")      ? FaultKind::kDrop
                  : (word == "corrupt") ? FaultKind::kCorrupt
                                        : FaultKind::kDelay;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = key_value(tokens[i], line_number);
        if (key == "link") {
          parse_link(value, line_number, rule.src, rule.dst);
        } else if (key == "p") {
          rule.probability = plan_number(value, 0.0, 1.0, line_number, "p");
        } else if (key == "at") {
          rule.at_index = plan_number<std::int64_t>(
              value, 0, std::numeric_limits<std::int64_t>::max(),
              line_number, "at");
        } else if (key == "vt") {
          rule.delay_vt =
              plan_number(value, 0.0, kMaxDouble, line_number, "vt");
        } else if (key == "bytes") {
          rule.corrupt_bytes = static_cast<std::size_t>(plan_number<long long>(
              value, 1, kMaxCorruptBytes, line_number, "bytes"));
        } else {
          raise<ConfigError>("fault plan line ", line_number,
                             ": unknown field '", key, "'");
        }
      }
      SAGE_CHECK_AS(ConfigError,
                    rule.probability > 0 || rule.at_index >= 0,
                    "fault plan line ", line_number,
                    ": rule needs p=... or at=...");
      SAGE_CHECK_AS(ConfigError,
                    rule.kind != FaultKind::kDelay || rule.delay_vt > 0,
                    "fault plan line ", line_number,
                    ": delay rule needs vt=...");
      plan.link_rules.push_back(rule);
    } else if (word == "stall") {
      StallRule rule;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto [key, value] = key_value(tokens[i], line_number);
        if (key == "node") {
          rule.node =
              (value == "*") ? -1 : plan_index(value, line_number, "node");
        } else if (key == "iter") {
          rule.iteration =
              (value == "*") ? -1 : plan_index(value, line_number, "iter");
        } else if (key == "vt") {
          rule.stall_vt =
              plan_number(value, 0.0, kMaxDouble, line_number, "vt");
        } else {
          raise<ConfigError>("fault plan line ", line_number,
                             ": unknown field '", key, "'");
        }
      }
      SAGE_CHECK_AS(ConfigError, rule.stall_vt > 0, "fault plan line ",
                    line_number, ": stall rule needs vt=...");
      plan.stall_rules.push_back(rule);
    } else if (word == "dead") {
      SAGE_CHECK_AS(ConfigError, tokens.size() == 2, "fault plan line ",
                    line_number, ": dead wants node=<rank>");
      const auto [key, value] = key_value(tokens[1], line_number);
      SAGE_CHECK_AS(ConfigError, key == "node", "fault plan line ",
                    line_number, ": dead wants node=<rank>");
      plan.dead_nodes.push_back(plan_index(value, line_number, "node"));
    } else {
      raise<ConfigError>("fault plan line ", line_number,
                         ": unknown directive '", word, "'");
    }
  }
  SAGE_CHECK_AS(ConfigError, saw_header,
                "fault plan: missing 'fault-plan 1' header");
  return plan;
}

namespace {

std::string link_spec(int src, int dst) {
  if (src == -1 && dst == -1) return "*";
  std::ostringstream os;
  if (src == -1) {
    os << "*";
  } else {
    os << src;
  }
  os << "->";
  if (dst == -1) {
    os << "*";
  } else {
    os << dst;
  }
  return os.str();
}

}  // namespace

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "fault-plan 1\n";
  os << "seed " << seed << "\n";
  os << "detect-timeout " << detect_timeout_vt << "\n";
  os << "backoff " << backoff_factor << "\n";
  os << "max-attempts " << max_attempts << "\n";
  for (const LinkFaultRule& rule : link_rules) {
    os << to_string(rule.kind) << " link=" << link_spec(rule.src, rule.dst);
    if (rule.probability > 0) os << " p=" << rule.probability;
    if (rule.at_index >= 0) os << " at=" << rule.at_index;
    if (rule.kind == FaultKind::kDelay) os << " vt=" << rule.delay_vt;
    if (rule.kind == FaultKind::kCorrupt) {
      os << " bytes=" << rule.corrupt_bytes;
    }
    os << "\n";
  }
  for (const StallRule& rule : stall_rules) {
    os << "stall node=";
    if (rule.node == -1) {
      os << "*";
    } else {
      os << rule.node;
    }
    os << " iter=";
    if (rule.iteration == -1) {
      os << "*";
    } else {
      os << rule.iteration;
    }
    os << " vt=" << rule.stall_vt << "\n";
  }
  for (const int rank : dead_nodes) {
    os << "dead node=" << rank << "\n";
  }
  return os.str();
}

}  // namespace sage::net
