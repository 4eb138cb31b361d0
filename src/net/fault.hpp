// openSAGE -- deterministic fault injection for the emulated fabric.
//
// A FaultPlan is a seeded, declarative schedule of transport faults --
// link drops, message corruption, latency spikes, node stalls, and dead
// nodes -- that the Fabric consults on every send and the runtime
// consults at iteration boundaries. Every decision is a pure function
// of (plan, link endpoints, per-link message index) computed with
// counter-mode SplitMix64 draws, so a given seed + plan produces the
// same faults on every run regardless of host thread timing: failure
// behaviour is a testable property, not an accident.
//
// Virtual-time recovery parameters (detection timeout, retransmit
// backoff, attempt bound) live on the plan too, because they shape the
// deterministic retry counters the chaos tests pin.
//
// Text format (line-oriented, '#' comments):
//   fault-plan 1
//   seed 42
//   detect-timeout 1e-4          # modeled loss-detection timeout (vt s)
//   backoff 2.0                  # retransmit backoff multiplier
//   max-attempts 8               # per transfer, first try included; 1..64
//   drop link=0->1 p=0.25        # Bernoulli drop on one link
//   drop link=* at=3             # drop the 4th eligible message, every link
//   corrupt link=* p=0.1 bytes=8 # flip 8 payload bytes; 1..65536
//   delay link=2->0 p=0.5 vt=2e-3
//   stall node=1 iter=2 vt=0.01  # node 1 stalls 10ms at iteration 2
//   dead node=3                  # node 3 is down; run degraded
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sage::net {

/// What the plan decided for one message (or marked on a delivery).
enum class FaultKind : std::uint8_t { kNone, kDrop, kCorrupt, kDelay };

const char* to_string(FaultKind kind);

/// One link-level fault rule; rules are evaluated in declaration order
/// and the first rule that fires wins.
struct LinkFaultRule {
  int src = -1;  ///< Source rank; -1 matches any.
  int dst = -1;  ///< Destination rank; -1 matches any.
  FaultKind kind = FaultKind::kDrop;
  /// Per-message Bernoulli probability (0 disables the random trigger).
  double probability = 0.0;
  /// Fires exactly on this per-link eligible-message index (-1: off).
  std::int64_t at_index = -1;
  /// kDelay: extra arrival latency in virtual seconds.
  double delay_vt = 0.0;
  /// kCorrupt: number of payload bytes flipped.
  std::size_t corrupt_bytes = 1;
};

/// Modeled per-iteration hiccup of one emulated node.
struct StallRule {
  int node = -1;       ///< -1 matches every node.
  int iteration = -1;  ///< -1 matches every iteration.
  double stall_vt = 0.0;
};

/// The plan's verdict for one message attempt.
struct FaultOutcome {
  FaultKind kind = FaultKind::kNone;
  double delay_vt = 0.0;
  std::size_t corrupt_bytes = 0;
  /// Deterministic entropy for downstream choices (corruption offsets).
  std::uint64_t draw = 0;
};

class FaultPlan {
 public:
  std::uint64_t seed = 0x5A6E2000ull;  // matches support::Rng::kDefaultSeed
  /// Virtual seconds a receiver waits before declaring an attempt lost.
  double detect_timeout_vt = 1e-4;
  /// Backoff multiplier between retransmit attempts.
  double backoff_factor = 2.0;
  /// Attempt bound per transfer (first try included). Exceeding it is an
  /// unrecoverable link failure (sage::CommError).
  int max_attempts = 8;

  std::vector<LinkFaultRule> link_rules;
  std::vector<StallRule> stall_rules;
  std::vector<int> dead_nodes;

  /// True when any rule exists. An inactive (empty) plan attached to a
  /// session is contractually bit-identical to no plan at all.
  bool active() const {
    return !link_rules.empty() || !stall_rules.empty() || !dead_nodes.empty();
  }

  bool node_dead(int rank) const;

  /// Deterministic verdict for the `link_seq`-th fault-eligible message
  /// on (src, dst). Pure function of its arguments -- safe to call
  /// concurrently from every node thread.
  FaultOutcome link_outcome(int src, int dst, std::uint64_t link_seq) const;

  /// Total modeled stall (virtual seconds) for `node` entering
  /// `iteration`.
  double stall_vt(int node, int iteration) const;

  /// Parses the text format above; throws sage::ConfigError naming the
  /// line on malformed input or a value that does not fit its field.
  static FaultPlan parse(std::string_view text);

  /// Serializes to the text format (parse round-trips).
  std::string serialize() const;
};

}  // namespace sage::net
