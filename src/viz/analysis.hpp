// openSAGE -- Visualizer analyses.
//
// "The Visualizer allows the designer to configure the instrumentation
// probes to measure application performance, and search for problems in
// the system, such as bottlenecks or violated latency thresholds."
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "viz/trace.hpp"

namespace sage::viz {

/// Aggregated execution statistics for one function.
struct FunctionStats {
  std::string name;
  int function_id = -1;
  int invocations = 0;
  support::VirtualSeconds total_time = 0.0;
  support::VirtualSeconds max_time = 0.0;

  support::VirtualSeconds mean_time() const {
    return invocations > 0 ? total_time / invocations : 0.0;
  }
};

/// Busy-time share of one node over the traced interval.
struct NodeUtilization {
  int node = 0;
  support::VirtualSeconds busy = 0.0;
  support::VirtualSeconds span = 0.0;

  double utilization() const { return span > 0 ? busy / span : 0.0; }
};

/// One iteration's end-to-end latency (source start -> sink end).
struct IterationLatency {
  int iteration = 0;
  support::VirtualSeconds start_vt = 0.0;
  support::VirtualSeconds end_vt = 0.0;

  support::VirtualSeconds latency() const { return end_vt - start_vt; }
};

/// Per-function aggregate (from paired function start/end events).
std::vector<FunctionStats> function_stats(const Trace& trace);

/// The bottleneck: the function with the largest total busy time, or
/// std::nullopt when the trace carries no paired function events (e.g.
/// a marker- or fault-only trace).
std::optional<FunctionStats> bottleneck(const Trace& trace);

/// Busy/span per node. Busy time is the union of that node's function
/// execution intervals: overlapping per-thread intervals are merged
/// before summing, so utilization never exceeds 1.0 on multi-threaded
/// nodes.
std::vector<NodeUtilization> node_utilization(const Trace& trace);

/// Latency of each iteration, from iteration start/end markers.
std::vector<IterationLatency> iteration_latencies(const Trace& trace);

/// Iterations whose latency exceeds the threshold.
std::vector<IterationLatency> latency_violations(
    const Trace& trace, support::VirtualSeconds threshold);

/// Mean time between consecutive iteration completions (the paper's
/// "period"); 0 when fewer than two iterations were traced.
support::VirtualSeconds mean_period(const Trace& trace);

/// Total bytes moved through the fabric, from send events.
std::uint64_t total_transfer_bytes(const Trace& trace);

/// Aggregated traffic of one logical buffer (fabric sends + local
/// buffer copies, grouped by the buffer's label).
struct TransferStats {
  std::string label;
  int fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  int local_copies = 0;
  std::uint64_t local_bytes = 0;
  support::VirtualSeconds total_time = 0.0;  // send + copy busy time
};

/// Per-buffer traffic breakdown, ordered by total bytes descending --
/// the Visualizer view for spotting communication hot spots.
std::vector<TransferStats> transfer_stats(const Trace& trace);

/// ASCII timeline: one row per node, time bucketed into `columns` cells,
/// '#' busy / '.' idle -- the terminal stand-in for the Visualizer GUI.
std::string ascii_timeline(const Trace& trace, int columns = 72);

}  // namespace sage::viz
