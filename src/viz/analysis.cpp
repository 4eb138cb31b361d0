#include "viz/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::viz {

namespace {

/// Paired (start, end) interval of one function invocation.
struct Interval {
  int node;
  int function_id;
  std::string label;
  support::VirtualSeconds start;
  support::VirtualSeconds end;
};

/// Pairs kFunctionStart / kFunctionEnd events per (node, function,
/// thread, iteration).
std::vector<Interval> function_intervals(const Trace& trace) {
  std::vector<Interval> out;
  std::map<std::tuple<int, int, int, int>, Event> open;
  for (const Event& e : trace.events()) {
    const auto key = std::make_tuple(e.node, e.function_id, e.thread,
                                     e.iteration);
    if (e.kind == EventKind::kFunctionStart) {
      open[key] = e;
    } else if (e.kind == EventKind::kFunctionEnd) {
      auto it = open.find(key);
      if (it != open.end()) {
        out.push_back({e.node, e.function_id, e.label, it->second.start_vt,
                       e.start_vt});
        open.erase(it);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<FunctionStats> function_stats(const Trace& trace) {
  std::map<int, FunctionStats> by_id;
  for (const Interval& iv : function_intervals(trace)) {
    FunctionStats& stats = by_id[iv.function_id];
    stats.function_id = iv.function_id;
    stats.name = iv.label;
    ++stats.invocations;
    const double dt = iv.end - iv.start;
    stats.total_time += dt;
    stats.max_time = std::max(stats.max_time, dt);
  }
  std::vector<FunctionStats> out;
  out.reserve(by_id.size());
  for (auto& [id, stats] : by_id) out.push_back(std::move(stats));
  return out;
}

std::optional<FunctionStats> bottleneck(const Trace& trace) {
  const auto stats = function_stats(trace);
  if (stats.empty()) return std::nullopt;
  return *std::max_element(stats.begin(), stats.end(),
                           [](const FunctionStats& a, const FunctionStats& b) {
                             return a.total_time < b.total_time;
                           });
}

std::vector<NodeUtilization> node_utilization(const Trace& trace) {
  // Collect raw intervals per node, then take the union: threads of one
  // node execute concurrently, so summing their intervals directly
  // double-counts overlap and can report utilization > 1.0.
  std::map<int, std::vector<std::pair<double, double>>> by_node;
  double span_start = 0.0;
  double span_end = 0.0;
  bool any = false;
  for (const Interval& iv : function_intervals(trace)) {
    by_node[iv.node].emplace_back(iv.start, iv.end);
    if (!any || iv.start < span_start) span_start = iv.start;
    if (!any || iv.end > span_end) span_end = iv.end;
    any = true;
  }
  std::vector<NodeUtilization> out;
  for (auto& [node, intervals] : by_node) {
    std::sort(intervals.begin(), intervals.end());
    NodeUtilization u;
    u.node = node;
    u.span = span_end - span_start;
    double cur_start = 0.0;
    double cur_end = 0.0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= cur_end) {
        cur_end = std::max(cur_end, end);
      } else {
        if (open) u.busy += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
        open = true;
      }
    }
    if (open) u.busy += cur_end - cur_start;
    out.push_back(u);
  }
  return out;
}

std::vector<IterationLatency> iteration_latencies(const Trace& trace) {
  std::map<int, IterationLatency> by_iter;
  for (const Event& e : trace.events()) {
    if (e.kind == EventKind::kIterationStart) {
      auto it = by_iter.find(e.iteration);
      if (it == by_iter.end()) {
        by_iter[e.iteration] = {e.iteration, e.start_vt, e.start_vt};
      } else {
        it->second.start_vt = std::min(it->second.start_vt, e.start_vt);
      }
    } else if (e.kind == EventKind::kIterationEnd) {
      auto it = by_iter.find(e.iteration);
      if (it == by_iter.end()) {
        by_iter[e.iteration] = {e.iteration, e.start_vt, e.start_vt};
      } else {
        it->second.end_vt = std::max(it->second.end_vt, e.start_vt);
      }
    }
  }
  std::vector<IterationLatency> out;
  for (auto& [iter, lat] : by_iter) out.push_back(lat);
  return out;
}

std::vector<IterationLatency> latency_violations(
    const Trace& trace, support::VirtualSeconds threshold) {
  std::vector<IterationLatency> out;
  for (const IterationLatency& lat : iteration_latencies(trace)) {
    if (lat.latency() > threshold) out.push_back(lat);
  }
  return out;
}

support::VirtualSeconds mean_period(const Trace& trace) {
  auto latencies = iteration_latencies(trace);
  if (latencies.size() < 2) return 0.0;
  std::sort(latencies.begin(), latencies.end(),
            [](const IterationLatency& a, const IterationLatency& b) {
              return a.iteration < b.iteration;
            });
  return (latencies.back().end_vt - latencies.front().end_vt) /
         static_cast<double>(latencies.size() - 1);
}

std::uint64_t total_transfer_bytes(const Trace& trace) {
  std::uint64_t total = 0;
  for (const Event& e : trace.events()) {
    if (e.kind == EventKind::kSend) total += e.bytes;
  }
  return total;
}

std::vector<TransferStats> transfer_stats(const Trace& trace) {
  std::map<std::string, TransferStats> by_label;
  for (const Event& e : trace.events()) {
    if (e.kind != EventKind::kSend && e.kind != EventKind::kBufferCopy) {
      continue;
    }
    TransferStats& stats = by_label[e.label];
    stats.label = e.label;
    stats.total_time += e.end_vt - e.start_vt;
    if (e.kind == EventKind::kSend) {
      ++stats.fabric_messages;
      stats.fabric_bytes += e.bytes;
    } else {
      ++stats.local_copies;
      stats.local_bytes += e.bytes;
    }
  }
  std::vector<TransferStats> out;
  out.reserve(by_label.size());
  for (auto& [label, stats] : by_label) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(),
            [](const TransferStats& a, const TransferStats& b) {
              return a.fabric_bytes + a.local_bytes >
                     b.fabric_bytes + b.local_bytes;
            });
  return out;
}

std::string ascii_timeline(const Trace& trace, int columns) {
  const auto intervals = function_intervals(trace);
  if (intervals.empty()) return "(empty trace)\n";

  double t0 = intervals.front().start;
  double t1 = intervals.front().end;
  int max_node = 0;
  for (const Interval& iv : intervals) {
    t0 = std::min(t0, iv.start);
    t1 = std::max(t1, iv.end);
    max_node = std::max(max_node, iv.node);
  }
  const double span = std::max(t1 - t0, 1e-12);

  std::vector<std::string> rows(static_cast<std::size_t>(max_node) + 1,
                                std::string(static_cast<std::size_t>(columns), '.'));
  for (const Interval& iv : intervals) {
    int c0 = static_cast<int>((iv.start - t0) / span * columns);
    int c1 = static_cast<int>((iv.end - t0) / span * columns);
    c0 = std::clamp(c0, 0, columns - 1);
    c1 = std::clamp(c1, c0, columns - 1);
    for (int c = c0; c <= c1; ++c) {
      rows[static_cast<std::size_t>(iv.node)][static_cast<std::size_t>(c)] = '#';
    }
  }

  std::ostringstream os;
  os << "timeline over " << support::format_seconds(span) << " (virtual)\n";
  for (std::size_t n = 0; n < rows.size(); ++n) {
    os << "node " << n << " |" << rows[n] << "|\n";
  }
  return os.str();
}

}  // namespace sage::viz
