#include "viz/exporters.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/strings.hpp"

namespace sage::viz {

namespace {

/// Full-precision, locale-independent number formatting shared by both
/// machine formats, so exports diff cleanly across runs and platforms.
std::string fmt(double value) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + prom_escape(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

/// `key=value;...` with escape() on values: a newline in a label must
/// not break the CSV rows.
std::string csv_labels(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ";";
    out += key + "=" + support::escape(value);
  }
  return out;
}

/// Label value of `key`, or "" when absent.
std::string label_of(const MetricValue& v, std::string_view key) {
  for (const auto& [k, value] : v.labels) {
    if (k == key) return value;
  }
  return "";
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& metrics) {
  // The exposition format requires all series of a family to be grouped
  // under one HELP/TYPE header; snapshots may interleave families (e.g.
  // the four per-link families are defined link by link), so group by
  // family in order of first appearance.
  std::vector<std::string_view> family_order;
  std::map<std::string_view, std::vector<const MetricValue*>> families;
  for (const MetricValue& v : metrics.series) {
    auto [it, inserted] = families.try_emplace(v.name);
    if (inserted) family_order.push_back(v.name);
    it->second.push_back(&v);
  }
  std::ostringstream os;
  for (const std::string_view family : family_order) {
    bool open = false;
    for (const MetricValue* vp : families[family]) {
      const MetricValue& v = *vp;
      if (!open) {
        open = true;
        if (!v.help.empty()) {
          os << "# HELP " << v.name << " " << v.help << "\n";
        }
        os << "# TYPE " << v.name << " " << to_string(v.kind) << "\n";
      }
      if (v.kind == MetricKind::kHistogram) {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < v.histogram.counts.size(); ++b) {
          cumulative += v.histogram.counts[b];
          const std::string le =
              b < v.histogram.bounds.size()
                  ? "le=\"" + fmt(v.histogram.bounds[b]) + "\""
                  : std::string("le=\"+Inf\"");
          os << v.name << "_bucket" << prom_labels(v.labels, le) << " "
             << cumulative << "\n";
        }
        os << v.name << "_sum" << prom_labels(v.labels) << " "
           << fmt(v.histogram.sum) << "\n";
        os << v.name << "_count" << prom_labels(v.labels) << " "
           << v.histogram.count << "\n";
      } else {
        os << v.name << prom_labels(v.labels) << " " << fmt(v.value) << "\n";
      }
    }
  }
  return os.str();
}

std::string metrics_csv(const MetricsSnapshot& metrics) {
  std::ostringstream os;
  os << "name,labels,kind,field,value\n";
  for (const MetricValue& v : metrics.series) {
    const std::string labels = csv_labels(v.labels);
    if (v.kind == MetricKind::kHistogram) {
      for (std::size_t b = 0; b < v.histogram.counts.size(); ++b) {
        const std::string le = b < v.histogram.bounds.size()
                                   ? "le:" + fmt(v.histogram.bounds[b])
                                   : std::string("le:+Inf");
        os << v.name << "," << labels << ",histogram," << le << ","
           << v.histogram.counts[b] << "\n";
      }
      os << v.name << "," << labels << ",histogram,sum,"
         << fmt(v.histogram.sum) << "\n";
      os << v.name << "," << labels << ",histogram,count,"
         << v.histogram.count << "\n";
    } else {
      os << v.name << "," << labels << "," << to_string(v.kind) << ",value,"
         << fmt(v.value) << "\n";
    }
  }
  return os.str();
}

std::string report(const Trace& trace, const MetricsSnapshot& metrics,
                   const ReportOptions& options) {
  std::ostringstream os;
  os << "=== SAGE observability report ===\n";

  // --- bottleneck and per-function load ------------------------------------
  const auto stats = function_stats(trace);
  if (const auto bn = bottleneck(trace)) {
    os << "bottleneck: " << bn->name << " ("
       << support::format_seconds(bn->total_time) << " total over "
       << bn->invocations << " calls)\n";
  } else {
    os << "bottleneck: (no function events traced)\n";
  }
  for (const FunctionStats& s : stats) {
    os << "  [" << s.function_id << "] " << s.name << ": " << s.invocations
       << " calls, total " << support::format_seconds(s.total_time)
       << ", mean " << support::format_seconds(s.mean_time()) << ", max "
       << support::format_seconds(s.max_time) << "\n";
  }

  // --- node utilization ----------------------------------------------------
  const auto util = node_utilization(trace);
  if (!util.empty()) {
    os << "node utilization:\n";
    for (const NodeUtilization& u : util) {
      os << "  node " << u.node << ": "
         << static_cast<int>(u.utilization() * 100) << "% ("
         << support::format_seconds(u.busy) << " busy of "
         << support::format_seconds(u.span) << ")\n";
    }
  }

  // --- latency and threshold violations ------------------------------------
  const auto latencies = iteration_latencies(trace);
  if (!latencies.empty()) {
    double mean = 0.0;
    for (const auto& lat : latencies) mean += lat.latency();
    mean /= static_cast<double>(latencies.size());
    os << "iterations: " << latencies.size() << ", mean latency "
       << support::format_seconds(mean) << ", period "
       << support::format_seconds(mean_period(trace)) << "\n";
    if (options.latency_threshold > 0.0) {
      const auto violations =
          latency_violations(trace, options.latency_threshold);
      os << "latency violations over "
         << support::format_seconds(options.latency_threshold) << ": "
         << violations.size() << "\n";
      for (const IterationLatency& v : violations) {
        os << "  iteration " << v.iteration << ": "
           << support::format_seconds(v.latency()) << "\n";
      }
    }
  } else {
    os << "iterations: none traced\n";
  }

  // --- per-buffer traffic (from the trace) ----------------------------------
  const auto transfers = transfer_stats(trace);
  if (!transfers.empty()) {
    os << "fabric bytes: "
       << support::format_bytes(total_transfer_bytes(trace)) << "\n";
    os << "buffers:\n";
    for (const TransferStats& t : transfers) {
      os << "  " << t.label << ": " << t.fabric_messages << " msgs ("
         << support::format_bytes(t.fabric_bytes) << " fabric), "
         << t.local_copies << " copies ("
         << support::format_bytes(t.local_bytes) << " local), "
         << support::format_seconds(t.total_time) << "\n";
    }
  }

  // --- fabric hot links (from the metrics registry) -------------------------
  std::vector<const MetricValue*> links;
  for (const MetricValue& v : metrics.series) {
    if (v.name == families::kLinkBytes && v.value > 0.0) links.push_back(&v);
  }
  // Stable: equal-byte links keep snapshot ((src, dst)) order, so the
  // report is deterministic.
  std::stable_sort(links.begin(), links.end(),
                   [](const MetricValue* a, const MetricValue* b) {
                     return a->value > b->value;
                   });
  if (!links.empty()) {
    os << "fabric links (by bytes):\n";
    int shown = 0;
    for (const MetricValue* link : links) {
      if (shown++ >= options.max_links) {
        os << "  ... " << links.size() - options.max_links << " more\n";
        break;
      }
      const std::string src = label_of(*link, "src");
      const std::string dst = label_of(*link, "dst");
      const auto labels = link->labels;
      const MetricValue* msgs = metrics.find(families::kLinkMessages, labels);
      const MetricValue* retx =
          metrics.find(families::kLinkRetransmits, labels);
      os << "  " << src << "->" << dst << ": "
         << support::format_bytes(static_cast<std::size_t>(link->value))
         << " in " << (msgs ? static_cast<std::uint64_t>(msgs->value) : 0)
         << " msgs";
      if (retx != nullptr && retx->value > 0.0) {
        os << ", " << static_cast<std::uint64_t>(retx->value)
           << " retransmits";
      }
      os << "\n";
    }
  }

  // --- program provenance: compile cost and plan-cache outcome --------------
  const MetricValue* compile = metrics.find(families::kProgramCompileSeconds);
  if (compile != nullptr && compile->value > 0.0) {
    os << "program: compiled in "
       << support::format_seconds(compile->value);
    const MetricValue* lookup = metrics.find(families::kPlanCacheLookups);
    if (lookup != nullptr) {
      os << " (plan cache: " << label_of(*lookup, "outcome") << ")";
    }
    os << "\n";
  }

  // --- data plane: copied vs moved bytes, buffer-pool health ----------------
  const MetricValue* copied = metrics.find(families::kDataBytesCopied);
  const MetricValue* moved = metrics.find(families::kDataBytesMoved);
  if ((copied != nullptr && copied->value > 0.0) ||
      (moved != nullptr && moved->value > 0.0)) {
    const double copied_b = copied != nullptr ? copied->value : 0.0;
    const double moved_b = moved != nullptr ? moved->value : 0.0;
    const double total = copied_b + moved_b;
    os << "data plane: "
       << support::format_bytes(static_cast<std::size_t>(copied_b))
       << " copied, "
       << support::format_bytes(static_cast<std::size_t>(moved_b))
       << " moved by handle";
    if (total > 0.0) {
      os << " (" << static_cast<int>(moved_b / total * 100.0)
         << "% zero-copy)";
    }
    os << "\n";
    const MetricValue* hits = metrics.find(families::kPoolHits);
    const MetricValue* misses = metrics.find(families::kPoolMisses);
    const MetricValue* blocks = metrics.find(families::kPoolBlocks);
    if (hits != nullptr || misses != nullptr) {
      const double hit_n = hits != nullptr ? hits->value : 0.0;
      const double miss_n = misses != nullptr ? misses->value : 0.0;
      os << "buffer pool: " << static_cast<std::uint64_t>(hit_n) << " hits, "
         << static_cast<std::uint64_t>(miss_n) << " misses";
      if (blocks != nullptr && blocks->value > 0.0) {
        os << ", " << static_cast<std::uint64_t>(blocks->value) << " blocks";
      }
      if (miss_n == 0.0 && hit_n > 0.0) {
        os << " (steady state)";
      }
      os << "\n";
    }
  }

  // --- streaming: achieved period and per-stage occupancy -------------------
  // Only present once a pipeline is primed: the period gauge stays 0 for
  // synchronous runs and for the ticket that opened its epoch.
  const MetricValue* stream_period = metrics.find(families::kStreamPeriod);
  if (stream_period != nullptr && stream_period->value > 0.0) {
    os << "streaming: achieved period "
       << support::format_seconds(stream_period->value) << "\n";
    const MetricValue* busiest = nullptr;
    for (const MetricValue& v : metrics.series) {
      if (v.name != families::kStageOccupancy) continue;
      os << "  stage " << label_of(v, "function") << ": "
         << static_cast<int>(v.value * 100.0) << "% occupied\n";
      if (busiest == nullptr || v.value > busiest->value) busiest = &v;
    }
    if (busiest != nullptr && busiest->value > 0.0) {
      os << "  period set by " << label_of(*busiest, "function")
         << " (the stage nearest full occupancy)\n";
    }
  }

  // --- tuning: the online AToT loop -----------------------------------------
  // Present only when a runtime::Tuner snapshot was merged in (session
  // snapshots never define these families).
  bool tuned = false;
  double tune_steps = 0.0;
  double tune_swaps = 0.0;
  double tune_holds = 0.0;
  double tune_skips = 0.0;
  for (const MetricValue& v : metrics.series) {
    if (v.name != families::kTuneSteps) continue;
    tuned = true;
    tune_steps += v.value;
    const std::string outcome = label_of(v, "outcome");
    if (outcome == "swap") tune_swaps += v.value;
    if (outcome == "hold") tune_holds += v.value;
    if (outcome == "skip") tune_skips += v.value;
  }
  if (tuned) {
    os << "tuning: " << static_cast<std::uint64_t>(tune_steps) << " steps ("
       << static_cast<std::uint64_t>(tune_swaps) << " swaps, "
       << static_cast<std::uint64_t>(tune_holds) << " holds, "
       << static_cast<std::uint64_t>(tune_skips) << " skips)";
    const MetricValue* gain = metrics.find(families::kTunePredictedGain);
    if (gain != nullptr) {
      os << ", last predicted gain "
         << static_cast<int>(gain->value * 100.0) << "%";
    }
    const MetricValue* swap_cost = metrics.find(families::kTuneSwapSeconds);
    if (swap_cost != nullptr && swap_cost->value > 0.0) {
      os << ", " << support::format_seconds(swap_cost->value)
         << " host spent swapping";
    }
    os << "\n";
  }

  // --- serve: fleet admission / shed / latency ------------------------------
  // Present only for serve::Server snapshots (session snapshots never
  // define these families).
  const MetricValue* serve_completed = metrics.find(families::kServeCompleted);
  if (serve_completed != nullptr) {
    double serve_admitted = 0.0;
    double serve_shed = 0.0;
    for (const MetricValue& v : metrics.series) {
      if (v.name == families::kServeAdmitted) serve_admitted += v.value;
      if (v.name == families::kServeShed) serve_shed += v.value;
    }
    os << "serve: " << static_cast<std::uint64_t>(serve_admitted)
       << " admitted, " << static_cast<std::uint64_t>(serve_shed) << " shed, "
       << static_cast<std::uint64_t>(serve_completed->value) << " completed";
    const MetricValue* serve_errors = metrics.find(families::kServeErrors);
    if (serve_errors != nullptr && serve_errors->value > 0.0) {
      os << ", " << static_cast<std::uint64_t>(serve_errors->value)
         << " errors";
    }
    const MetricValue* serve_coalesced =
        metrics.find(families::kServeCoalesced);
    if (serve_coalesced != nullptr && serve_coalesced->value > 0.0) {
      os << " (" << static_cast<std::uint64_t>(serve_coalesced->value)
         << " coalesced onto streaming epochs)";
    }
    os << "\n";
    const MetricValue* serve_sessions =
        metrics.find(families::kServeSessions, {});
    const MetricValue* serve_queue = metrics.find(families::kServeQueueDepth);
    if (serve_sessions != nullptr || serve_queue != nullptr) {
      os << "  fleet: "
         << (serve_sessions != nullptr
                 ? static_cast<std::uint64_t>(serve_sessions->value)
                 : 0)
         << " warm sessions, peak queue depth "
         << (serve_queue != nullptr
                 ? static_cast<std::uint64_t>(serve_queue->value)
                 : 0)
         << "\n";
    }
    const MetricValue* serve_latency = metrics.find(families::kServeLatency);
    if (serve_latency != nullptr && serve_latency->histogram.count > 0) {
      os << "  latency: mean "
         << support::format_seconds(serve_latency->histogram.sum /
                                    static_cast<double>(
                                        serve_latency->histogram.count))
         << " over " << serve_latency->histogram.count << " requests\n";
    }
    // Per-tenant admission lines, in definition order.
    for (const MetricValue& v : metrics.series) {
      if (v.name != families::kServeAdmitted) continue;
      os << "  tenant " << label_of(v, "tenant") << ": "
         << static_cast<std::uint64_t>(v.value) << " admitted\n";
    }
  }

  // --- faults and recovery --------------------------------------------------
  double injected = 0.0;
  for (const MetricValue& v : metrics.series) {
    if (v.name == families::kFaultsInjected) injected += v.value;
  }
  const std::size_t fault_events = trace.events_of_kind(EventKind::kFault).size();
  const std::size_t retry_events = trace.events_of_kind(EventKind::kRetry).size();
  if (injected > 0.0 || fault_events > 0 || retry_events > 0) {
    os << "faults:";
    for (const MetricValue& v : metrics.series) {
      if (v.name == families::kFaultsInjected && v.value > 0.0) {
        os << " " << static_cast<std::uint64_t>(v.value) << " "
           << label_of(v, "kind");
      }
    }
    if (injected == 0.0 && fault_events > 0) {
      os << " " << fault_events << " observed";
    }
    const MetricValue* retries = metrics.find(families::kFaultRetries);
    if (retries != nullptr && retries->value > 0.0) {
      os << ", " << static_cast<std::uint64_t>(retries->value) << " retries";
    } else if (retry_events > 0) {
      os << ", " << retry_events << " retries";
    }
    const MetricValue* degraded = metrics.find(families::kDegradedNodes);
    if (degraded != nullptr && degraded->value > 0.0) {
      os << "; degraded (" << static_cast<int>(degraded->value)
         << " dead nodes)";
    }
    os << "\n";
  }
  for (const Event& e : trace.events_of_kind(EventKind::kRecovery)) {
    os << "recovery: " << e.label << "\n";
  }

  if (options.timeline_columns > 0) {
    os << ascii_timeline(trace, options.timeline_columns);
  }
  return os.str();
}

}  // namespace sage::viz
