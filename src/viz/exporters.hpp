// openSAGE -- Visualizer exporters: the formats the observability layer
// speaks to the outside world.
//
//   - Chrome trace JSON lives on Trace::to_chrome_json() (timeline
//     viewers);
//   - prometheus_text() is the Prometheus text exposition format v0.0.4
//     (scrapers and offline diffing);
//   - metrics_csv() is a flat spreadsheet-friendly dump;
//   - report() is the human summary the paper's Visualizer GUI stood
//     for: bottleneck, node utilization, latency violations, fabric hot
//     links, and fault/recovery counters in one page.
#pragma once

#include <string>

#include "viz/analysis.hpp"
#include "viz/metrics.hpp"
#include "viz/trace.hpp"

namespace sage::viz {

/// Prometheus text exposition: one `# HELP`/`# TYPE` header per family,
/// one sample line per series (histograms expand to _bucket/_sum/_count).
/// Numbers are written with max_digits10 precision so exports diff
/// cleanly.
std::string prometheus_text(const MetricsSnapshot& metrics);

/// Flat CSV: name,labels,kind,field,value -- histograms emit one row per
/// bucket (`le:<bound>`) plus `sum` and `count` rows.
std::string metrics_csv(const MetricsSnapshot& metrics);

struct ReportOptions {
  /// Latency threshold for the violation section; 0 disables it.
  support::VirtualSeconds latency_threshold = 0.0;
  /// Columns of the ASCII timeline; 0 omits the timeline.
  int timeline_columns = 72;
  /// At most this many fabric links in the hot-link table.
  int max_links = 8;
};

/// Human-readable observability report over one run: bottleneck, node
/// utilization, iteration latencies and threshold violations, per-buffer
/// traffic, fabric hot links, and the fault/recovery summary. Degenerate traces (no
/// function events, no iterations) degrade to explanatory lines instead
/// of crashing.
std::string report(const Trace& trace, const MetricsSnapshot& metrics,
                   const ReportOptions& options = {});

}  // namespace sage::viz
