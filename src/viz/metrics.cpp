#include "viz/metrics.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace sage::viz {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& v : series) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const MetricValue* MetricsSnapshot::find(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  for (const MetricValue& v : series) {
    if (v.name == name && v.labels == labels) return &v;
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::deterministic_subset() const {
  MetricsSnapshot out;
  for (const MetricValue& v : series) {
    if (!v.time_based) out.series.push_back(v);
  }
  return out;
}

int MetricsRegistry::define(MetricSpec spec) {
  SAGE_CHECK(!spec.name.empty(), "metric needs a name");
  SAGE_CHECK(!lookup(spec.name, spec.labels).has_value(),
             "metric '", spec.name, "' already defined with these labels");
  if (spec.kind == MetricKind::kHistogram) {
    SAGE_CHECK(!spec.buckets.empty(), "histogram '", spec.name,
               "' needs at least one bucket bound");
    SAGE_CHECK(std::is_sorted(spec.buckets.begin(), spec.buckets.end()) &&
                   std::adjacent_find(spec.buckets.begin(),
                                      spec.buckets.end()) == spec.buckets.end(),
               "histogram '", spec.name,
               "' bucket bounds must be strictly increasing");
  } else {
    SAGE_CHECK(spec.buckets.empty(), "metric '", spec.name,
               "' is not a histogram; buckets make no sense");
  }
  const int id = static_cast<int>(specs_.size());
  Cell cell;
  if (spec.kind == MetricKind::kHistogram) {
    cell.bucket_counts.assign(spec.buckets.size() + 1, 0);  // + Inf bucket
  }
  cells_.push_back(std::move(cell));
  specs_.push_back(std::move(spec));
  return id;
}

int MetricsRegistry::counter(
    std::string name, std::string help,
    std::vector<std::pair<std::string, std::string>> labels, bool time_based) {
  MetricSpec spec;
  spec.name = std::move(name);
  spec.help = std::move(help);
  spec.kind = MetricKind::kCounter;
  spec.labels = std::move(labels);
  spec.time_based = time_based;
  return define(std::move(spec));
}

int MetricsRegistry::gauge(
    std::string name, std::string help,
    std::vector<std::pair<std::string, std::string>> labels, bool time_based) {
  MetricSpec spec;
  spec.name = std::move(name);
  spec.help = std::move(help);
  spec.kind = MetricKind::kGauge;
  spec.labels = std::move(labels);
  spec.time_based = time_based;
  return define(std::move(spec));
}

int MetricsRegistry::histogram(
    std::string name, std::string help, std::vector<double> buckets,
    std::vector<std::pair<std::string, std::string>> labels, bool time_based) {
  MetricSpec spec;
  spec.name = std::move(name);
  spec.help = std::move(help);
  spec.kind = MetricKind::kHistogram;
  spec.labels = std::move(labels);
  spec.buckets = std::move(buckets);
  spec.time_based = time_based;
  return define(std::move(spec));
}

std::optional<int> MetricsRegistry::lookup(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name && specs_[i].labels == labels) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

void MetricsRegistry::add(int id, double delta) {
  cells_[static_cast<std::size_t>(id)].value += delta;
}

void MetricsRegistry::set(int id, double value) {
  cells_[static_cast<std::size_t>(id)].value = value;
}

void MetricsRegistry::observe(int id, double value) {
  const MetricSpec& spec = specs_[static_cast<std::size_t>(id)];
  Cell& cell = cells_[static_cast<std::size_t>(id)];
  const auto it =
      std::lower_bound(spec.buckets.begin(), spec.buckets.end(), value);
  ++cell.bucket_counts[static_cast<std::size_t>(
      it - spec.buckets.begin())];
  ++cell.count;
  cell.sum += value;
}

void MetricsRegistry::reset() {
  for (Cell& cell : cells_) {
    cell.value = 0.0;
    std::fill(cell.bucket_counts.begin(), cell.bucket_counts.end(), 0);
    cell.count = 0;
    cell.sum = 0.0;
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.series.reserve(specs_.size());
  for (std::size_t id = 0; id < specs_.size(); ++id) {
    const MetricSpec& spec = specs_[id];
    const Cell& cell = cells_[id];
    MetricValue v;
    v.name = spec.name;
    v.help = spec.help;
    v.kind = spec.kind;
    v.labels = spec.labels;
    v.time_based = spec.time_based;
    if (spec.kind == MetricKind::kHistogram) {
      v.histogram.bounds = spec.buckets;
      v.histogram.counts = cell.bucket_counts;
      v.histogram.count = cell.count;
      v.histogram.sum = cell.sum;
    } else {
      v.value = cell.value;
    }
    out.series.push_back(std::move(v));
  }
  return out;
}

}  // namespace sage::viz
