#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace sagebench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double reference_probe_ms() {
  constexpr int kRoundTrips = 30;
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // 1: the helper's move, 0: the caller's
  const double start = now_s();
  std::thread helper([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < kRoundTrips; ++i) {
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < kRoundTrips; ++i) {
      turn = 1;
      cv.notify_all();
      cv.wait(lock, [&] { return turn == 0; });
    }
  }
  helper.join();
  return (now_s() - start) * 1e3;
}

double probe_median_ms(int count) {
  reference_probe_ms();
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) samples.push_back(reference_probe_ms());
  return median(std::move(samples));
}

double speed_scale(double probe_ms, double handoff_share) {
  return 1.0 - handoff_share + handoff_share * kReferenceProbeMs / probe_ms;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double round_percentile(const std::vector<std::vector<double>>& rounds,
                        double q, std::size_t min_samples) {
  std::vector<double> per_round;
  std::vector<double> pooled;
  for (const std::vector<double>& round : rounds) {
    pooled.insert(pooled.end(), round.begin(), round.end());
    if (round.size() >= min_samples) per_round.push_back(percentile(round, q));
  }
  return per_round.empty() ? percentile(std::move(pooled), q)
                           : median(std::move(per_round));
}

std::vector<std::size_t> quietest_rounds(const std::vector<double>& probe_ms,
                                         const std::vector<std::size_t>& sizes,
                                         std::size_t min_samples,
                                         std::size_t keep_one_in) {
  std::vector<std::size_t> rounds;
  for (std::size_t r = 0; r < probe_ms.size(); ++r) {
    if (sizes[r] >= min_samples) rounds.push_back(r);
  }
  if (rounds.empty()) {
    for (std::size_t r = 0; r < probe_ms.size(); ++r) rounds.push_back(r);
  }
  std::stable_sort(rounds.begin(), rounds.end(), [&](std::size_t a, std::size_t b) {
    return probe_ms[a] < probe_ms[b];
  });
  rounds.resize((rounds.size() + keep_one_in - 1) / keep_one_in);
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

double failure_share(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

bool close_enough(double a, double b, double rel) {
  return std::isfinite(a) && std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

int Tracer::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s();
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after `index` as well.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 &&
        static_cast<std::size_t>(span.parent) < spans.size()) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += self[i];
  }
  return totals;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace sagebench
