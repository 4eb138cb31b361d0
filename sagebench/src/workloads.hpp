// sagebench -- the four workloads. Each drives only openSAGE's public
// API, checks every result it gets back, and reports the end-to-end
// metrics plus the per-layer numbers it can read from returned stats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace sagebench {

struct WorkloadOptions {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Stop after the timed set-up (the cold path up to the first timed
  /// operation); the result carries only setup_s.
  bool setup_only = false;
};

/// Mean-per-sample accumulator for per-layer numbers.
class LayerLog {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  /// Overwrites: for exact counts that are the same on every sample.
  void set(const std::string& name, const std::string& unit, double value);
  Metrics means() const;

 private:
  struct Acc {
    double sum = 0.0;
    std::uint64_t count = 0;
    std::string unit;
  };
  std::map<std::string, Acc> acc_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (checksum mismatches, exceptions,
  /// sheds, Response::error strings).
  std::vector<std::string> failures;
  /// Every end-to-end metric (see BENCHMARK.json), or only setup_s in
  /// set-up-only mode. Wall-clock timings here are scaled to the
  /// reference host speed (see reference_probe_ms()).
  Metrics end_to_end;
  /// The same wall-clock timings as measured, before scaling.
  Metrics raw;
  /// The scaled latency_p90_ms and its sample count. Printed, and a
  /// per-layer metric of the traced run, but not an end-to-end metric:
  /// on a shared host a wall-clock tail spreads past any bound the
  /// benchmark may set (see README.md).
  Metrics tail;
  /// Per-layer numbers read from returned stats and artifacts.
  LayerLog layers;

  void fail(const std::string& what);
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
Outcome run_workload(const WorkloadOptions& options, Tracer& tracer);

}  // namespace sagebench
