// Range-Doppler radar processing chain -- the class of real-time
// application the paper's introduction motivates (radar / signal
// processing on COTS multicomputers).
//
//   pulses -> window -> range FFT -> corner turn -> Doppler FFT
//          -> magnitude -> threshold -> detections
//
// The corner turn between the range and Doppler FFTs is expressed purely
// as port striping (rows in, columns out), exactly like the Table-1
// benchmark; the magnitude stage switches the data type from complex to
// float mid-pipeline.
//
// Build & run:  ./build/examples/radar_pipeline
#include <cstdio>

#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "viz/analysis.hpp"
#include "viz/exporters.hpp"

using namespace sage;

namespace {

constexpr std::size_t kPulses = 256;   // rows: one pulse per row
constexpr std::size_t kRange = 512;    // range gates per pulse
constexpr int kNodes = 8;

model::ModelObject& add_stage(model::ModelObject& app, const char* name,
                              const char* kernel, const char* in_type,
                              const char* out_type,
                              std::vector<std::size_t> in_dims,
                              std::vector<std::size_t> out_dims,
                              int in_stripe_dim = 0, int out_stripe_dim = 0,
                              double work = 0.0) {
  model::ModelObject& fn = model::add_function(app, name, kernel, kNodes, work);
  model::add_port(fn, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, in_type, std::move(in_dims),
                  in_stripe_dim);
  model::add_port(fn, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, out_type, std::move(out_dims),
                  out_stripe_dim);
  return fn;
}

}  // namespace

int main() {
  auto workspace = std::make_unique<model::Workspace>("radar");
  model::ModelObject& root = workspace->root();
  model::add_cspi_platform(root, kNodes);

  model::ModelObject& app = model::add_application(root, "range_doppler");
  const std::vector<std::size_t> cube{kPulses, kRange};      // pulse-major
  const std::vector<std::size_t> turned{kRange, kPulses};    // range-major

  model::ModelObject& src =
      model::add_function(app, "pulses", "matrix_source", kNodes);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", cube, 0);

  model::ModelObject& window =
      add_stage(app, "window", "isspl.window_rows", "cfloat", "cfloat", cube,
                cube, 0, 0, kPulses * kRange * 2.0);
  window.set_property("param_window", 2.0);  // Hamming

  add_stage(app, "range_fft", "isspl.fft_rows", "cfloat", "cfloat", cube,
            cube, 0, 0, kPulses * kRange * 10.0);

  // Corner turn: consume columns (range gates across pulses), emit the
  // turned cube striped by rows again.
  add_stage(app, "corner_turn", "isspl.corner_turn_local", "cfloat", "cfloat",
            cube, turned, /*in_stripe_dim=*/1, /*out_stripe_dim=*/0,
            kPulses * kRange * 1.0);

  add_stage(app, "doppler_fft", "isspl.fft_rows", "cfloat", "cfloat", turned,
            turned, 0, 0, kPulses * kRange * 10.0);

  add_stage(app, "magnitude", "isspl.magnitude", "cfloat", "float", turned,
            turned, 0, 0, kPulses * kRange * 2.0);

  model::ModelObject& threshold =
      add_stage(app, "threshold", "isspl.threshold", "float", "float", turned,
                turned, 0, 0, kPulses * kRange * 1.0);
  threshold.set_property("param_cutoff", 40.0);  // detection cutoff

  model::ModelObject& sink =
      model::add_function(app, "detections", "float_sink", kNodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "float", turned, 0);

  model::connect(app, "pulses.out", "window.in");
  model::connect(app, "window.out", "range_fft.in");
  model::connect(app, "range_fft.out", "corner_turn.in");
  model::connect(app, "corner_turn.out", "doppler_fft.in");
  model::connect(app, "doppler_fft.out", "magnitude.in");
  model::connect(app, "magnitude.out", "threshold.in");
  model::connect(app, "threshold.out", "detections.in");

  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  std::vector<int> ranks;
  for (int r = 0; r < kNodes; ++r) ranks.push_back(r);
  for (const char* fn : {"pulses", "window", "range_fft", "corner_turn",
                         "doppler_fft", "magnitude", "threshold",
                         "detections"}) {
    model::assign_ranks(root, mapping, fn, ranks);
  }

  core::Project project(std::move(workspace));
  runtime::ExecuteOptions options;
  options.iterations = 3;
  const runtime::RunStats stats = project.execute(options);

  std::printf("range-doppler chain: %zu pulses x %zu range gates on %d nodes\n",
              kPulses, kRange, kNodes);
  std::printf("mean latency %.3f ms, period %.3f ms (virtual)\n",
              stats.mean_latency() * 1e3, stats.period * 1e3);
  std::printf("post-threshold energy per iteration:");
  for (double v : stats.results.at("detections")) std::printf(" %.1f", v);
  std::printf("\n\n%s", viz::report(stats.trace, stats.metrics).c_str());

  // The Visualizer's bottleneck finder, as the paper describes using it.
  if (const auto bn = viz::bottleneck(stats.trace)) {
    std::printf("\nbottleneck stage: %s (%.3f ms total)\n", bn->name.c_str(),
                bn->total_time * 1e3);
  }
  return 0;
}
