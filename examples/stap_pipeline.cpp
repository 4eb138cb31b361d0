// Space-Time Adaptive Processing (STAP)-style chain over a 3-D data
// cube -- the workload family the embedded-HPC community of the paper's
// era benchmarked (see the MITRE/Rome Labs references).
//
//   cube[channels][pulses][range]
//     -> range FFT        (pulse compression, striped along pulses)
//     -> cube re-stripe   (pulses -> range, a 3-D corner turn done
//                          entirely by port striping declarations)
//     -> batched transpose (make the pulse axis contiguous per channel)
//     -> Doppler FFT      (along pulses)
//     -> channel power sum (collapse the channel dimension)
//     -> detection map sink
//
// Demonstrates n-dimensional striping: the cube is striped along its
// *middle* dimension, redistributed along the last one, and the channel
// dimension stays node-local throughout.
//
// Build & run:  ./build/examples/stap_pipeline
#include <cstdio>

#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "viz/exporters.hpp"

using namespace sage;

namespace {

constexpr std::size_t kChannels = 4;
constexpr std::size_t kPulses = 128;
constexpr std::size_t kRange = 256;
constexpr int kNodes = 4;

}  // namespace

int main() {
  auto workspace = std::make_unique<model::Workspace>("stap");
  model::ModelObject& root = workspace->root();
  model::add_cspi_platform(root, kNodes);

  model::ModelObject& app = model::add_application(root, "stap_chain");
  const std::vector<std::size_t> cube{kChannels, kPulses, kRange};
  const std::vector<std::size_t> turned{kChannels, kRange, kPulses};
  const std::vector<std::size_t> map2d{kRange, kPulses};

  auto striped_fn = [&](const char* name, const char* kernel,
                        const std::vector<std::size_t>& in_dims,
                        int in_stripe, const std::vector<std::size_t>& out_dims,
                        int out_stripe, const char* in_type = "cfloat",
                        const char* out_type = "cfloat",
                        double work = 0.0) -> model::ModelObject& {
    model::ModelObject& fn =
        model::add_function(app, name, kernel, kNodes, work);
    model::add_port(fn, "in", model::PortDirection::kIn,
                    model::Striping::kStriped, in_type, in_dims, in_stripe);
    model::add_port(fn, "out", model::PortDirection::kOut,
                    model::Striping::kStriped, out_type, out_dims,
                    out_stripe);
    return fn;
  };

  model::ModelObject& src =
      model::add_function(app, "cube_source", "matrix_source", kNodes);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", cube, 1);

  // Pulse compression: FFT along range; the cube stays striped by pulses.
  striped_fn("range_fft", "isspl.fft_rows", cube, 1, cube, 1, "cfloat",
             "cfloat",
             static_cast<double>(kChannels * kPulses * kRange) * 10.0);

  // The 3-D corner turn happens on this arc: range_fft.out is striped
  // along pulses (dim 1), transpose_batch.in along range (dim 2).
  striped_fn("pulse_to_range", "isspl.transpose_batch", cube, 2, turned, 1,
             "cfloat", "cfloat",
             static_cast<double>(kChannels * kPulses * kRange));

  striped_fn("doppler_fft", "isspl.fft_rows", turned, 1, turned, 1, "cfloat",
             "cfloat",
             static_cast<double>(kChannels * kPulses * kRange) * 10.0);

  striped_fn("beamform", "isspl.power_sum_outer", turned, 1, map2d, 0,
             "cfloat", "float",
             static_cast<double>(kChannels * kPulses * kRange) * 2.0);

  model::ModelObject& sink =
      model::add_function(app, "detection_map", "float_sink", kNodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "float", map2d, 0);

  model::connect(app, "cube_source.out", "range_fft.in");
  model::connect(app, "range_fft.out", "pulse_to_range.in");
  model::connect(app, "pulse_to_range.out", "doppler_fft.in");
  model::connect(app, "doppler_fft.out", "beamform.in");
  model::connect(app, "beamform.out", "detection_map.in");

  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  std::vector<int> ranks;
  for (int r = 0; r < kNodes; ++r) ranks.push_back(r);
  for (const char* fn : {"cube_source", "range_fft", "pulse_to_range",
                         "doppler_fft", "beamform", "detection_map"}) {
    model::assign_ranks(root, mapping, fn, ranks);
  }

  core::Project project(std::move(workspace));
  runtime::ExecuteOptions options;
  options.iterations = 3;
  const runtime::RunStats stats = project.execute(options);

  std::printf("STAP chain: %zu channels x %zu pulses x %zu range gates on "
              "%d nodes\n",
              kChannels, kPulses, kRange, kNodes);
  std::printf("mean latency %.3f ms, period %.3f ms (virtual)\n",
              stats.mean_latency() * 1e3, stats.period * 1e3);
  std::printf("detection-map energy per iteration:");
  for (double v : stats.results.at("detection_map")) std::printf(" %.3e", v);
  std::printf("\n\n%s", viz::report(stats.trace, stats.metrics).c_str());
  return 0;
}
