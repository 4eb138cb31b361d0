// openSAGE quickstart: the whole paper pipeline in one small program.
//
//  1. Capture an application + hardware + mapping design (the Designer).
//  2. Generate glue code from the model with the Alter generator.
//  3. Execute the generated configuration on the emulated platform.
//  4. Inspect the run with the Visualizer.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "model/shelf.hpp"
#include "viz/exporters.hpp"

using namespace sage;

int main() {
  // --- 1. Design capture ----------------------------------------------------
  auto workspace = std::make_unique<model::Workspace>("quickstart");
  model::ModelObject& root = workspace->root();

  // Hardware: one quad-PowerPC board from the hardware shelf idiom.
  model::add_cspi_platform(root, /*nodes=*/4);

  // Application: source -> row FFT -> sink on a 256x256 complex matrix,
  // every function running one thread per node.
  model::ModelObject& app = model::add_application(root, "quickstart_app");
  const std::vector<std::size_t> dims{256, 256};

  model::ModelObject& src = model::add_function(app, "src", "matrix_source",
                                                /*threads=*/4);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::ModelObject& fft =
      model::add_function(app, "fft", "isspl.fft_rows", 4, 256 * 256 * 10.0);
  model::add_port(fft, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);
  model::add_port(fft, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::ModelObject& sink = model::add_function(app, "sink", "matrix_sink", 4);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::connect(app, "src.out", "fft.in");
  model::connect(app, "fft.out", "sink.in");

  // Mapping: one thread of each function on each of the four nodes.
  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  for (const char* fn : {"src", "fft", "sink"}) {
    model::assign_ranks(root, mapping, fn, {0, 1, 2, 3});
  }

  // --- 2. Glue generation -----------------------------------------------------
  core::Project project(std::move(workspace));
  const codegen::GeneratedArtifacts& artifacts = project.generate();
  std::printf("=== generated glue.cfg (first lines) ===\n");
  const std::string& cfg = artifacts.glue_config_text();
  std::printf("%.*s...\n\n", 360, cfg.c_str());

  // --- 3. Execution -------------------------------------------------------------
  // A warm session keeps the emulated machine and all buffers alive, so
  // repeated runs only pay a per-run reset (the one-shot equivalent is
  // project.execute(options)).
  runtime::ExecuteOptions options;
  options.iterations = 4;
  auto session = project.open_session(options);
  const runtime::RunStats stats = session->run();
  std::printf("=== run ===\n");
  std::printf("iterations: %d, mean latency %.3f ms, period %.3f ms\n",
              stats.iterations, stats.mean_latency() * 1e3,
              stats.period * 1e3);
  const runtime::RunStats warm = session->run();
  std::printf("warm rerun: host %.3f ms (cold was %.3f ms)\n",
              warm.host_seconds * 1e3, stats.host_seconds * 1e3);
  std::printf("sink checksum (iteration 0): %.3f\n\n",
              stats.results.at("sink")[0]);

  // --- 4. Visualizer --------------------------------------------------------------
  std::printf("%s", viz::report(stats.trace, stats.metrics).c_str());
  return 0;
}
