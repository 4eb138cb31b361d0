// Extending the shelf: registering a user-supplied kernel and driving
// it from a model -- "custom, user-supplied software ... components
// (application code, libraries, etc.)" in the paper's terms.
//
// The kernel below is a complex conjugate-multiply ("match filter"
// against a reference waveform scaled by a model parameter); nothing in
// the SAGE toolchain knows about it beyond its registered name.
//
// Build & run:  ./build/examples/custom_kernel
#include <complex>
#include <cstdio>

#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"

using namespace sage;
using Complex = std::complex<float>;

namespace {

/// out[i] = in[i] * conj(ref(i)) * gain, with a synthetic reference.
void match_filter(runtime::KernelContext& ctx) {
  const runtime::PortSlice& in = ctx.in("in");
  runtime::PortSlice& out = ctx.out("out");
  const auto gain = static_cast<float>(ctx.param_or("gain", 1.0));
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  for (std::size_t i = 0; i < src.size(); ++i) {
    // Reference waveform derived from the *global* element index so
    // every thread computes a consistent slice of the same filter.
    const auto g = in.global_of_local(i);
    const Complex ref(static_cast<float>((g % 7) + 1), 0.25f);
    dst[i] = src[i] * std::conj(ref) * gain;
  }
}

}  // namespace

int main() {
  constexpr std::size_t kN = 128;
  constexpr int kNodes = 2;

  auto ws = std::make_unique<model::Workspace>("custom");
  model::ModelObject& root = ws->root();
  model::add_cspi_platform(root, kNodes);
  model::ModelObject& app = model::add_application(root, "custom_chain");
  const std::vector<std::size_t> dims{kN, kN};

  model::ModelObject& src = model::add_function(app, "src", "matrix_source",
                                                kNodes);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  // The model references the custom kernel by name, like any shelf item.
  model::ModelObject& filter =
      model::add_function(app, "filter", "user.match_filter", kNodes);
  filter.set_property("param_gain", 2.0);
  model::add_port(filter, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);
  model::add_port(filter, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::ModelObject& sink = model::add_function(app, "sink", "matrix_sink",
                                                 kNodes);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);

  model::connect(app, "src.out", "filter.in");
  model::connect(app, "filter.out", "sink.in");
  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  for (const char* fn : {"src", "filter", "sink"}) {
    model::assign_ranks(root, mapping, fn, {0, 1});
  }

  core::Project project(std::move(ws));
  // Link the "function library": standard shelf + the user kernel.
  runtime::FunctionRegistry registry = runtime::standard_registry();
  // Registered without an OutputAccess, the kernel keeps zeroed private
  // outputs (read-modify-write). A kernel that writes every output byte
  // on every call may pass runtime::OutputAccess::kOverwrite, letting the
  // memory planner reuse its output staging (see memory_plan.hpp).
  registry.add("user.match_filter", match_filter);
  project.set_registry(std::move(registry));

  const runtime::RunStats stats = project.execute({.iterations = 2});
  std::printf("custom match filter over %zux%zu on %d nodes\n", kN, kN,
              kNodes);
  std::printf("mean latency %.3f ms; sink checksums:",
              stats.mean_latency() * 1e3);
  for (double v : stats.results.at("sink")) std::printf(" %.2f", v);
  std::printf("\n");

  // The generated glue references the kernel by name only:
  const std::string& cfg = project.generate().glue_config_text();
  const auto pos = cfg.find("user.match_filter");
  std::printf("glue.cfg binds it by name: ...%.60s...\n",
              cfg.c_str() + (pos == std::string::npos ? 0 : pos - 20));
  return 0;
}
