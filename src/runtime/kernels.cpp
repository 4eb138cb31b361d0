// Standard shelf kernels: the leaf behaviours the benchmark and example
// applications reference from their models. They call the same ISSPL
// primitives the hand-coded benchmark versions call.
#include <complex>
#include <map>
#include <memory>
#include <mutex>

#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "isspl/vector_ops.hpp"
#include "runtime/registry.hpp"
#include "support/error.hpp"

namespace sage::runtime {

namespace {

using Complex = std::complex<float>;

/// Process-wide FFT plan cache (plans are immutable after construction
/// and safe to execute concurrently).
const isspl::FftPlan& cached_plan(std::size_t n, isspl::FftDirection dir) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, int>,
                  std::unique_ptr<isspl::FftPlan>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(n, static_cast<int>(dir));
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<isspl::FftPlan>(n, dir)).first;
  }
  return *it->second;
}

void expect_2d(const PortSlice& slice, const char* who) {
  SAGE_CHECK_AS(RuntimeError, slice.local_dims.size() == 2,
                who, ": port '", slice.name, "' must be 2-D, has ",
                slice.local_dims.size(), " dims");
}

/// Line-oriented kernels treat an n-D block as (product of outer dims)
/// lines of (last dim) elements.
struct Lines {
  std::size_t count;
  std::size_t length;
};

Lines lines_of(const PortSlice& slice, const char* who) {
  SAGE_CHECK_AS(RuntimeError, !slice.local_dims.empty(), who, ": port '",
                slice.name, "' has no dims");
  Lines lines{1, slice.local_dims.back()};
  for (std::size_t i = 0; i + 1 < slice.local_dims.size(); ++i) {
    lines.count *= slice.local_dims[i];
  }
  return lines;
}

void kernel_matrix_source(KernelContext& ctx) {
  PortSlice& out = ctx.out("out");
  auto data = out.as<Complex>();
  // Walk the striping runs directly: global_of_local() rescans the run
  // list per element, which dominates the fill on large blocks.
  const int iter = ctx.iteration();
  std::size_t local = 0;
  for (const Run& run : out.runs) {
    for (std::size_t k = 0; k < run.length; ++k) {
      data[local++] = test_pattern(run.global_offset + k, iter);
    }
  }
  SAGE_CHECK_AS(RuntimeError, local == data.size(),
                "matrix_source: runs cover ", local, " of ", data.size(),
                " elements");
}

void kernel_matrix_sink(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  ctx.set_result(block_checksum(in.as<Complex>()));
}

void kernel_identity(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  SAGE_CHECK_AS(RuntimeError, in.data.size() == out.data.size(),
                "identity: size mismatch");
  std::copy(in.data.begin(), in.data.end(), out.data.begin());
}

void kernel_fft_rows(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const Lines lines = lines_of(in, "fft_rows");
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  SAGE_CHECK_AS(RuntimeError, src.size() == dst.size(),
                "fft_rows: size mismatch");
  cached_plan(lines.length, isspl::FftDirection::kForward)
      .execute_rows(src, dst, lines.count);
}

void kernel_ifft_rows(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const Lines lines = lines_of(in, "ifft_rows");
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  SAGE_CHECK_AS(RuntimeError, src.size() == dst.size(),
                "ifft_rows: size mismatch");
  cached_plan(lines.length, isspl::FftDirection::kInverse)
      .execute_rows(src, dst, lines.count);
}

/// Local half of a corner turn: the in-port is striped along dim 1, so
/// the thread-local block is rows x chunk (this thread's columns); the
/// transpose makes it chunk x rows -- this thread's rows of the globally
/// transposed matrix (out-port striped along dim 0 of transposed dims).
void kernel_corner_turn_local(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  expect_2d(in, "corner_turn_local");
  const std::size_t rows = in.local_dims[0];
  const std::size_t chunk = in.local_dims[1];
  SAGE_CHECK_AS(RuntimeError,
                out.local_dims.size() == 2 && out.local_dims[0] == chunk &&
                    out.local_dims[1] == rows,
                "corner_turn_local: out block must be transposed in block");
  isspl::transpose(in.as<Complex>(), out.as<Complex>(), rows, chunk);
}

void kernel_magnitude(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  isspl::vmag(in.as<Complex>(), out.as<float>());
}

void kernel_window_rows(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const Lines lines = lines_of(in, "window_rows");
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  std::copy(src.begin(), src.end(), dst.begin());
  // Window selection by parameter: 0 rect, 1 hann, 2 hamming, 3 blackman.
  const auto which = static_cast<int>(ctx.param_or("window", 1));
  const auto window =
      isspl::make_window(static_cast<isspl::Window>(which), lines.length);
  for (std::size_t r = 0; r < lines.count; ++r) {
    isspl::apply_window(dst.subspan(r * lines.length, lines.length), window);
  }
}

void kernel_threshold(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const auto cutoff = static_cast<float>(ctx.param_or("cutoff", 0.5));
  auto src = in.as<float>();
  auto dst = out.as<float>();
  SAGE_CHECK_AS(RuntimeError, src.size() == dst.size(),
                "threshold: size mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i] >= cutoff ? src[i] : 0.0f;
  }
}

void kernel_fir_rows(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const Lines lines = lines_of(in, "fir_rows");
  const auto ntaps = static_cast<std::size_t>(ctx.param_or("taps", 8));
  // Simple boxcar taps; a real design would pull them from the model.
  std::vector<float> taps(ntaps, 1.0f / static_cast<float>(ntaps));
  auto src = in.as<float>();
  auto dst = out.as<float>();
  for (std::size_t r = 0; r < lines.count; ++r) {
    isspl::fir(src.subspan(r * lines.length, lines.length), taps,
               dst.subspan(r * lines.length, lines.length));
  }
}

/// Cell-averaging CFAR detector along lines: a cell is declared a
/// detection when it exceeds `scale` times the mean of the training
/// cells around it (`train` cells each side, separated by `guard`
/// cells). Detections keep their value, everything else becomes zero.
void kernel_cfar_rows(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const Lines lines = lines_of(in, "cfar_rows");
  const auto train = static_cast<std::ptrdiff_t>(ctx.param_or("train", 8));
  const auto guard = static_cast<std::ptrdiff_t>(ctx.param_or("guard", 2));
  const auto scale = static_cast<float>(ctx.param_or("scale", 4.0));
  SAGE_CHECK_AS(RuntimeError, train >= 1 && guard >= 0,
                "cfar_rows: need train >= 1, guard >= 0");
  auto src = in.as<float>();
  auto dst = out.as<float>();
  SAGE_CHECK_AS(RuntimeError, src.size() == dst.size(),
                "cfar_rows: size mismatch");

  const auto n = static_cast<std::ptrdiff_t>(lines.length);
  for (std::size_t r = 0; r < lines.count; ++r) {
    const float* line = src.data() + r * lines.length;
    float* detections = dst.data() + r * lines.length;
    for (std::ptrdiff_t c = 0; c < n; ++c) {
      double noise = 0.0;
      int cells = 0;
      for (std::ptrdiff_t offset = guard + 1; offset <= guard + train;
           ++offset) {
        if (c - offset >= 0) {
          noise += line[c - offset];
          ++cells;
        }
        if (c + offset < n) {
          noise += line[c + offset];
          ++cells;
        }
      }
      const float threshold =
          cells > 0 ? scale * static_cast<float>(noise / cells) : 0.0f;
      detections[c] = line[c] > threshold ? line[c] : 0.0f;
    }
  }
}

/// Batched transpose: swaps the last two dims of an n-D block (one
/// dense transpose per outer index). The STAP chain uses it to make the
/// pulse axis contiguous for Doppler FFTs.
void kernel_transpose_batch(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  SAGE_CHECK_AS(RuntimeError, in.local_dims.size() >= 2,
                "transpose_batch: need >= 2 dims");
  const std::size_t rows = in.local_dims[in.local_dims.size() - 2];
  const std::size_t cols = in.local_dims.back();
  std::size_t outer = 1;
  for (std::size_t i = 0; i + 2 < in.local_dims.size(); ++i) {
    outer *= in.local_dims[i];
  }
  SAGE_CHECK_AS(RuntimeError,
                out.local_dims.size() == in.local_dims.size() &&
                    out.local_dims[out.local_dims.size() - 2] == cols &&
                    out.local_dims.back() == rows,
                "transpose_batch: out dims must swap the last two in dims");
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  const std::size_t plane = rows * cols;
  for (std::size_t o = 0; o < outer; ++o) {
    isspl::transpose(src.subspan(o * plane, plane),
                     dst.subspan(o * plane, plane), rows, cols);
  }
}

/// Collapses the first (outer) dimension by accumulating power:
/// out[i] = sum over d0 of |in[d0, i]|^2. Beamforming-style channel
/// combination for the STAP chain.
void kernel_power_sum_outer(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  SAGE_CHECK_AS(RuntimeError, in.local_dims.size() >= 2,
                "power_sum_outer: need >= 2 dims");
  const std::size_t channels = in.local_dims[0];
  std::size_t inner = 1;
  for (std::size_t i = 1; i < in.local_dims.size(); ++i) {
    inner *= in.local_dims[i];
  }
  auto src = in.as<Complex>();
  auto dst = out.as<float>();
  SAGE_CHECK_AS(RuntimeError, dst.size() == inner,
                "power_sum_outer: out must drop the first dim");
  std::fill(dst.begin(), dst.end(), 0.0f);
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t i = 0; i < inner; ++i) {
      dst[i] += std::norm(src[ch * inner + i]);
    }
  }
}

void kernel_float_source(KernelContext& ctx) {
  PortSlice& out = ctx.out("out");
  auto data = out.as<float>();
  const int iter = ctx.iteration();
  std::size_t local = 0;
  for (const Run& run : out.runs) {
    for (std::size_t k = 0; k < run.length; ++k) {
      data[local++] = test_pattern(run.global_offset + k, iter).real();
    }
  }
  SAGE_CHECK_AS(RuntimeError, local == data.size(),
                "float_source: runs cover ", local, " of ", data.size(),
                " elements");
}

void kernel_float_sink(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  double acc = 0.0;
  for (float v : in.as<float>()) acc += v;
  ctx.set_result(acc);
}

void kernel_scale(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  PortSlice& out = ctx.out("out");
  const auto factor = static_cast<float>(ctx.param_or("factor", 1.0));
  auto src = in.as<Complex>();
  auto dst = out.as<Complex>();
  SAGE_CHECK_AS(RuntimeError, src.size() == dst.size(),
                "scale: size mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] * factor;
}

}  // namespace

FunctionRegistry standard_registry() {
  // Every shelf kernel writes its whole output (power_sum_outer zero-
  // fills before accumulating), so none needs zeroed staging.
  constexpr OutputAccess kOverwrite = OutputAccess::kOverwrite;
  FunctionRegistry registry;
  registry.add("matrix_source", kernel_matrix_source, kOverwrite);
  registry.add("matrix_sink", kernel_matrix_sink, kOverwrite);
  registry.add("float_source", kernel_float_source, kOverwrite);
  registry.add("float_sink", kernel_float_sink, kOverwrite);
  registry.add("identity", kernel_identity, kOverwrite);
  registry.add("isspl.fft_rows", kernel_fft_rows, kOverwrite);
  registry.add("isspl.ifft_rows", kernel_ifft_rows, kOverwrite);
  registry.add("isspl.corner_turn_local", kernel_corner_turn_local, kOverwrite);
  registry.add("isspl.magnitude", kernel_magnitude, kOverwrite);
  registry.add("isspl.window_rows", kernel_window_rows, kOverwrite);
  registry.add("isspl.threshold", kernel_threshold, kOverwrite);
  registry.add("isspl.fir_rows", kernel_fir_rows, kOverwrite);
  registry.add("isspl.scale", kernel_scale, kOverwrite);
  registry.add("isspl.transpose_batch", kernel_transpose_batch, kOverwrite);
  registry.add("isspl.power_sum_outer", kernel_power_sum_outer, kOverwrite);
  registry.add("isspl.cfar_rows", kernel_cfar_rows, kOverwrite);
  return registry;
}

}  // namespace sage::runtime
