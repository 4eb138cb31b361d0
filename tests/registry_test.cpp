// Function-registry and standard-kernel tests: every shelf kernel is
// checked against a direct ISSPL reference computation.
#include <gtest/gtest.h>

#include <complex>
#include <numeric>

#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "isspl/vector_ops.hpp"
#include "runtime/registry.hpp"
#include "support/error.hpp"

namespace sage::runtime {
namespace {

using Complex = std::complex<float>;

/// Builds a kernel context with one in-port and one out-port over
/// caller-owned storage.
struct Harness {
  Harness(std::vector<std::size_t> in_dims, std::size_t in_elem,
          std::vector<std::size_t> out_dims, std::size_t out_elem)
      : ctx(0, 1, 0) {
    std::size_t in_total = 1;
    for (auto d : in_dims) in_total *= d;
    std::size_t out_total = 1;
    for (auto d : out_dims) out_total *= d;
    in_bytes.resize(in_total * in_elem);
    out_bytes.resize(out_total * out_elem);

    PortSlice in;
    in.name = "in";
    in.data = in_bytes;
    in.elem_bytes = in_elem;
    in.local_dims = in_dims;
    in.global_dims = in_dims;
    in.runs = {Run{0, in_total}};
    ctx.inputs.push_back(in);

    PortSlice out;
    out.name = "out";
    out.data = out_bytes;
    out.elem_bytes = out_elem;
    out.local_dims = out_dims;
    out.global_dims = out_dims;
    out.runs = {Run{0, out_total}};
    ctx.outputs.push_back(out);
  }

  std::vector<std::byte> in_bytes, out_bytes;
  KernelContext ctx;
};

TEST(RegistryTest, LookupAndErrors) {
  const FunctionRegistry registry = standard_registry();
  EXPECT_TRUE(registry.contains("isspl.fft_rows"));
  EXPECT_FALSE(registry.contains("bogus"));
  EXPECT_THROW(registry.lookup("bogus"), RuntimeError);
  EXPECT_GE(registry.names().size(), 10u);
  FunctionRegistry r2;
  EXPECT_THROW(r2.add("x", nullptr), RuntimeError);
}

TEST(RegistryTest, OutputAccessDefaultsToReadModifyWrite) {
  FunctionRegistry registry;
  registry.add("user.accumulate", [](KernelContext&) {});
  registry.add("user.fill", [](KernelContext&) {}, OutputAccess::kOverwrite);
  EXPECT_EQ(registry.access("user.accumulate"),
            OutputAccess::kReadModifyWrite);
  EXPECT_EQ(registry.access("user.fill"), OutputAccess::kOverwrite);
  EXPECT_THROW((void)registry.access("user.missing"), RuntimeError);

  // Every shelf kernel writes its whole output.
  const FunctionRegistry standard = standard_registry();
  for (const std::string& name : standard.names()) {
    EXPECT_EQ(standard.access(name), OutputAccess::kOverwrite) << name;
  }
}

TEST(RegistryTest, RearmResetsIterationAndResult) {
  KernelContext ctx(1, 2, 0);
  ctx.set_result(3.0);
  ctx.rearm(4);
  EXPECT_EQ(ctx.iteration(), 4);
  EXPECT_FALSE(ctx.has_result());
  EXPECT_EQ(ctx.thread(), 1);
  EXPECT_EQ(ctx.num_threads(), 2);
}

TEST(RegistryTest, TestPatternDeterministicAndIterationDependent) {
  EXPECT_EQ(test_pattern(5, 0), test_pattern(5, 0));
  EXPECT_NE(test_pattern(5, 0), test_pattern(5, 1));
  EXPECT_NE(test_pattern(5, 0), test_pattern(6, 0));
  const Complex v = test_pattern(123, 4);
  EXPECT_LE(std::abs(v.real()), 1.0f);
  EXPECT_LE(std::abs(v.imag()), 1.0f);
}

TEST(KernelTest, MatrixSourceFillsGlobalPattern) {
  Harness h({4, 4}, sizeof(Complex), {4, 4}, sizeof(Complex));
  h.ctx.inputs.clear();  // sources have no inputs
  standard_registry().lookup("matrix_source")(h.ctx);
  auto out = h.ctx.out("out").as<Complex>();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], test_pattern(i, 0));
  }
}

TEST(KernelTest, MatrixSinkReportsChecksum) {
  Harness h({2, 2}, sizeof(Complex), {2, 2}, sizeof(Complex));
  h.ctx.outputs.clear();
  auto in = h.ctx.inputs[0].as<Complex>();
  in[0] = {1, 2};
  in[1] = {3, 4};
  in[2] = {5, 6};
  in[3] = {7, 8};
  standard_registry().lookup("matrix_sink")(h.ctx);
  ASSERT_TRUE(h.ctx.has_result());
  EXPECT_DOUBLE_EQ(h.ctx.result(), 36.0);
}

TEST(KernelTest, FftRowsMatchesPlan) {
  constexpr std::size_t kRows = 4, kCols = 32;
  Harness h({kRows, kCols}, sizeof(Complex), {kRows, kCols}, sizeof(Complex));
  auto in = h.ctx.inputs[0].as<Complex>();
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = test_pattern(i, 0);

  std::vector<Complex> expected(in.begin(), in.end());
  isspl::FftPlan plan(kCols, isspl::FftDirection::kForward);
  plan.execute_rows(expected, kRows);

  standard_registry().lookup("isspl.fft_rows")(h.ctx);
  auto out = h.ctx.out("out").as<Complex>();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]) << i;
  }
}

TEST(KernelTest, IfftInvertsFft) {
  constexpr std::size_t kRows = 2, kCols = 16;
  Harness fwd({kRows, kCols}, sizeof(Complex), {kRows, kCols}, sizeof(Complex));
  auto in = fwd.ctx.inputs[0].as<Complex>();
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = test_pattern(i, 3);
  standard_registry().lookup("isspl.fft_rows")(fwd.ctx);

  Harness inv({kRows, kCols}, sizeof(Complex), {kRows, kCols}, sizeof(Complex));
  auto spectrum = fwd.ctx.out("out").as<Complex>();
  std::copy(spectrum.begin(), spectrum.end(),
            inv.ctx.inputs[0].as<Complex>().begin());
  standard_registry().lookup("isspl.ifft_rows")(inv.ctx);
  auto out = inv.ctx.out("out").as<Complex>();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i].real(), in[i].real(), 1e-4f);
    EXPECT_NEAR(out[i].imag(), in[i].imag(), 1e-4f);
  }
}

TEST(KernelTest, CornerTurnLocalTransposesBlock) {
  constexpr std::size_t kRows = 6, kChunk = 3;
  Harness h({kRows, kChunk}, sizeof(Complex), {kChunk, kRows},
            sizeof(Complex));
  auto in = h.ctx.inputs[0].as<Complex>();
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Complex(static_cast<float>(i), 0);
  }
  standard_registry().lookup("isspl.corner_turn_local")(h.ctx);
  auto out = h.ctx.out("out").as<Complex>();
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kChunk; ++c) {
      EXPECT_EQ(out[c * kRows + r], in[r * kChunk + c]);
    }
  }
}

TEST(KernelTest, CornerTurnRejectsWrongOutShape) {
  Harness h({4, 2}, sizeof(Complex), {4, 2}, sizeof(Complex));  // not swapped
  EXPECT_THROW(standard_registry().lookup("isspl.corner_turn_local")(h.ctx),
               RuntimeError);
}

TEST(KernelTest, MagnitudeConvertsTypes) {
  Harness h({1, 4}, sizeof(Complex), {1, 4}, sizeof(float));
  auto in = h.ctx.inputs[0].as<Complex>();
  in[0] = {3, 4};
  in[3] = {0, -2};
  standard_registry().lookup("isspl.magnitude")(h.ctx);
  auto out = h.ctx.out("out").as<float>();
  EXPECT_NEAR(out[0], 5.0f, 1e-6f);
  EXPECT_NEAR(out[3], 2.0f, 1e-6f);
}

TEST(KernelTest, WindowRowsUsesParameter) {
  constexpr std::size_t kCols = 8;
  Harness h({1, kCols}, sizeof(Complex), {1, kCols}, sizeof(Complex));
  auto in = h.ctx.inputs[0].as<Complex>();
  for (auto& v : in) v = Complex(1, 0);
  h.ctx.params["window"] = 1;  // Hann
  standard_registry().lookup("isspl.window_rows")(h.ctx);
  auto out = h.ctx.out("out").as<Complex>();
  const auto hann = isspl::make_window(isspl::Window::kHann, kCols);
  for (std::size_t i = 0; i < kCols; ++i) {
    EXPECT_NEAR(out[i].real(), hann[i], 1e-6f);
  }
}

TEST(KernelTest, ThresholdCutsBelowCutoff) {
  Harness h({1, 4}, sizeof(float), {1, 4}, sizeof(float));
  auto in = h.ctx.inputs[0].as<float>();
  in[0] = 0.1f;
  in[1] = 0.6f;
  in[2] = 0.5f;
  in[3] = -1.0f;
  h.ctx.params["cutoff"] = 0.5;
  standard_registry().lookup("isspl.threshold")(h.ctx);
  auto out = h.ctx.out("out").as<float>();
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.6f);
  EXPECT_EQ(out[2], 0.5f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(KernelTest, FirRowsMatchesIssplFir) {
  constexpr std::size_t kRows = 2, kCols = 16;
  Harness h({kRows, kCols}, sizeof(float), {kRows, kCols}, sizeof(float));
  auto in = h.ctx.inputs[0].as<float>();
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i % 5);
  }
  h.ctx.params["taps"] = 4;
  standard_registry().lookup("isspl.fir_rows")(h.ctx);

  const std::vector<float> taps(4, 0.25f);
  std::vector<float> expected(in.size());
  for (std::size_t r = 0; r < kRows; ++r) {
    isspl::fir(std::span<const float>(in).subspan(r * kCols, kCols), taps,
               std::span<float>(expected).subspan(r * kCols, kCols));
  }
  auto out = h.ctx.out("out").as<float>();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-5f) << i;
  }
}

TEST(KernelTest, CfarDetectsIsolatedPeak) {
  constexpr std::size_t kCols = 64;
  Harness h({1, kCols}, sizeof(float), {1, kCols}, sizeof(float));
  auto in = h.ctx.inputs[0].as<float>();
  for (auto& v : in) v = 1.0f;  // uniform noise floor
  in[30] = 50.0f;               // strong target
  h.ctx.params["train"] = 4;
  h.ctx.params["guard"] = 1;
  h.ctx.params["scale"] = 4.0;
  standard_registry().lookup("isspl.cfar_rows")(h.ctx);
  auto out = h.ctx.out("out").as<float>();
  EXPECT_EQ(out[30], 50.0f);  // the peak survives
  for (std::size_t c = 0; c < kCols; ++c) {
    if (c != 30) {
      EXPECT_EQ(out[c], 0.0f) << "cell " << c;
    }
  }
}

TEST(KernelTest, CfarMasksPeakNextToStrongerInterference) {
  constexpr std::size_t kCols = 32;
  Harness h({1, kCols}, sizeof(float), {1, kCols}, sizeof(float));
  auto in = h.ctx.inputs[0].as<float>();
  for (auto& v : in) v = 1.0f;
  in[10] = 100.0f;  // interference inside the training window of cell 12
  in[12] = 5.0f;    // would be a detection in clean noise
  h.ctx.params["train"] = 4;
  h.ctx.params["guard"] = 1;
  h.ctx.params["scale"] = 3.0;
  standard_registry().lookup("isspl.cfar_rows")(h.ctx);
  auto out = h.ctx.out("out").as<float>();
  EXPECT_EQ(out[12], 0.0f);   // masked by the raised noise estimate
  EXPECT_GT(out[10], 0.0f);   // the interferer itself still detects
}

TEST(KernelTest, TransposeBatchSwapsLastTwoDims) {
  constexpr std::size_t kOuter = 3, kRows = 4, kCols = 2;
  Harness h({kOuter, kRows, kCols}, sizeof(Complex),
            {kOuter, kCols, kRows}, sizeof(Complex));
  auto in = h.ctx.inputs[0].as<Complex>();
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Complex(static_cast<float>(i), 0);
  }
  standard_registry().lookup("isspl.transpose_batch")(h.ctx);
  auto out = h.ctx.out("out").as<Complex>();
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < kCols; ++c) {
        EXPECT_EQ(out[o * kRows * kCols + c * kRows + r],
                  in[o * kRows * kCols + r * kCols + c]);
      }
    }
  }
}

TEST(KernelTest, PowerSumOuterCollapsesChannels) {
  constexpr std::size_t kChannels = 3, kInner = 4;
  Harness h({kChannels, kInner}, sizeof(Complex), {kInner}, sizeof(float));
  auto in = h.ctx.inputs[0].as<Complex>();
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    for (std::size_t i = 0; i < kInner; ++i) {
      in[ch * kInner + i] = Complex(static_cast<float>(ch + 1), 0);
    }
  }
  standard_registry().lookup("isspl.power_sum_outer")(h.ctx);
  auto out = h.ctx.out("out").as<float>();
  for (std::size_t i = 0; i < kInner; ++i) {
    EXPECT_NEAR(out[i], 1.0f + 4.0f + 9.0f, 1e-5f);
  }
}

TEST(KernelTest, ScaleAppliesFactor) {
  Harness h({1, 2}, sizeof(Complex), {1, 2}, sizeof(Complex));
  auto in = h.ctx.inputs[0].as<Complex>();
  in[0] = {1, -1};
  h.ctx.params["factor"] = 2.0;
  standard_registry().lookup("isspl.scale")(h.ctx);
  EXPECT_EQ(h.ctx.out("out").as<Complex>()[0], Complex(2, -2));
}

TEST(KernelTest, FloatSourceSinkRoundTrip) {
  Harness src({2, 4}, sizeof(float), {2, 4}, sizeof(float));
  src.ctx.inputs.clear();
  standard_registry().lookup("float_source")(src.ctx);
  auto data = src.ctx.out("out").as<float>();

  Harness sink({2, 4}, sizeof(float), {2, 4}, sizeof(float));
  std::copy(data.begin(), data.end(), sink.ctx.inputs[0].as<float>().begin());
  sink.ctx.outputs.clear();
  standard_registry().lookup("float_sink")(sink.ctx);
  double expected = 0.0;
  for (float v : data) expected += v;
  EXPECT_DOUBLE_EQ(sink.ctx.result(), expected);
}

TEST(PortSliceTest, GlobalOfLocalWalksRuns) {
  PortSlice slice;
  slice.name = "s";
  slice.runs = {sage::runtime::Run{10, 3}, sage::runtime::Run{20, 2}};
  EXPECT_EQ(slice.global_of_local(0), 10u);
  EXPECT_EQ(slice.global_of_local(2), 12u);
  EXPECT_EQ(slice.global_of_local(3), 20u);
  EXPECT_EQ(slice.global_of_local(4), 21u);
  EXPECT_THROW(slice.global_of_local(5), RuntimeError);
}

TEST(KernelContextTest, PortLookupAndParams) {
  Harness h({1, 2}, sizeof(float), {1, 2}, sizeof(float));
  EXPECT_TRUE(h.ctx.has_in("in"));
  EXPECT_FALSE(h.ctx.has_in("out"));
  EXPECT_TRUE(h.ctx.has_out("out"));
  EXPECT_THROW(h.ctx.in("zzz"), RuntimeError);
  EXPECT_THROW(h.ctx.out("zzz"), RuntimeError);
  h.ctx.params["p"] = 1.5;
  EXPECT_DOUBLE_EQ(h.ctx.param_or("p", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.ctx.param_or("q", 7.0), 7.0);
}

}  // namespace
}  // namespace sage::runtime
