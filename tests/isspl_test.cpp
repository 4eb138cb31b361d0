// ISSPL tests: FFT mathematical properties (parameterized over sizes),
// transpose/pack kernels, vector ops, windows, FIR.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>

#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "isspl/vector_ops.hpp"
#include "net/framing.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sage::isspl {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) {
    v = Complex(static_cast<float>(rng.uniform(-1, 1)),
                static_cast<float>(rng.uniform(-1, 1)));
  }
  return out;
}

double energy(std::span<const Complex> x) {
  double acc = 0.0;
  for (const auto& v : x) acc += std::norm(v);
  return acc;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 64, 256, 1024));

TEST_P(FftSizes, ImpulseTransformsToFlatSpectrum) {
  const std::size_t n = GetParam();
  std::vector<Complex> x(n, Complex(0, 0));
  x[0] = Complex(1, 0);
  fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-4f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-4f);
  }
}

TEST_P(FftSizes, DcTransformsToSingleBin) {
  const std::size_t n = GetParam();
  std::vector<Complex> x(n, Complex(1, 0));
  fft(x);
  EXPECT_NEAR(x[0].real(), static_cast<float>(n), n * 1e-5f);
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0f, n * 1e-5f) << "bin " << i;
  }
}

TEST_P(FftSizes, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const std::vector<Complex> original = random_signal(n, 17);
  std::vector<Complex> x = original;
  fft(x);
  ifft(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-3f);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-3f);
  }
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  std::vector<Complex> x = random_signal(n, 23);
  const double time_energy = energy(x);
  fft(x);
  const double freq_energy = energy(x) / static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy, time_energy * 1e-4);
}

TEST_P(FftSizes, Linearity) {
  const std::size_t n = GetParam();
  auto a = random_signal(n, 5);
  auto b = random_signal(n, 6);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = a[i] + 2.0f * b[i];
  fft(a);
  fft(b);
  fft(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex expected = a[i] + 2.0f * b[i];
    EXPECT_NEAR(sum[i].real(), expected.real(),
                1e-3f * (1.0f + std::abs(expected)));
    EXPECT_NEAR(sum[i].imag(), expected.imag(),
                1e-3f * (1.0f + std::abs(expected)));
  }
}

TEST(FftTest, SingleToneLandsInRightBin) {
  constexpr std::size_t kN = 128;
  constexpr std::size_t kBin = 5;
  std::vector<Complex> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double phase =
        2.0 * std::numbers::pi * kBin * i / static_cast<double>(kN);
    x[i] = Complex(static_cast<float>(std::cos(phase)),
                   static_cast<float>(std::sin(phase)));
  }
  fft(x);
  EXPECT_NEAR(std::abs(x[kBin]), static_cast<float>(kN), 1e-2f);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i != kBin) {
      EXPECT_LT(std::abs(x[i]), 1e-2f) << "bin " << i;
    }
  }
}

TEST(FftRadix4Test, AutoSelectsRadixBydSize) {
  EXPECT_EQ(FftPlan(256, FftDirection::kForward).algorithm(),
            FftAlgorithm::kRadix4);  // 4^4
  EXPECT_EQ(FftPlan(512, FftDirection::kForward).algorithm(),
            FftAlgorithm::kMixed42);  // 2^9: radix-4 ladder over a
                                      // radix-2 seed stage
  EXPECT_EQ(FftPlan(4, FftDirection::kForward).algorithm(),
            FftAlgorithm::kRadix4);
  EXPECT_EQ(FftPlan(2, FftDirection::kForward).algorithm(),
            FftAlgorithm::kRadix2);
}

TEST(FftRadix4Test, RejectsNonPowerOfFour) {
  EXPECT_THROW(FftPlan(8, FftDirection::kForward, FftAlgorithm::kRadix4),
               Error);
  EXPECT_NO_THROW(FftPlan(8, FftDirection::kForward, FftAlgorithm::kRadix2));
}

TEST(FftMixed42Test, RejectsUnsuitedSizes) {
  // Powers of four should use kRadix4; tiny sizes have no radix-4 stage.
  EXPECT_THROW(FftPlan(16, FftDirection::kForward, FftAlgorithm::kMixed42),
               Error);
  EXPECT_THROW(FftPlan(2, FftDirection::kForward, FftAlgorithm::kMixed42),
               Error);
  EXPECT_NO_THROW(FftPlan(8, FftDirection::kForward, FftAlgorithm::kMixed42));
}

TEST(FftMixed42Test, MatchesRadix2AcrossSizes) {
  for (const std::size_t n : {8u, 32u, 128u, 512u, 2048u}) {
    const auto input = random_signal(n, n);
    std::vector<Complex> r2 = input;
    std::vector<Complex> mixed = input;
    FftPlan(n, FftDirection::kForward, FftAlgorithm::kRadix2).execute(r2);
    FftPlan(n, FftDirection::kForward, FftAlgorithm::kMixed42).execute(mixed);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r2[i].real(), mixed[i].real(),
                  1e-3f * (1.0f + std::abs(r2[i])))
          << "n=" << n << " bin " << i;
      EXPECT_NEAR(r2[i].imag(), mixed[i].imag(),
                  1e-3f * (1.0f + std::abs(r2[i])))
          << "n=" << n << " bin " << i;
    }
  }
}

TEST(FftMixed42Test, OutOfPlaceMatchesInPlace) {
  // The mixed-radix permutation is not an involution; the in-place swap
  // sequence and the out-of-place gather must agree exactly.
  for (const std::size_t n : {8u, 32u, 512u}) {
    for (const auto dir : {FftDirection::kForward, FftDirection::kInverse}) {
      const auto input = random_signal(n, n + 1);
      const FftPlan plan(n, dir, FftAlgorithm::kMixed42);
      std::vector<Complex> in_place = input;
      plan.execute(in_place);
      std::vector<Complex> out(n);
      plan.execute(std::span<const Complex>(input), std::span<Complex>(out));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(in_place[i], out[i]) << "n=" << n << " bin " << i;
      }
    }
  }
}

TEST(FftRadix4Test, MatchesRadix2AcrossSizes) {
  for (const std::size_t n : {4u, 16u, 64u, 256u, 1024u}) {
    const auto input = random_signal(n, n);
    std::vector<Complex> r2 = input;
    std::vector<Complex> r4 = input;
    FftPlan(n, FftDirection::kForward, FftAlgorithm::kRadix2).execute(r2);
    FftPlan(n, FftDirection::kForward, FftAlgorithm::kRadix4).execute(r4);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r2[i].real(), r4[i].real(),
                  1e-3f * (1.0f + std::abs(r2[i])))
          << "n=" << n << " bin " << i;
      EXPECT_NEAR(r2[i].imag(), r4[i].imag(),
                  1e-3f * (1.0f + std::abs(r2[i])))
          << "n=" << n << " bin " << i;
    }
  }
}

TEST(FftRadix4Test, InverseRecoversSignal) {
  constexpr std::size_t kN = 256;
  const auto original = random_signal(kN, 77);
  std::vector<Complex> x = original;
  FftPlan(kN, FftDirection::kForward, FftAlgorithm::kRadix4).execute(x);
  FftPlan(kN, FftDirection::kInverse, FftAlgorithm::kRadix4).execute(x);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-3f);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-3f);
  }
}

TEST(FftRadix4Test, SingleToneLandsInRightBin) {
  constexpr std::size_t kN = 64;
  constexpr std::size_t kBin = 9;
  std::vector<Complex> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double phase =
        2.0 * std::numbers::pi * kBin * i / static_cast<double>(kN);
    x[i] = Complex(static_cast<float>(std::cos(phase)),
                   static_cast<float>(std::sin(phase)));
  }
  FftPlan(kN, FftDirection::kForward, FftAlgorithm::kRadix4).execute(x);
  EXPECT_NEAR(std::abs(x[kBin]), static_cast<float>(kN), 1e-2f);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i != kBin) {
      EXPECT_LT(std::abs(x[i]), 1e-2f) << "bin " << i;
    }
  }
}

TEST(FftTest, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(0, FftDirection::kForward), Error);
  EXPECT_THROW(FftPlan(1, FftDirection::kForward), Error);
  EXPECT_THROW(FftPlan(12, FftDirection::kForward), Error);
  FftPlan plan(8, FftDirection::kForward);
  std::vector<Complex> wrong(4);
  EXPECT_THROW(plan.execute(wrong), Error);
}

// Every legal algorithm for size n (kAuto resolves to one of the others).
std::vector<FftAlgorithm> algorithms_for(std::size_t n) {
  std::vector<FftAlgorithm> out = {FftAlgorithm::kAuto, FftAlgorithm::kRadix2};
  const bool pow4 = (n & 0x5555555555555555ull) != 0;
  if (pow4) out.push_back(FftAlgorithm::kRadix4);
  if (n >= 8 && !pow4) out.push_back(FftAlgorithm::kMixed42);
  return out;
}

std::uint64_t hash_bits(std::uint64_t h, std::span<const Complex> x) {
  return net::fnv1a_accum(h, reinterpret_cast<const std::byte*>(x.data()),
                          x.size_bytes());
}

TEST(FftGoldenTest, OutputsBitIdenticalToSeed) {
  // FNV-1a over the raw float bits of every output: both directions,
  // every legal algorithm, in place and out of place, on a random
  // signal sprinkled with +-0 and on an all -0 signal. The all -0 one
  // transforms to -0 in bin 0 only if every w^0 == 1 twiddle passes its
  // input through: multiplying (-0, -0) by (1, 0) gives (+0, -0). The
  // expected values are the output of scalar std::complex<float>
  // butterflies; the vector kernels must reproduce them exactly.
  const std::pair<std::size_t, std::uint64_t> kGolden[] = {
      {2, 0x88e7037da0d33405ull},    {4, 0xd5f4d3933a327b1dull},
      {8, 0x0815b3dbc36b1749ull},    {16, 0x63d00d7d5805972dull},
      {32, 0x4ced1e43528c05b1ull},   {64, 0x036f0cfa0e82afc1ull},
      {128, 0x51913fab14269cf5ull},  {256, 0xa8b0ae42b6a1379dull},
      {512, 0x80a2e3ec7cb95845ull},  {1024, 0x38dc1aad349afe05ull},
      {2048, 0x343748b36d514f9dull}, {4096, 0x52a08512d02cb92dull},
      {8192, 0x85aa74573dd62005ull},
  };
  for (const auto& [n, expected] : kGolden) {
    std::vector<Complex> noisy = random_signal(n, 1000 + n);
    std::vector<Complex> zeros(n, Complex(-0.0f, -0.0f));
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 0) noisy[i].real(0.0f);
      if (i % 7 == 0) noisy[i].imag(-0.0f);
      if (i % 11 == 0) noisy[i] = Complex(-0.0f, -0.0f);
    }
    std::uint64_t h = net::kFnvOffsetBasis;
    for (const auto algorithm : algorithms_for(n)) {
      for (const auto dir : {FftDirection::kForward, FftDirection::kInverse}) {
        const FftPlan plan(n, dir, algorithm);
        for (const auto* input : {&noisy, &zeros}) {
          std::vector<Complex> in_place = *input;
          plan.execute(in_place);
          std::vector<Complex> out(n);
          plan.execute(std::span<const Complex>(*input),
                       std::span<Complex>(out));
          h = hash_bits(hash_bits(h, in_place), out);
        }
      }
    }
    EXPECT_EQ(h, expected) << "n=" << n << " hash 0x" << std::hex << h;
  }
}

TEST(FftTest, ExecuteRowsMatchesRowwise) {
  constexpr std::size_t kRows = 4, kCols = 64;
  auto data = random_signal(kRows * kCols, 31);
  auto expected = data;
  FftPlan plan(kCols, FftDirection::kForward);
  plan.execute_rows(data, kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    plan.execute(std::span<Complex>(expected).subspan(r * kCols, kCols));
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], expected[i]);
  }
}

TEST(Fft2dTest, SeparableToneLandsInRightCell) {
  constexpr std::size_t kN = 32;
  std::vector<Complex> x(kN * kN);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = 0; c < kN; ++c) {
      const double phase =
          2.0 * std::numbers::pi * (3.0 * r + 7.0 * c) / kN;
      x[r * kN + c] = Complex(static_cast<float>(std::cos(phase)),
                              static_cast<float>(std::sin(phase)));
    }
  }
  fft2d(x, kN, kN);
  EXPECT_NEAR(std::abs(x[3 * kN + 7]), static_cast<float>(kN * kN), 0.5f);
}

// --- real-input FFT --------------------------------------------------------------

TEST(RfftTest, MatchesComplexFftOnRealSignals) {
  for (const std::size_t n : {4u, 16u, 64u, 256u, 512u}) {
    support::Rng rng(n);
    std::vector<float> real_signal(n);
    std::vector<Complex> as_complex(n);
    for (std::size_t i = 0; i < n; ++i) {
      real_signal[i] = static_cast<float>(rng.uniform(-1, 1));
      as_complex[i] = Complex(real_signal[i], 0.0f);
    }

    std::vector<Complex> reference = as_complex;
    fft(reference);

    RfftPlan plan(n);
    std::vector<Complex> spectrum(plan.bins());
    plan.execute(real_signal, spectrum);

    for (std::size_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(spectrum[k].real(), reference[k].real(),
                  1e-3f * (1.0f + std::abs(reference[k])))
          << "n=" << n << " bin " << k;
      EXPECT_NEAR(spectrum[k].imag(), reference[k].imag(),
                  1e-3f * (1.0f + std::abs(reference[k])))
          << "n=" << n << " bin " << k;
    }
  }
}

TEST(RfftTest, DcAndNyquistAreReal) {
  constexpr std::size_t kN = 128;
  support::Rng rng(5);
  std::vector<float> signal(kN);
  for (auto& v : signal) v = static_cast<float>(rng.uniform(-1, 1));
  RfftPlan plan(kN);
  std::vector<Complex> spectrum(plan.bins());
  plan.execute(signal, spectrum);
  EXPECT_NEAR(spectrum[0].imag(), 0.0f, 1e-4f);
  EXPECT_NEAR(spectrum[kN / 2].imag(), 0.0f, 1e-4f);
}

TEST(RfftTest, Guards) {
  EXPECT_THROW(RfftPlan(6), Error);
  EXPECT_THROW(RfftPlan(2), Error);
  RfftPlan plan(8);
  std::vector<float> in(8);
  std::vector<Complex> wrong(3);
  EXPECT_THROW(plan.execute(in, wrong), Error);
}

// --- transpose -----------------------------------------------------------------

TEST(TransposeTest, RectangularCorrect) {
  constexpr std::size_t kRows = 5, kCols = 7;
  std::vector<int> in(kRows * kCols);
  std::iota(in.begin(), in.end(), 0);
  std::vector<int> out(in.size());
  transpose<int>(in, out, kRows, kCols);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      EXPECT_EQ(out[c * kRows + r], in[r * kCols + c]);
    }
  }
}

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  constexpr std::size_t kRows = 33, kCols = 65;  // off-block sizes
  std::vector<int> original(kRows * kCols);
  std::iota(original.begin(), original.end(), 0);
  std::vector<int> once(original.size()), twice(original.size());
  transpose<int>(original, once, kRows, kCols);
  transpose<int>(once, twice, kCols, kRows);
  EXPECT_EQ(twice, original);
}

TEST(TransposeTest, InPlaceSquareMatchesOutOfPlace) {
  constexpr std::size_t kN = 48;
  std::vector<int> data(kN * kN);
  std::iota(data.begin(), data.end(), 0);
  std::vector<int> expected(data.size());
  transpose<int>(data, expected, kN, kN);
  transpose_square_inplace<int>(data, kN);
  EXPECT_EQ(data, expected);
}

TEST(TransposeTest, AliasAndSizeChecks) {
  std::vector<int> buf(4);
  EXPECT_THROW(
      transpose<int>(std::span<const int>(buf.data(), 4),
                     std::span<int>(buf.data(), 4), 2, 2),
      Error);
  std::vector<int> out(3);
  EXPECT_THROW(transpose<int>(buf, out, 2, 2), Error);
  // Even complex shapes take the vector path; the checks come first.
  std::vector<Complex> cbuf(4), cshort(3);
  EXPECT_THROW(transpose<Complex>(std::span<const Complex>(cbuf.data(), 4),
                                  std::span<Complex>(cbuf.data(), 4), 2, 2),
               Error);
  EXPECT_THROW(transpose<Complex>(cbuf, cshort, 2, 2), Error);
  EXPECT_THROW(transpose<Complex>(cshort, cbuf, 2, 2), Error);
}

TEST(TransposeTest, ComplexMatchesDefinitionBitForBit) {
  // Even x even shapes take the 2x2-tile vector path; any odd dimension
  // takes the scalar tile loop.
  const std::pair<std::size_t, std::size_t> kShapes[] = {
      {1, 1},   {1, 8},  {2, 3},    {3, 2},
      {32, 32}, {33, 65}, {512, 256}, {256, 512},
  };
  for (const auto& [rows, cols] : kShapes) {
    std::vector<Complex> in = random_signal(rows * cols, rows * 1000 + cols);
    for (std::size_t i = 0; i < in.size(); i += 3) in[i].imag(-0.0f);
    std::vector<Complex> out(in.size());
    transpose<Complex>(in, out, rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(std::memcmp(&out[c * rows + r], &in[r * cols + c],
                              sizeof(Complex)),
                  0)
            << rows << "x" << cols << " at (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(PackTest, PackUnpackRoundTrip) {
  constexpr std::size_t kRows = 8, kCols = 16, kChunk = 4;
  std::vector<int> matrix(kRows * kCols);
  std::iota(matrix.begin(), matrix.end(), 0);

  std::vector<int> rebuilt(matrix.size(), -1);
  for (std::size_t col0 = 0; col0 < kCols; col0 += kChunk) {
    std::vector<int> block(kRows * kChunk);
    pack_column_block<int>(matrix, kRows, kCols, col0, kChunk, block);
    unpack_column_block<int>(block, kRows, kCols, col0, kChunk, rebuilt);
  }
  EXPECT_EQ(rebuilt, matrix);
}

TEST(PackTest, BlockContentsAreColumnSlice) {
  constexpr std::size_t kRows = 3, kCols = 6;
  std::vector<int> matrix(kRows * kCols);
  std::iota(matrix.begin(), matrix.end(), 0);
  std::vector<int> block(kRows * 2);
  pack_column_block<int>(matrix, kRows, kCols, 2, 2, block);
  EXPECT_EQ(block[0], 2);   // row 0, col 2
  EXPECT_EQ(block[1], 3);   // row 0, col 3
  EXPECT_EQ(block[2], 8);   // row 1, col 2
  EXPECT_EQ(block[5], 15);  // row 2, col 3
}

// --- vector ops --------------------------------------------------------------------

TEST(VectorOpsTest, AddMulScaleAxpy) {
  std::vector<float> a{1, 2, 3}, b{4, 5, 6}, out(3);
  vadd(a, b, out);
  EXPECT_EQ(out[2], 9);
  vmul(a, b, out);
  EXPECT_EQ(out[1], 10);
  vscale(std::span<float>(out), 2.0f);
  EXPECT_EQ(out[1], 20);
  vaxpy(a, 3.0f, std::span<float>(b));
  EXPECT_EQ(b[0], 7);
}

TEST(VectorOpsTest, ComplexMagnitude) {
  std::vector<Complex> x{{3, 4}, {0, 0}, {-5, 12}};
  std::vector<float> mag(3), magsq(3);
  vmag(x, mag);
  vmagsq(x, magsq);
  EXPECT_NEAR(mag[0], 5.0f, 1e-6f);
  EXPECT_NEAR(mag[2], 13.0f, 1e-5f);
  EXPECT_NEAR(magsq[0], 25.0f, 1e-5f);
}

TEST(VectorOpsTest, SumDotMax) {
  std::vector<float> x{1, -2, 5, 3};
  EXPECT_NEAR(vsum(x), 7.0f, 1e-6f);
  EXPECT_NEAR(vdot(x, x), 1 + 4 + 25 + 9, 1e-5f);
  EXPECT_EQ(vmax_index(x), 2u);
  EXPECT_THROW(vmax_index({}), Error);
}

TEST(VectorOpsTest, SizeMismatchesThrow) {
  std::vector<float> a(3), b(4), out(3);
  EXPECT_THROW(vadd(a, b, out), Error);
  EXPECT_THROW(vdot(a, b), Error);
}

TEST(WindowTest, KnownShapes) {
  const auto hann = make_window(Window::kHann, 5);
  EXPECT_NEAR(hann[0], 0.0f, 1e-6f);
  EXPECT_NEAR(hann[2], 1.0f, 1e-6f);
  EXPECT_NEAR(hann[4], 0.0f, 1e-6f);

  const auto hamming = make_window(Window::kHamming, 5);
  EXPECT_NEAR(hamming[0], 0.08f, 1e-5f);
  EXPECT_NEAR(hamming[2], 1.0f, 1e-5f);

  const auto rect = make_window(Window::kRectangular, 4);
  for (float v : rect) EXPECT_EQ(v, 1.0f);

  const auto blackman = make_window(Window::kBlackman, 5);
  EXPECT_NEAR(blackman[2], 1.0f, 1e-5f);
}

TEST(WindowTest, ApplyScalesSamples) {
  std::vector<Complex> x(4, Complex(2, 2));
  const std::vector<float> w{0.0f, 0.5f, 1.0f, 2.0f};
  apply_window(x, w);
  EXPECT_EQ(x[0], Complex(0, 0));
  EXPECT_EQ(x[1], Complex(1, 1));
  EXPECT_EQ(x[3], Complex(4, 4));
}

TEST(FirTest, MovingAverage) {
  const std::vector<float> in{1, 1, 1, 1};
  const std::vector<float> taps{0.5f, 0.5f};
  std::vector<float> out(4);
  fir(in, taps, out);
  EXPECT_NEAR(out[0], 0.5f, 1e-6f);  // zero history
  EXPECT_NEAR(out[1], 1.0f, 1e-6f);
  EXPECT_NEAR(out[3], 1.0f, 1e-6f);
}

TEST(FirTest, ImpulseReproducesTaps) {
  std::vector<float> in(6, 0.0f);
  in[0] = 1.0f;
  const std::vector<float> taps{3, 2, 1};
  std::vector<float> out(6);
  fir(in, taps, out);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(out[3], 0);
}

}  // namespace
}  // namespace sage::isspl
