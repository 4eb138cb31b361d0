// openSAGE -- ISSPL-style FFT.
//
// Stands in for the CSPI ISSPL vector library the paper's benchmarks
// linked against: plan-based, single-precision complex, power-of-two
// sizes with precomputed twiddles and input permutation. Sizes run as
// radix-4 or mixed radix-4/2 (one radix-2 seed stage), two butterflies
// per 16-byte vector; plain scalar radix-2 stays as the reference. The
// vector butterflies round exactly the operations of a scalar
// std::complex<float> butterfly (the complex multiply is
// (wr*xr - wi*xi, wr*xi + wi*xr), w^0 lanes are not multiplied), so
// their output bits are fixed; FftGoldenTest pins them. Both the
// hand-coded benchmark and the SAGE-generated one call these same leaf
// kernels, exactly as both versions on the CSPI machine called ISSPL.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace sage::isspl {

using Complex = std::complex<float>;

enum class FftDirection { kForward, kInverse };

/// Butterfly radix. kAuto picks radix-4 for powers of four and the
/// mixed radix-4/2 factorization (one multiply-free radix-2 seed stage,
/// then radix-4 stages) for the other powers of two >= 8, so every size
/// gets radix-4's lower multiplication count. kRadix2 forces the plain
/// radix-2 ladder (reference implementation).
enum class FftAlgorithm { kAuto, kRadix2, kRadix4, kMixed42 };

/// Precomputed transform of one size/direction. Reusable across calls and
/// threads (execution is const).
class FftPlan {
 public:
  /// `n` must be a power of two >= 2 (a power of four for kRadix4).
  FftPlan(std::size_t n, FftDirection direction,
          FftAlgorithm algorithm = FftAlgorithm::kAuto);

  std::size_t size() const { return n_; }
  FftDirection direction() const { return direction_; }
  /// The radix actually selected (kAuto resolved).
  FftAlgorithm algorithm() const { return algorithm_; }

  /// In-place transform of one n-point line.
  void execute(std::span<Complex> data) const;

  /// In-place transform of `rows` contiguous n-point lines.
  void execute_rows(std::span<Complex> data, std::size_t rows) const;

  /// Out-of-place transform: applies the bit/digit-reversal permutation
  /// while loading `in` into `out` (the radix-4 paths inside their first
  /// butterfly stage), saving the separate copy and swap passes.
  /// Bit-identical to copying `in` into `out` and running the
  /// in-place execute(). `in` and `out` must not alias.
  void execute(std::span<const Complex> in, std::span<Complex> out) const;

  /// Out-of-place transform of `rows` contiguous n-point lines.
  void execute_rows(std::span<const Complex> in, std::span<Complex> out,
                    std::size_t rows) const;

 private:
  void build_radix2();
  void build_radix4();
  void build_mixed42();
  /// Appends the twiddle runs of the radix-4 stages m0, 4*m0, ..., n.
  void build_radix4_twiddles_(std::size_t m0);
  void execute_radix2(Complex* x) const;
  /// First butterfly stage, reading the permuted input through `load`
  /// (`load(i)` returns elements i and i+1 as one vector), then the
  /// remaining stages and inverse scaling, all in `x`. The radix-2 path
  /// ignores `load` and expects `x` already permuted.
  template <typename Load2>
  void run_stages_(Complex* x, Load2 load) const;
  /// Two-wide radix-4 butterfly ladder from stage size `m0` (8 or 16,
  /// growing by 4) up to n; shared by the radix-4 and mixed-radix paths.
  void radix4_stages_(Complex* x, std::size_t m0) const;

  std::size_t n_;
  FftDirection direction_;
  FftAlgorithm algorithm_;
  /// Per-stage roots of unity. Radix-2: w^k, k < m/2, per stage m.
  /// Radix-4 ladder: three runs per stage m (all w^j, then all w^(2j),
  /// then all w^(3j), j < m/4), so adjacent j load as one vector.
  std::vector<Complex> twiddles_;
  std::vector<std::uint32_t> rev_;    // input permutation (out[i] = in[rev_[i]])
  /// In-place realization of rev_ as a swap sequence. The pure-radix
  /// reversals are involutions (swap when i < rev_[i]); the mixed-radix
  /// digit reversal is not, so its cycles are precomputed here.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> perm_swaps_;
};

/// Real-input FFT via the packed half-size complex transform: n real
/// samples in, n/2 + 1 spectrum bins (DC .. Nyquist) out -- the usual
/// front half of a radar chain digitizing real IF samples.
class RfftPlan {
 public:
  /// `n` must be a power of two >= 4.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t bins() const { return n_ / 2 + 1; }

  /// out.size() must be bins().
  void execute(std::span<const float> in, std::span<Complex> out) const;

 private:
  std::size_t n_;
  FftPlan half_;
  std::vector<Complex> unpack_tw_;  // e^(-2*pi*i*k/n), k = 0..n/2
};

/// One-shot helpers (plan construction amortized away for tests/examples).
void fft(std::span<Complex> data);
void ifft(std::span<Complex> data);

/// Full 2D FFT of a rows x cols matrix (row-major, both powers of two):
/// FFT along rows, transpose, FFT along (former) columns, transpose back.
void fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols);

}  // namespace sage::isspl
