#include "isspl/fft.hpp"

#include <cmath>
#include <numbers>

#include "isspl/cvec2.hpp"
#include "isspl/transpose.hpp"
#include "support/error.hpp"

namespace sage::isspl {

namespace {

bool is_power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

bool is_power_of_four(std::size_t n) {
  if (!is_power_of_two(n)) return false;
  // Powers of four have their single set bit on an even position.
  return (n & 0x5555555555555555ull) != 0;
}

std::uint32_t reverse_bits(std::uint32_t value, int bits) {
  std::uint32_t result = 0;
  for (int i = 0; i < bits; ++i) {
    result = (result << 1) | (value & 1u);
    value >>= 1;
  }
  return result;
}

std::uint32_t reverse_digits_base4(std::uint32_t value, int digits) {
  std::uint32_t result = 0;
  for (int i = 0; i < digits; ++i) {
    result = (result << 2) | (value & 3u);
    value >>= 2;
  }
  return result;
}

}  // namespace

FftPlan::FftPlan(std::size_t n, FftDirection direction,
                 FftAlgorithm algorithm)
    : n_(n), direction_(direction), algorithm_(algorithm) {
  SAGE_CHECK(is_power_of_two(n) && n >= 2,
             "FFT size must be a power of two >= 2, got ", n);
  if (algorithm_ == FftAlgorithm::kAuto) {
    if (is_power_of_four(n)) {
      algorithm_ = FftAlgorithm::kRadix4;
    } else if (n >= 8) {
      algorithm_ = FftAlgorithm::kMixed42;
    } else {
      algorithm_ = FftAlgorithm::kRadix2;
    }
  }
  switch (algorithm_) {
    case FftAlgorithm::kRadix4:
      SAGE_CHECK(is_power_of_four(n),
                 "radix-4 FFT needs a power-of-four size, got ", n);
      build_radix4();
      break;
    case FftAlgorithm::kMixed42:
      SAGE_CHECK(n >= 8 && !is_power_of_four(n),
                 "mixed radix-4/2 FFT needs a power-of-two size >= 8 that is "
                 "not a power of four, got ", n);
      build_mixed42();
      break;
    default:
      build_radix2();
      break;
  }
}

void FftPlan::build_radix2() {
  int bits = 0;
  while ((1u << bits) < n_) ++bits;

  rev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    rev_[i] = reverse_bits(static_cast<std::uint32_t>(i), bits);
  }

  // Twiddles for each butterfly stage, stored stage after stage:
  // stage with half-length m/2 contributes m/2 factors w^k = e^(+-2*pi*i*k/m).
  const double sign = (direction_ == FftDirection::kForward) ? -1.0 : 1.0;
  twiddles_.reserve(n_ - 1);
  for (std::size_t m = 2; m <= n_; m <<= 1) {
    const double theta = sign * 2.0 * std::numbers::pi / static_cast<double>(m);
    for (std::size_t k = 0; k < m / 2; ++k) {
      const double angle = theta * static_cast<double>(k);
      twiddles_.emplace_back(static_cast<float>(std::cos(angle)),
                             static_cast<float>(std::sin(angle)));
    }
  }
}

void FftPlan::build_radix4() {
  int digits = 0;
  while ((1u << (2 * digits)) < n_) ++digits;

  rev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    rev_[i] = reverse_digits_base4(static_cast<std::uint32_t>(i), digits);
  }

  build_radix4_twiddles_(16);
}

void FftPlan::build_mixed42() {
  // Factorization, smallest stage first: one radix-2 seed stage on
  // adjacent pairs, then radix-4 stages m = 8, 32, ..., n. The matching
  // input permutation is the reversed mixed-radix digit order, built by
  // the DIT recursion: split into 4 interleaved subsequences, permute
  // each recursively, lay them out contiguously. (The innermost
  // length-2 split is the radix-2 seed.)
  rev_.resize(n_);
  const auto lay_out = [this](auto&& self, std::size_t out0,
                              std::size_t base_in, std::size_t stride_in,
                              std::size_t len) -> void {
    if (len == 2) {
      rev_[out0] = static_cast<std::uint32_t>(base_in);
      rev_[out0 + 1] = static_cast<std::uint32_t>(base_in + stride_in);
      return;
    }
    const std::size_t sub = len / 4;
    for (std::size_t j = 0; j < 4; ++j) {
      self(self, out0 + j * sub, base_in + j * stride_in, stride_in * 4, sub);
    }
  };
  lay_out(lay_out, 0, 0, 1, n_);

  // Unlike the pure-radix bit/digit reversals this permutation is not an
  // involution, so realize it as a precomputed swap sequence for the
  // in-place path: consecutive transpositions along each cycle of
  // out[i] = in[rev_[i]].
  perm_swaps_.clear();
  std::vector<std::uint32_t> cur(n_);  // element currently at position j
  std::vector<std::uint32_t> pos(n_);  // position of element e
  for (std::uint32_t j = 0; j < n_; ++j) cur[j] = pos[j] = j;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t at = pos[rev_[i]];
    if (at != i) {
      perm_swaps_.emplace_back(i, at);
      std::swap(cur[i], cur[at]);
      pos[cur[i]] = i;
      pos[cur[at]] = at;
    }
  }

  build_radix4_twiddles_(8);
}

void FftPlan::build_radix4_twiddles_(std::size_t m0) {
  // Per stage (m = m0, 4*m0, ..., n) three runs of m/4 factors: all w^j,
  // then all w^(2j), then all w^(3j), j < m/4, with w = e^(+-2*pi*i/m).
  // Runs let the butterflies load the twiddles of two adjacent j at once.
  const double sign = (direction_ == FftDirection::kForward) ? -1.0 : 1.0;
  for (std::size_t m = m0; m <= n_; m <<= 2) {
    const double theta = sign * 2.0 * std::numbers::pi / static_cast<double>(m);
    for (std::size_t power = 1; power <= 3; ++power) {
      for (std::size_t j = 0; j < m / 4; ++j) {
        const double angle = theta * static_cast<double>(j * power);
        twiddles_.emplace_back(static_cast<float>(std::cos(angle)),
                               static_cast<float>(std::sin(angle)));
      }
    }
  }
}

void FftPlan::execute(std::span<Complex> data) const {
  SAGE_CHECK(data.size() == n_, "FFT buffer size ", data.size(),
             " does not match plan size ", n_);

  Complex* x = data.data();
  if (perm_swaps_.empty()) {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t j = rev_[i];
      if (i < j) std::swap(x[i], x[j]);
    }
  } else {
    for (const auto& [a, b] : perm_swaps_) std::swap(x[a], x[b]);
  }
  run_stages_(x, [x](std::size_t i) { return detail::load2(x + i); });
}

void FftPlan::execute(std::span<const Complex> in,
                      std::span<Complex> out) const {
  SAGE_CHECK(in.size() == n_ && out.size() == n_,
             "FFT buffer sizes ", in.size(), "/", out.size(),
             " do not match plan size ", n_);
  const Complex* s = in.data();
  const std::uint32_t* rev = rev_.data();
  Complex* x = out.data();
  if (algorithm_ == FftAlgorithm::kRadix2) {
    for (std::size_t i = 0; i < n_; ++i) x[i] = s[rev[i]];
  }
  // The radix-4 paths gather inside their first stage instead.
  run_stages_(x, [s, rev](std::size_t i) {
    return detail::join2(s[rev[i]], s[rev[i + 1]]);
  });
}

template <typename Load2>
void FftPlan::run_stages_(Complex* x, Load2 load) const {
  using namespace detail;
  if (algorithm_ == FftAlgorithm::kRadix4) {
    // Stage m == 4: every group uses j == 0, whose three twiddles are all
    // w^0 == 1 exactly -- a multiply-free radix-4 butterfly pass. One
    // group is (y0, y1) and (y2, y3); each sum/difference below does two
    // of the scalar butterfly's complex adds.
    const CVec2Bits rot = direction_ == FftDirection::kForward ? kTimesMinusI
                                                               : kTimesPlusI;
    for (std::size_t base = 0; base < n_; base += 4) {
      const CVec2 a = load(base);
      const CVec2 b = load(base + 2);
      const CVec2 s = a + b;                     // (t0, t2)
      const CVec2 d = a - b;                     // (t1, y1 - y3)
      const CVec2 p = lo2(s, d);                 // (t0, t1)
      const CVec2 q = hi2(s, rotate(d, rot));    // (t2, t3)
      store2(x + base, p + q);
      store2(x + base + 2, p - q);
    }
    radix4_stages_(x, 16);
  } else if (algorithm_ == FftAlgorithm::kMixed42) {
    // Radix-2 seed stage on adjacent pairs (w^0 == 1: multiply-free), two
    // pairs per step, then the radix-4 ladder from m == 8.
    for (std::size_t base = 0; base < n_; base += 4) {
      const CVec2 a = load(base);
      const CVec2 b = load(base + 2);
      const CVec2 u = lo2(a, b);
      const CVec2 t = hi2(a, b);
      const CVec2 s = u + t;
      const CVec2 d = u - t;
      store2(x + base, lo2(s, d));
      store2(x + base + 2, hi2(s, d));
    }
    radix4_stages_(x, 8);
  } else {
    execute_radix2(x);
  }

  if (direction_ == FftDirection::kInverse) {
    const float scale = 1.0f / static_cast<float>(n_);
    for (std::size_t i = 0; i < n_; ++i) x[i] *= scale;
  }
}

void FftPlan::execute_radix2(Complex* x) const {
  const Complex* stage_tw = twiddles_.data();
  const bool forward = direction_ == FftDirection::kForward;

  // Stage m == 2: the only twiddle is w^0 == 1, so the whole stage is a
  // multiply-free add/sub pass.
  if (n_ >= 2) {
    for (std::size_t base = 0; base < n_; base += 2) {
      const Complex u = x[base];
      const Complex t = x[base + 1];
      x[base] = u + t;
      x[base + 1] = u - t;
    }
    stage_tw += 1;
  }

  // Stage m == 4: twiddles are w^0 == 1 and w^1 == -+i; the latter is an
  // exact component swap, so this stage needs no multiplies either.
  if (n_ >= 4) {
    for (std::size_t base = 0; base < n_; base += 4) {
      {
        const Complex u = x[base];
        const Complex t = x[base + 2];
        x[base] = u + t;
        x[base + 2] = u - t;
      }
      {
        const Complex u = x[base + 1];
        const Complex v = x[base + 3];
        const Complex t = forward ? Complex(v.imag(), -v.real())
                                  : Complex(-v.imag(), v.real());
        x[base + 1] = u + t;
        x[base + 3] = u - t;
      }
    }
    stage_tw += 2;
  }

  for (std::size_t m = 8; m <= n_; m <<= 1) {
    const std::size_t half = m / 2;
    for (std::size_t base = 0; base < n_; base += m) {
      // k == 0 peeled: w^0 == 1 exactly.
      {
        const Complex u = x[base];
        const Complex t = x[base + half];
        x[base] = u + t;
        x[base + half] = u - t;
      }
      for (std::size_t k = 1; k < half; ++k) {
        const Complex w = stage_tw[k];
        const Complex t = w * x[base + k + half];
        const Complex u = x[base + k];
        x[base + k] = u + t;
        x[base + k + half] = u - t;
      }
    }
    stage_tw += half;
  }
}

void FftPlan::radix4_stages_(Complex* x, std::size_t m0) const {
  using namespace detail;
  const CVec2Bits rot = direction_ == FftDirection::kForward ? kTimesMinusI
                                                             : kTimesPlusI;
  // Two radix-4 butterflies at once, one per lane: lanes are adjacent j.
  const auto butterfly = [rot](Complex* p, std::size_t quarter, CVec2 y0,
                               CVec2 y1, CVec2 y2, CVec2 y3) {
    const CVec2 t0 = y0 + y2;
    const CVec2 t1 = y0 - y2;
    const CVec2 t2 = y1 + y3;
    const CVec2 t3 = rotate(y1 - y3, rot);
    store2(p, t0 + t2);
    store2(p + quarter, t1 + t3);
    store2(p + 2 * quarter, t0 - t2);
    store2(p + 3 * quarter, t1 - t3);
  };

  const Complex* stage_tw = twiddles_.data();
  for (std::size_t m = m0; m <= n_; m <<= 2) {
    const std::size_t quarter = m / 4;  // even, since m0 >= 8
    const Complex* w1 = stage_tw;
    const Complex* w2 = stage_tw + quarter;
    const Complex* w3 = stage_tw + 2 * quarter;
    for (std::size_t base = 0; base < n_; base += m) {
      Complex* p = x + base;
      // j == 0, 1: the j == 0 lane keeps its inputs unmultiplied, since
      // all three twiddles are w^0 == 1 exactly (a multiply would turn
      // some -0 into +0).
      {
        const CVec2 x1 = load2(p + quarter);
        const CVec2 x2 = load2(p + 2 * quarter);
        const CVec2 x3 = load2(p + 3 * quarter);
        butterfly(p, quarter, load2(p), splice2(x1, cmul(load2(w1), x1)),
                  splice2(x2, cmul(load2(w2), x2)),
                  splice2(x3, cmul(load2(w3), x3)));
      }
      for (std::size_t j = 2; j < quarter; j += 2) {
        butterfly(p + j, quarter, load2(p + j),
                  cmul(load2(w1 + j), load2(p + j + quarter)),
                  cmul(load2(w2 + j), load2(p + j + 2 * quarter)),
                  cmul(load2(w3 + j), load2(p + j + 3 * quarter)));
      }
    }
    stage_tw += 3 * quarter;
  }
}

void FftPlan::execute_rows(std::span<Complex> data, std::size_t rows) const {
  SAGE_CHECK(data.size() == rows * n_, "row-FFT buffer size mismatch: ",
             data.size(), " != ", rows, " * ", n_);
  for (std::size_t r = 0; r < rows; ++r) {
    execute(data.subspan(r * n_, n_));
  }
}

void FftPlan::execute_rows(std::span<const Complex> in, std::span<Complex> out,
                           std::size_t rows) const {
  SAGE_CHECK(in.size() == rows * n_ && out.size() == rows * n_,
             "row-FFT buffer size mismatch: ", in.size(), "/", out.size(),
             " != ", rows, " * ", n_);
  for (std::size_t r = 0; r < rows; ++r) {
    execute(in.subspan(r * n_, n_), out.subspan(r * n_, n_));
  }
}

RfftPlan::RfftPlan(std::size_t n)
    : n_(n), half_(n / 2 < 2 ? 2 : n / 2, FftDirection::kForward) {
  SAGE_CHECK(is_power_of_two(n) && n >= 4,
             "real FFT size must be a power of two >= 4, got ", n);
  unpack_tw_.reserve(n_ / 2 + 1);
  for (std::size_t k = 0; k <= n_ / 2; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n_);
    unpack_tw_.emplace_back(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
  }
}

void RfftPlan::execute(std::span<const float> in,
                       std::span<Complex> out) const {
  SAGE_CHECK(in.size() == n_, "real FFT input size ", in.size(),
             " does not match plan size ", n_);
  SAGE_CHECK(out.size() == bins(), "real FFT output must hold ", bins(),
             " bins, got ", out.size());

  // Pack adjacent real samples into complex pairs and transform at
  // half size.
  const std::size_t half = n_ / 2;
  std::vector<Complex> z(half);
  for (std::size_t k = 0; k < half; ++k) {
    z[k] = Complex(in[2 * k], in[2 * k + 1]);
  }
  half_.execute(z);

  // Unpack: X[k] = E[k] + w^k * O[k], where E/O are the even/odd-sample
  // spectra recovered from Z's conjugate symmetry.
  for (std::size_t k = 0; k <= half; ++k) {
    const Complex zk = z[k % half];
    const Complex zmk = std::conj(z[(half - k) % half]);
    const Complex even = 0.5f * (zk + zmk);
    const Complex diff = zk - zmk;
    // odd = -i/2 * (zk - zmk)
    const Complex odd(0.5f * diff.imag(), -0.5f * diff.real());
    out[k] = even + unpack_tw_[k] * odd;
  }
}

void fft(std::span<Complex> data) {
  FftPlan plan(data.size(), FftDirection::kForward);
  plan.execute(data);
}

void ifft(std::span<Complex> data) {
  FftPlan plan(data.size(), FftDirection::kInverse);
  plan.execute(data);
}

void fft2d(std::span<Complex> data, std::size_t rows, std::size_t cols) {
  SAGE_CHECK(data.size() == rows * cols, "fft2d buffer size mismatch");
  FftPlan row_plan(cols, FftDirection::kForward);
  row_plan.execute_rows(data, rows);

  std::vector<Complex> scratch(data.size());
  transpose(std::span<const Complex>(data.data(), data.size()),
            std::span<Complex>(scratch), rows, cols);

  FftPlan col_plan(rows, FftDirection::kForward);
  col_plan.execute_rows(std::span<Complex>(scratch), cols);

  transpose(std::span<const Complex>(scratch), data, cols, rows);
}

}  // namespace sage::isspl
