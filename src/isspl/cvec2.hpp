// openSAGE -- two single-precision complex values per 16-byte vector.
//
// Internal to the ISSPL leaf kernels (fft.cpp, transpose.cpp). Built on
// the GCC/Clang generic vector extensions, which the compiler lowers to
// the target's baseline SIMD unit (SSE2 on x86-64) without intrinsics
// or target flags. Lanes are
// (re0, im0, re1, im1); loads and stores go through memcpy, so any
// std::complex<float>* is a valid address.
#pragma once

#include <complex>
#include <cstdint>
#include <cstring>

namespace sage::isspl::detail {

using CVec2 = float __attribute__((vector_size(16)));
using CVec2Bits = std::uint32_t __attribute__((vector_size(16)));

inline CVec2 load2(const std::complex<float>* p) {
  CVec2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(std::complex<float>* p, CVec2 v) {
  std::memcpy(static_cast<void*>(p), &v, sizeof v);
}

/// (a, b) in one vector.
inline CVec2 join2(std::complex<float> a, std::complex<float> b) {
  return CVec2{a.real(), a.imag(), b.real(), b.imag()};
}

/// (lo(a), lo(b)) and (hi(a), hi(b)): the complex lanes of two vectors
/// regrouped. Together they are a 2x2 complex transpose.
inline CVec2 lo2(CVec2 a, CVec2 b) {
  return __builtin_shufflevector(a, b, 0, 1, 4, 5);
}
inline CVec2 hi2(CVec2 a, CVec2 b) {
  return __builtin_shufflevector(a, b, 2, 3, 6, 7);
}

/// (lo(a), hi(b)).
inline CVec2 splice2(CVec2 a, CVec2 b) {
  return __builtin_shufflevector(a, b, 0, 1, 6, 7);
}

/// Sign masks: flipping the sign bit is exact negation. kTimesMinusI /
/// kTimesPlusI serve rotate(): multiplying by -i is (im, -re), by +i is
/// (-im, re).
inline constexpr CVec2Bits kNegateReal = {0x80000000u, 0, 0x80000000u, 0};
inline constexpr CVec2Bits kTimesMinusI = {0, 0x80000000u, 0, 0x80000000u};
inline constexpr CVec2Bits kTimesPlusI = kNegateReal;

inline CVec2 flip_signs(CVec2 v, CVec2Bits mask) {
  return reinterpret_cast<CVec2>(reinterpret_cast<CVec2Bits>(v) ^ mask);
}

/// Lane-wise w * x, each lane exactly (wr*xr - wi*xi, wr*xi + wi*xr):
/// the products and sums the scalar std::complex<float> multiply rounds,
/// so finite results are bit-identical to it. The real lane adds the
/// negated product, which IEEE 754 defines as the subtraction.
inline CVec2 cmul(CVec2 w, CVec2 x) {
  const CVec2 wr = __builtin_shufflevector(w, w, 0, 0, 2, 2);
  const CVec2 wi = __builtin_shufflevector(w, w, 1, 1, 3, 3);
  const CVec2 xs = __builtin_shufflevector(x, x, 1, 0, 3, 2);
  const CVec2 a = wr * x;   // (wr*xr, wr*xi)
  const CVec2 b = wi * xs;  // (wi*xi, wi*xr)
  return a + flip_signs(b, kNegateReal);
}

/// Lane-wise multiply by -i or +i (per `mask`): a component swap and an
/// exact sign flip, no rounding.
inline CVec2 rotate(CVec2 v, CVec2Bits mask) {
  return flip_signs(__builtin_shufflevector(v, v, 1, 0, 3, 2), mask);
}

}  // namespace sage::isspl::detail
