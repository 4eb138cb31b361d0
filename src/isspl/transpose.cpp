#include "isspl/transpose.hpp"

#include <algorithm>
#include <type_traits>

#include "isspl/cvec2.hpp"
#include "support/error.hpp"

namespace sage::isspl {

namespace {

constexpr std::size_t kBlock = 32;  // elements per cache tile edge

/// Complex transpose for even rows and cols: the cache tiles are walked
/// in 2x2 element tiles, each two vector loads (two input rows) and two
/// vector stores (two output rows).
void transpose_complex_2x2(const std::complex<float>* in,
                           std::complex<float>* out, std::size_t rows,
                           std::size_t cols) {
  using namespace detail;
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rb + kBlock, rows);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cb + kBlock, cols);
      for (std::size_t r = rb; r < rend; r += 2) {
        for (std::size_t c = cb; c < cend; c += 2) {
          const CVec2 a = load2(in + r * cols + c);
          const CVec2 b = load2(in + (r + 1) * cols + c);
          store2(out + c * rows + r, lo2(a, b));
          store2(out + (c + 1) * rows + r, hi2(a, b));
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void transpose(std::span<const T> in, std::span<T> out, std::size_t rows,
               std::size_t cols) {
  SAGE_CHECK(in.size() == rows * cols, "transpose: input size mismatch");
  SAGE_CHECK(out.size() == rows * cols, "transpose: output size mismatch");
  SAGE_CHECK(in.data() != out.data(), "transpose: buffers must not alias");

  if constexpr (std::is_same_v<T, std::complex<float>>) {
    if (rows % 2 == 0 && cols % 2 == 0) {
      transpose_complex_2x2(in.data(), out.data(), rows, cols);
      return;
    }
  }
  for (std::size_t rb = 0; rb < rows; rb += kBlock) {
    const std::size_t rend = std::min(rb + kBlock, rows);
    for (std::size_t cb = 0; cb < cols; cb += kBlock) {
      const std::size_t cend = std::min(cb + kBlock, cols);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          out[c * rows + r] = in[r * cols + c];
        }
      }
    }
  }
}

template <typename T>
void transpose_square_inplace(std::span<T> data, std::size_t n) {
  SAGE_CHECK(data.size() == n * n, "transpose_square_inplace: size mismatch");
  for (std::size_t rb = 0; rb < n; rb += kBlock) {
    const std::size_t rend = std::min(rb + kBlock, n);
    for (std::size_t cb = rb; cb < n; cb += kBlock) {
      const std::size_t cend = std::min(cb + kBlock, n);
      for (std::size_t r = rb; r < rend; ++r) {
        const std::size_t cstart = (cb == rb) ? r + 1 : cb;
        for (std::size_t c = cstart; c < cend; ++c) {
          std::swap(data[r * n + c], data[c * n + r]);
        }
      }
    }
  }
}

template <typename T>
void pack_column_block(std::span<const T> matrix, std::size_t rows,
                       std::size_t cols, std::size_t col0, std::size_t ncols,
                       std::span<T> block) {
  SAGE_CHECK(matrix.size() == rows * cols, "pack_column_block: matrix size");
  SAGE_CHECK(col0 + ncols <= cols, "pack_column_block: column range");
  SAGE_CHECK(block.size() == rows * ncols, "pack_column_block: block size");
  for (std::size_t r = 0; r < rows; ++r) {
    const T* src = matrix.data() + r * cols + col0;
    T* dst = block.data() + r * ncols;
    std::copy(src, src + ncols, dst);
  }
}

template <typename T>
void unpack_column_block(std::span<const T> block, std::size_t rows,
                         std::size_t cols, std::size_t col0, std::size_t ncols,
                         std::span<T> matrix) {
  SAGE_CHECK(matrix.size() == rows * cols, "unpack_column_block: matrix size");
  SAGE_CHECK(col0 + ncols <= cols, "unpack_column_block: column range");
  SAGE_CHECK(block.size() == rows * ncols, "unpack_column_block: block size");
  for (std::size_t r = 0; r < rows; ++r) {
    const T* src = block.data() + r * ncols;
    T* dst = matrix.data() + r * cols + col0;
    std::copy(src, src + ncols, dst);
  }
}

template void transpose<std::complex<float>>(
    std::span<const std::complex<float>>, std::span<std::complex<float>>,
    std::size_t, std::size_t);
template void transpose<float>(std::span<const float>, std::span<float>,
                               std::size_t, std::size_t);
template void transpose<double>(std::span<const double>, std::span<double>,
                                std::size_t, std::size_t);
template void transpose<int>(std::span<const int>, std::span<int>, std::size_t,
                             std::size_t);
template void transpose_square_inplace<std::complex<float>>(
    std::span<std::complex<float>>, std::size_t);
template void transpose_square_inplace<int>(std::span<int>, std::size_t);
template void pack_column_block<std::complex<float>>(
    std::span<const std::complex<float>>, std::size_t, std::size_t,
    std::size_t, std::size_t, std::span<std::complex<float>>);
template void pack_column_block<int>(std::span<const int>, std::size_t,
                                     std::size_t, std::size_t, std::size_t,
                                     std::span<int>);
template void unpack_column_block<std::complex<float>>(
    std::span<const std::complex<float>>, std::size_t, std::size_t,
    std::size_t, std::size_t, std::span<std::complex<float>>);
template void unpack_column_block<int>(std::span<const int>, std::size_t,
                                       std::size_t, std::size_t, std::size_t,
                                       std::span<int>);

}  // namespace sage::isspl
