// ISSPL leaf-kernel microbenchmarks: the compute primitives both the
// hand-coded and generated benchmark versions spend their time in.
#include <benchmark/benchmark.h>

#include <complex>
#include <vector>

#include "isspl/fft.hpp"
#include "isspl/transpose.hpp"
#include "isspl/vector_ops.hpp"

namespace {

using namespace sage;
using Complex = std::complex<float>;

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  isspl::FftPlan plan(n, isspl::FftDirection::kForward);
  std::vector<Complex> data(n, Complex(1.0f, -1.0f));
  for (auto _ : state) {
    plan.execute(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1d)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Fft1dRadix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto algorithm = static_cast<isspl::FftAlgorithm>(state.range(1));
  isspl::FftPlan plan(n, isspl::FftDirection::kForward, algorithm);
  std::vector<Complex> data(n, Complex(1.0f, -1.0f));
  for (auto _ : state) {
    plan.execute(data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft1dRadix)
    ->Args({1024, static_cast<int>(isspl::FftAlgorithm::kRadix2)})
    ->Args({1024, static_cast<int>(isspl::FftAlgorithm::kRadix4)})
    ->Args({4096, static_cast<int>(isspl::FftAlgorithm::kRadix2)})
    ->Args({4096, static_cast<int>(isspl::FftAlgorithm::kRadix4)});

void BM_FftRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  isspl::FftPlan plan(n, isspl::FftDirection::kForward);
  std::vector<Complex> data(rows * n, Complex(0.5f, 0.25f));
  for (auto _ : state) {
    plan.execute_rows(data, rows);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_FftRows)->Arg(256)->Arg(1024);

// Out of place at 512: the kMixed42 path (fused gather + radix-2 seed,
// then the radix-4 ladder) the fft_rows/fft_cols kernels run on each
// 512-point line of a 512^2 2D FFT.
void BM_FftRowsOutOfPlace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  isspl::FftPlan plan(n, isspl::FftDirection::kForward);
  std::vector<Complex> in(rows * n);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = Complex(static_cast<float>(i % 17) - 8.0f,
                    static_cast<float>(i % 13) - 6.0f);
  }
  std::vector<Complex> out(in.size());
  for (auto _ : state) {
    plan.execute_rows(std::span<const Complex>(in), std::span<Complex>(out),
                      rows);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * n));
}
BENCHMARK(BM_FftRowsOutOfPlace)->Arg(512);

// rows x cols complex transpose; 512 x 256 is the per-node corner-turn
// shape of a 512^2 2D FFT on two nodes.
void BM_Transpose(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  std::vector<Complex> in(rows * cols, Complex(1.0f, 0.0f));
  std::vector<Complex> out(rows * cols);
  for (auto _ : state) {
    isspl::transpose(std::span<const Complex>(in), std::span<Complex>(out),
                     rows, cols);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(rows * cols * sizeof(Complex)));
}
BENCHMARK(BM_Transpose)
    ->Args({256, 256})
    ->Args({1024, 1024})
    ->Args({512, 256});

void BM_PackColumnBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n / 8;
  const std::size_t ncols = n / 8;
  std::vector<Complex> matrix(rows * n);
  std::vector<Complex> block(rows * ncols);
  for (auto _ : state) {
    isspl::pack_column_block(std::span<const Complex>(matrix), rows, n, 0,
                             ncols, std::span<Complex>(block));
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_PackColumnBlock)->Arg(1024);

void BM_Magnitude(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Complex> in(n, Complex(3.0f, 4.0f));
  std::vector<float> out(n);
  for (auto _ : state) {
    isspl::vmag(in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Magnitude)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
