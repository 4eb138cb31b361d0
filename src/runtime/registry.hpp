// openSAGE -- the function registry: binding glue-code kernel names to
// native leaf behaviours.
//
// "The entire software development environment integrates COTS-supplied
// components (compilers and run-time system, and libraries), along with
// custom, user-supplied software": functions in the model reference
// kernels by name; the runtime resolves those names against this
// registry when the function table loads, exactly as the generated glue
// code linked against the ISSPL function libraries.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/striping.hpp"

namespace sage::runtime {

/// A thread-local view of one port's data for a single invocation.
struct PortSlice {
  std::string name;
  std::span<std::byte> data;            // thread-local storage
  std::size_t elem_bytes = 0;
  std::vector<std::size_t> local_dims;  // dims of this thread's slice
  std::vector<std::size_t> global_dims;
  std::vector<Run> runs;                // global runs backing the slice

  /// Global element index corresponding to a local element index.
  std::size_t global_of_local(std::size_t local_index) const;

  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(data.data()), data.size() / sizeof(T)};
  }
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(data.data()), data.size() / sizeof(T)};
  }
};

/// Everything a kernel invocation sees.
class KernelContext {
 public:
  KernelContext(int thread, int num_threads, int iteration)
      : thread_(thread), num_threads_(num_threads), iteration_(iteration) {}

  int thread() const { return thread_; }
  int num_threads() const { return num_threads_; }
  int iteration() const { return iteration_; }

  const PortSlice& in(std::string_view port) const;
  PortSlice& out(std::string_view port);
  bool has_in(std::string_view port) const;
  bool has_out(std::string_view port) const;

  /// Function parameter (from the model, via the glue config).
  double param_or(std::string_view key, double fallback) const;

  /// Readies a context the engine bound once for its next firing: only
  /// the iteration and the result change between firings.
  void rearm(int iteration) {
    iteration_ = iteration;
    result_ = 0.0;
    has_result_ = false;
  }

  /// Records a scalar result (sinks publish checksums this way); the
  /// engine aggregates per function across threads and iterations.
  void set_result(double value) { result_ = value; has_result_ = true; }
  bool has_result() const { return has_result_; }
  double result() const { return result_; }

  // Bound by the engine once per firing site (not per call):
  std::vector<PortSlice> inputs;
  std::vector<PortSlice> outputs;
  std::map<std::string, double, std::less<>> params;

 private:
  int thread_;
  int num_threads_;
  int iteration_;
  double result_ = 0.0;
  bool has_result_ = false;
};

using Kernel = std::function<void(KernelContext&)>;

/// What a kernel does to the bytes of its output ports -- a fact about
/// the kernel (cf. SDF-AP's access patterns), which the memory planner
/// (memory_plan.hpp) uses to size and reuse staging.
enum class OutputAccess : std::uint8_t {
  /// The kernel may read an output before it writes it (an
  /// accumulator). Its outputs get private staging, zeroed at the start
  /// of every ticket, and the iterations of one ticket see what the
  /// previous iteration left there. The default.
  kReadModifyWrite,
  /// The kernel writes every byte of every output before it reads any
  /// of them, so the old contents never matter: the planner lets
  /// outputs share bytes by live range and never zeroes them.
  kOverwrite,
};

class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  /// Registers (or replaces) `name`. Declare kOverwrite only for a
  /// kernel that writes all of every output on every call; a kernel
  /// registered without an access keeps zeroed private outputs.
  void add(std::string name, Kernel kernel,
           OutputAccess access = OutputAccess::kReadModifyWrite);
  bool contains(std::string_view name) const;
  const Kernel& lookup(std::string_view name) const;
  /// The declared output access of `name`; throws like lookup().
  OutputAccess access(std::string_view name) const;
  std::vector<std::string> names() const;

 private:
  struct Entry {
    Kernel kernel;
    OutputAccess access = OutputAccess::kReadModifyWrite;
  };
  const Entry& entry(std::string_view name) const;

  std::map<std::string, Entry, std::less<>> kernels_;
};

/// Registry preloaded with the standard shelf kernels, every one
/// declared OutputAccess::kOverwrite:
///   matrix_source, matrix_sink, identity,
///   isspl.fft_rows, isspl.ifft_rows, isspl.corner_turn_local,
///   isspl.magnitude, isspl.window_rows, isspl.threshold, isspl.fir_rows,
///   isspl.scale
FunctionRegistry standard_registry();

/// The deterministic test signal shared by SAGE-modeled and hand-coded
/// benchmark versions (so outputs are directly comparable). Inline so the
/// source kernels' fill loops vectorize; the integer mix is cheap and
/// aperiodic-looking.
inline std::complex<float> test_pattern(std::size_t global_index,
                                        int iteration) {
  const auto x = static_cast<std::uint64_t>(global_index) * 2654435761ull +
                 static_cast<std::uint64_t>(iteration) * 97531ull;
  const float re = static_cast<float>((x >> 16) & 0x3FF) / 512.0f - 1.0f;
  const float im = static_cast<float>((x >> 26) & 0x3FF) / 512.0f - 1.0f;
  return {re, im};
}

/// Order-insensitive checksum of a complex block (sum of re + im).
double block_checksum(std::span<const std::complex<float>> data);

}  // namespace sage::runtime
