#include "runtime/registry.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace sage::runtime {

std::size_t PortSlice::global_of_local(std::size_t local_index) const {
  std::size_t cursor = 0;
  for (const Run& run : runs) {
    if (local_index < cursor + run.length) {
      return run.global_offset + (local_index - cursor);
    }
    cursor += run.length;
  }
  raise<RuntimeError>("local index ", local_index,
                      " out of range for port slice '", name, "'");
}

const PortSlice& KernelContext::in(std::string_view port) const {
  for (const PortSlice& slice : inputs) {
    if (slice.name == port) return slice;
  }
  raise<RuntimeError>("kernel asked for missing in-port '", std::string(port),
                      "'");
}

PortSlice& KernelContext::out(std::string_view port) {
  for (PortSlice& slice : outputs) {
    if (slice.name == port) return slice;
  }
  raise<RuntimeError>("kernel asked for missing out-port '",
                      std::string(port), "'");
}

bool KernelContext::has_in(std::string_view port) const {
  return std::any_of(inputs.begin(), inputs.end(),
                     [&](const PortSlice& s) { return s.name == port; });
}

bool KernelContext::has_out(std::string_view port) const {
  return std::any_of(outputs.begin(), outputs.end(),
                     [&](const PortSlice& s) { return s.name == port; });
}

double KernelContext::param_or(std::string_view key, double fallback) const {
  auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void FunctionRegistry::add(std::string name, Kernel kernel,
                           OutputAccess access) {
  SAGE_CHECK_AS(RuntimeError, kernel != nullptr, "null kernel for '", name,
                "'");
  kernels_.insert_or_assign(std::move(name), Entry{std::move(kernel), access});
}

bool FunctionRegistry::contains(std::string_view name) const {
  return kernels_.find(name) != kernels_.end();
}

const FunctionRegistry::Entry& FunctionRegistry::entry(
    std::string_view name) const {
  auto it = kernels_.find(name);
  if (it == kernels_.end()) {
    raise<RuntimeError>("no kernel registered for '", std::string(name),
                        "' -- is the function library linked?");
  }
  return it->second;
}

const Kernel& FunctionRegistry::lookup(std::string_view name) const {
  return entry(name).kernel;
}

OutputAccess FunctionRegistry::access(std::string_view name) const {
  return entry(name).access;
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(kernels_.size());
  for (const auto& [name, kernel] : kernels_) out.push_back(name);
  return out;
}

double block_checksum(std::span<const std::complex<float>> data) {
  double acc = 0.0;
  for (const auto& v : data) {
    acc += static_cast<double>(v.real()) + static_cast<double>(v.imag());
  }
  return acc;
}

}  // namespace sage::runtime
