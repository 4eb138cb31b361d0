// openSAGE -- the glue configuration: what the Alter glue-code generator
// emits and the run-time kernel executes.
//
// On the original system the generator emitted C source (function table,
// logical buffer definitions) compiled with the application libraries
// and the SAGE run-time. Here the generated artifact is a text
// configuration with exactly that content; the runtime parses it and
// binds kernel names against the function registry at load. Nothing
// reaches the engine except through this format, so the generation loop
// stays closed: a generator bug is an execution failure.
//
// Format (line-oriented, '#' comments):
//   sage-glue 1
//   application <name>
//   hardware <name>
//   nodes <count>
//   iterations-default <count>
//   function <id> name=<n> kernel=<k> threads=<t> role=<r>
//   thread <function-id> <thread-index> node=<rank>
//   port <function-id> name=<n> dir=<in|out> striping=<s> stripe_dim=<d>
//        elem_bytes=<b> dims=<d0>x<d1>...
//   buffer <id> src=<fn-id>.<port> dst=<fn-id>.<port>
//   schedule <rank> <fn-id>[,<fn-id>...]
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "model/app.hpp"
#include "runtime/striping.hpp"

namespace sage::runtime {

/// Hard limits imposed by the message tag encoding (see engine.cpp).
inline constexpr int kMaxFunctionThreads = 8;
inline constexpr int kMaxLogicalBuffers = 64;

struct PortConfig {
  std::string name;
  model::PortDirection direction = model::PortDirection::kIn;
  model::Striping striping = model::Striping::kStriped;
  int stripe_dim = 0;
  std::size_t elem_bytes = 0;
  std::vector<std::size_t> dims;

  std::size_t total_elems() const;
  std::size_t total_bytes() const { return total_elems() * elem_bytes; }
};

struct FunctionConfig {
  int id = -1;
  std::string name;
  std::string kernel;
  std::string role = "compute";  // source | compute | sink
  int threads = 1;
  /// Node rank per thread (size == threads).
  std::vector<int> thread_nodes;
  std::vector<PortConfig> ports;
  /// Kernel parameters (serialized as p_<key>=<value> fields).
  std::map<std::string, double> params;

  const PortConfig& port(std::string_view name) const;
  bool has_port(std::string_view name) const;
};

struct BufferConfig {
  int id = -1;
  int src_function = -1;
  std::string src_port;
  int dst_function = -1;
  std::string dst_port;
};

struct GlueConfig {
  int version = 1;
  std::string application;
  std::string hardware;
  int nodes = 0;
  int iterations_default = 1;
  std::vector<FunctionConfig> functions;   // indexed by id
  std::vector<BufferConfig> buffers;       // indexed by id
  /// Execution order per node rank (function-table ids).
  std::map<int, std::vector<int>> schedule;
  /// Instrumentation probes the generator placed (function ids). Empty
  /// means "instrument everything" (the default configuration); a
  /// non-empty list restricts function start/end events to these ids,
  /// mirroring the Visualizer's configurable probe placement.
  std::vector<int> probes;

  bool probed(int function_id) const;

  const FunctionConfig& function(int id) const;
  const BufferConfig& buffer(int id) const;

  /// Builds the stripe spec for one side of a buffer.
  StripeSpec stripe_spec(const FunctionConfig& fn, const PortConfig& port) const;

  /// Consistency checks: ids dense, endpoints resolve, port directions
  /// and sizes/types match per buffer, thread nodes within range,
  /// schedule covers exactly the functions with threads on that node,
  /// limits respected. Throws sage::ConfigError on the first failure.
  void validate() const;
};

/// The per-node schedules the code generator emits for `config`'s
/// placement: function-table ids in id order, filtered to the nodes
/// that host a thread of the function. recover() and the tuner re-emit
/// schedules with it after moving threads.
std::map<int, std::vector<int>> schedule_by_id(const GlueConfig& config);

/// Serializes to the textual format above (what the generator emits).
std::string serialize(const GlueConfig& config);

/// Parses the textual format; throws sage::ConfigError on malformed input.
GlueConfig parse_glue_config(std::string_view text);

}  // namespace sage::runtime
