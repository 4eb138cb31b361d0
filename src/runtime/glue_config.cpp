#include "runtime/glue_config.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::runtime {

using support::split;
using support::split_ws;
using support::trim;

std::size_t PortConfig::total_elems() const {
  std::size_t total = 1;
  for (std::size_t d : dims) total *= d;
  return total;
}

const PortConfig& FunctionConfig::port(std::string_view port_name) const {
  for (const PortConfig& p : ports) {
    if (p.name == port_name) return p;
  }
  raise<ConfigError>("function '", name, "' has no port '",
                     std::string(port_name), "'");
}

bool FunctionConfig::has_port(std::string_view port_name) const {
  return std::any_of(ports.begin(), ports.end(),
                     [&](const PortConfig& p) { return p.name == port_name; });
}

const FunctionConfig& GlueConfig::function(int id) const {
  SAGE_CHECK_AS(ConfigError, id >= 0 && id < static_cast<int>(functions.size()),
                "function id ", id, " out of range");
  return functions[static_cast<std::size_t>(id)];
}

const BufferConfig& GlueConfig::buffer(int id) const {
  SAGE_CHECK_AS(ConfigError, id >= 0 && id < static_cast<int>(buffers.size()),
                "buffer id ", id, " out of range");
  return buffers[static_cast<std::size_t>(id)];
}

bool GlueConfig::probed(int function_id) const {
  return probes.empty() ||
         std::find(probes.begin(), probes.end(), function_id) != probes.end();
}

StripeSpec GlueConfig::stripe_spec(const FunctionConfig& fn,
                                   const PortConfig& port) const {
  StripeSpec spec;
  spec.dims = port.dims;
  spec.striping = port.striping;
  spec.stripe_dim = port.stripe_dim;
  spec.threads = fn.threads;
  return spec;
}

void GlueConfig::validate() const {
  SAGE_CHECK_AS(ConfigError, version == 1, "unsupported glue version ",
                version);
  SAGE_CHECK_AS(ConfigError, nodes > 0, "glue config has no nodes");
  SAGE_CHECK_AS(ConfigError, !functions.empty(),
                "glue config has no functions");
  SAGE_CHECK_AS(ConfigError,
                static_cast<int>(buffers.size()) <= kMaxLogicalBuffers,
                "too many logical buffers (", buffers.size(), " > ",
                kMaxLogicalBuffers, ")");

  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionConfig& fn = functions[i];
    SAGE_CHECK_AS(ConfigError, fn.id == static_cast<int>(i),
                  "function ids must be dense 0..N-1; slot ", i, " holds id ",
                  fn.id);
    SAGE_CHECK_AS(ConfigError, !fn.kernel.empty(), "function '", fn.name,
                  "' has no kernel");
    SAGE_CHECK_AS(ConfigError,
                  fn.threads >= 1 && fn.threads <= kMaxFunctionThreads,
                  "function '", fn.name, "': thread count ", fn.threads,
                  " outside [1, ", kMaxFunctionThreads, "]");
    SAGE_CHECK_AS(ConfigError,
                  static_cast<int>(fn.thread_nodes.size()) == fn.threads,
                  "function '", fn.name, "': ", fn.thread_nodes.size(),
                  " thread placements for ", fn.threads, " threads");
    for (int node : fn.thread_nodes) {
      SAGE_CHECK_AS(ConfigError, node >= 0 && node < nodes,
                    "function '", fn.name, "': thread node ", node,
                    " out of range");
    }
    for (const PortConfig& port : fn.ports) {
      SAGE_CHECK_AS(ConfigError, port.elem_bytes > 0, "port '", fn.name, ".",
                    port.name, "': zero element size");
      StripeSpec spec = stripe_spec(fn, port);
      spec.validate();  // throws RuntimeError; wrap
    }
  }

  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const BufferConfig& buf = buffers[i];
    SAGE_CHECK_AS(ConfigError, buf.id == static_cast<int>(i),
                  "buffer ids must be dense 0..N-1");
    const FunctionConfig& src_fn = function(buf.src_function);
    const FunctionConfig& dst_fn = function(buf.dst_function);
    const PortConfig& src = src_fn.port(buf.src_port);
    const PortConfig& dst = dst_fn.port(buf.dst_port);
    SAGE_CHECK_AS(ConfigError, src.direction == model::PortDirection::kOut,
                  "buffer ", buf.id, ": source must be an out-port");
    SAGE_CHECK_AS(ConfigError, dst.direction == model::PortDirection::kIn,
                  "buffer ", buf.id, ": destination must be an in-port");
    SAGE_CHECK_AS(ConfigError, src.elem_bytes == dst.elem_bytes,
                  "buffer ", buf.id, ": element size mismatch");
    SAGE_CHECK_AS(ConfigError, src.total_elems() == dst.total_elems(),
                  "buffer ", buf.id, ": element count mismatch (",
                  src.total_elems(), " vs ", dst.total_elems(), ")");
  }

  for (int id : probes) {
    (void)function(id);  // range check
  }

  // Schedule: per node, exactly the functions with a thread on the node,
  // in a valid order (we only check coverage here; the engine follows the
  // schedule as given -- wrong orders deadlock and fail the recv timeout).
  for (const auto& [rank, order] : schedule) {
    SAGE_CHECK_AS(ConfigError, rank >= 0 && rank < nodes,
                  "schedule for out-of-range node ", rank);
    std::set<int> seen;
    for (int id : order) {
      (void)function(id);
      SAGE_CHECK_AS(ConfigError, seen.insert(id).second,
                    "node ", rank, " schedules function ", id, " twice");
    }
  }
  for (const FunctionConfig& fn : functions) {
    for (int t = 0; t < fn.threads; ++t) {
      const int node = fn.thread_nodes[static_cast<std::size_t>(t)];
      auto it = schedule.find(node);
      SAGE_CHECK_AS(ConfigError, it != schedule.end(),
                    "function '", fn.name, "' thread ", t, " on node ", node,
                    " but that node has no schedule");
      SAGE_CHECK_AS(ConfigError,
                    std::find(it->second.begin(), it->second.end(), fn.id) !=
                        it->second.end(),
                    "function '", fn.name, "' missing from node ", node,
                    " schedule");
    }
  }
}

std::map<int, std::vector<int>> schedule_by_id(const GlueConfig& config) {
  std::map<int, std::vector<int>> schedule;
  for (int r = 0; r < config.nodes; ++r) {
    std::vector<int> order;
    for (const FunctionConfig& fn : config.functions) {
      if (std::find(fn.thread_nodes.begin(), fn.thread_nodes.end(), r) !=
          fn.thread_nodes.end()) {
        order.push_back(fn.id);
      }
    }
    if (!order.empty()) schedule[r] = std::move(order);
  }
  return schedule;
}

namespace {

std::string dims_to_string(const std::vector<std::size_t>& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) out += 'x';
    out += std::to_string(dims[i]);
  }
  return out;
}

std::vector<std::size_t> dims_from_string(std::string_view text) {
  std::vector<std::size_t> dims;
  for (const std::string& part : split(text, 'x')) {
    dims.push_back(static_cast<std::size_t>(support::parse_int(part)));
  }
  return dims;
}

/// key=value fields after the positional head of a config line.
std::map<std::string, std::string> parse_fields(
    const std::vector<std::string>& tokens, std::size_t start) {
  std::map<std::string, std::string> fields;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    SAGE_CHECK_AS(ConfigError, eq != std::string::npos,
                  "malformed field '", tokens[i], "' (want key=value)");
    fields[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return fields;
}

const std::string& field(const std::map<std::string, std::string>& fields,
                         const std::string& key) {
  auto it = fields.find(key);
  SAGE_CHECK_AS(ConfigError, it != fields.end(), "missing field '", key, "'");
  return it->second;
}

}  // namespace

std::string serialize(const GlueConfig& config) {
  std::ostringstream os;
  os << "# SAGE glue configuration (generated)\n";
  os << "sage-glue " << config.version << "\n";
  os << "application " << config.application << "\n";
  os << "hardware " << config.hardware << "\n";
  os << "nodes " << config.nodes << "\n";
  os << "iterations-default " << config.iterations_default << "\n";

  os << "\n# function table (executed by table id)\n";
  for (const FunctionConfig& fn : config.functions) {
    os << "function " << fn.id << " name=" << fn.name
       << " kernel=" << fn.kernel << " threads=" << fn.threads
       << " role=" << fn.role;
    for (const auto& [key, value] : fn.params) {
      os << " p_" << key << "=" << value;
    }
    os << "\n";
    for (int t = 0; t < fn.threads; ++t) {
      os << "thread " << fn.id << " " << t
         << " node=" << fn.thread_nodes[static_cast<std::size_t>(t)] << "\n";
    }
    for (const PortConfig& port : fn.ports) {
      os << "port " << fn.id << " name=" << port.name
         << " dir=" << model::to_string(port.direction)
         << " striping=" << model::to_string(port.striping)
         << " stripe_dim=" << port.stripe_dim
         << " elem_bytes=" << port.elem_bytes
         << " dims=" << dims_to_string(port.dims) << "\n";
    }
  }

  os << "\n# logical buffers\n";
  for (const BufferConfig& buf : config.buffers) {
    os << "buffer " << buf.id << " src=" << buf.src_function << "."
       << buf.src_port << " dst=" << buf.dst_function << "." << buf.dst_port
       << "\n";
  }

  if (!config.probes.empty()) {
    os << "\n# instrumentation probes\n";
    for (int id : config.probes) {
      os << "probe " << id << "\n";
    }
  }

  os << "\n# per-node schedules\n";
  for (const auto& [rank, order] : config.schedule) {
    os << "schedule " << rank << " ";
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i) os << ",";
      os << order[i];
    }
    os << "\n";
  }
  return os.str();
}

GlueConfig parse_glue_config(std::string_view text) {
  GlueConfig config;
  bool saw_header = false;
  int line_number = 0;

  for (const std::string& raw_line : split(text, '\n')) {
    ++line_number;
    const std::string_view line = trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tokens = split_ws(line);
    const std::string& head = tokens[0];

    try {
      if (head == "sage-glue") {
        config.version = static_cast<int>(support::parse_int(tokens.at(1)));
        saw_header = true;
      } else if (head == "application") {
        config.application = tokens.at(1);
      } else if (head == "hardware") {
        config.hardware = tokens.at(1);
      } else if (head == "nodes") {
        config.nodes = static_cast<int>(support::parse_int(tokens.at(1)));
      } else if (head == "iterations-default") {
        config.iterations_default =
            static_cast<int>(support::parse_int(tokens.at(1)));
      } else if (head == "function") {
        FunctionConfig fn;
        fn.id = static_cast<int>(support::parse_int(tokens.at(1)));
        const auto fields = parse_fields(tokens, 2);
        fn.name = field(fields, "name");
        fn.kernel = field(fields, "kernel");
        fn.threads = static_cast<int>(support::parse_int(field(fields, "threads")));
        fn.role = field(fields, "role");
        for (const auto& [key, value] : fields) {
          if (support::starts_with(key, "p_")) {
            fn.params[key.substr(2)] = support::parse_double(value);
          }
        }
        fn.thread_nodes.assign(static_cast<std::size_t>(std::max(fn.threads, 0)),
                               -1);
        SAGE_CHECK_AS(ConfigError,
                      fn.id == static_cast<int>(config.functions.size()),
                      "function ids must appear in order");
        config.functions.push_back(std::move(fn));
      } else if (head == "thread") {
        const int fn_id = static_cast<int>(support::parse_int(tokens.at(1)));
        const int t = static_cast<int>(support::parse_int(tokens.at(2)));
        const auto fields = parse_fields(tokens, 3);
        SAGE_CHECK_AS(ConfigError,
                      fn_id >= 0 &&
                          fn_id < static_cast<int>(config.functions.size()),
                      "thread line before its function");
        FunctionConfig& fn = config.functions[static_cast<std::size_t>(fn_id)];
        SAGE_CHECK_AS(ConfigError, t >= 0 && t < fn.threads,
                      "thread index out of range");
        fn.thread_nodes[static_cast<std::size_t>(t)] =
            static_cast<int>(support::parse_int(field(fields, "node")));
      } else if (head == "port") {
        const int fn_id = static_cast<int>(support::parse_int(tokens.at(1)));
        const auto fields = parse_fields(tokens, 2);
        SAGE_CHECK_AS(ConfigError,
                      fn_id >= 0 &&
                          fn_id < static_cast<int>(config.functions.size()),
                      "port line before its function");
        PortConfig port;
        port.name = field(fields, "name");
        port.direction = model::port_direction_from_string(field(fields, "dir"));
        port.striping = model::striping_from_string(field(fields, "striping"));
        port.stripe_dim =
            static_cast<int>(support::parse_int(field(fields, "stripe_dim")));
        port.elem_bytes = static_cast<std::size_t>(
            support::parse_int(field(fields, "elem_bytes")));
        port.dims = dims_from_string(field(fields, "dims"));
        config.functions[static_cast<std::size_t>(fn_id)].ports.push_back(
            std::move(port));
      } else if (head == "buffer") {
        BufferConfig buf;
        buf.id = static_cast<int>(support::parse_int(tokens.at(1)));
        const auto fields = parse_fields(tokens, 2);
        const auto parse_endpoint = [](const std::string& spec, int& fn_id,
                                       std::string& port_name) {
          const auto dot = spec.find('.');
          SAGE_CHECK_AS(ConfigError, dot != std::string::npos,
                        "endpoint '", spec, "' must be <fn-id>.<port>");
          fn_id = static_cast<int>(support::parse_int(spec.substr(0, dot)));
          port_name = spec.substr(dot + 1);
        };
        parse_endpoint(field(fields, "src"), buf.src_function, buf.src_port);
        parse_endpoint(field(fields, "dst"), buf.dst_function, buf.dst_port);
        SAGE_CHECK_AS(ConfigError,
                      buf.id == static_cast<int>(config.buffers.size()),
                      "buffer ids must appear in order");
        config.buffers.push_back(std::move(buf));
      } else if (head == "probe") {
        config.probes.push_back(
            static_cast<int>(support::parse_int(tokens.at(1))));
      } else if (head == "schedule") {
        const int rank = static_cast<int>(support::parse_int(tokens.at(1)));
        std::vector<int> order;
        if (tokens.size() > 2) {
          for (const std::string& part : split(tokens.at(2), ',')) {
            if (!part.empty()) {
              order.push_back(static_cast<int>(support::parse_int(part)));
            }
          }
        }
        config.schedule[rank] = std::move(order);
      } else {
        raise<ConfigError>("unknown directive '", head, "'");
      }
    } catch (const ConfigError&) {
      throw;
    } catch (const Error& e) {
      raise<ConfigError>("glue config line ", line_number, ": ", e.what());
    } catch (const std::out_of_range&) {
      raise<ConfigError>("glue config line ", line_number,
                         ": missing positional token");
    }
  }

  SAGE_CHECK_AS(ConfigError, saw_header,
                "not a glue configuration (no sage-glue header)");
  return config;
}

}  // namespace sage::runtime
