// openSAGE -- application model (the Designer's application editor).
//
// An application is a data-flow graph: function blocks (possibly nested
// in hierarchical blocks) with typed ports, connected by arcs. Port
// striping declares how the runtime distributes data over the threads of
// the host function:
//   striped    -- data is sliced evenly among the threads;
//   replicated -- every thread sees the whole data.
// All state lives in ModelObject properties so Alter sees everything.
//
// Conventions:
//   object type "application" -- the graph container
//   object type "block"       -- hierarchical grouping of functions
//   object type "function"    -- leaf behaviour; props: kernel (registry
//                                name), threads (int), work_flops (double),
//                                role ("source"|"compute"|"sink")
//   object type "port"        -- child of function; props: direction
//                                ("in"|"out"), striping ("striped"|
//                                "replicated"), stripe_dim (int), datatype
//                                (name), dims (list of int)
//   object type "arc"         -- child of application; props: src_function,
//                                src_port, dst_function, dst_port (names)
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "model/object.hpp"

namespace sage::model {

enum class PortDirection { kIn, kOut };
enum class Striping { kStriped, kReplicated };

std::string to_string(PortDirection direction);
std::string to_string(Striping striping);
PortDirection port_direction_from_string(std::string_view s);
Striping striping_from_string(std::string_view s);

/// Parsed, validated view of a port object.
struct PortView {
  const ModelObject* object = nullptr;
  PortDirection direction = PortDirection::kIn;
  Striping striping = Striping::kStriped;
  int stripe_dim = 0;
  std::string datatype;
  std::vector<std::size_t> dims;

  std::size_t total_elems() const;
  std::string function_name() const { return object->parent()->name(); }
};

/// Parsed, resolved view of an arc object.
struct ArcView {
  const ModelObject* object = nullptr;
  const ModelObject* src_function = nullptr;
  const ModelObject* src_port = nullptr;
  const ModelObject* dst_function = nullptr;
  const ModelObject* dst_port = nullptr;
};

// --- construction ------------------------------------------------------------

/// Adds an "application" child to `root`.
ModelObject& add_application(ModelObject& root, std::string name);

/// Adds a hierarchical "block" to an application or another block.
ModelObject& add_block(ModelObject& parent, std::string name);

/// Adds a function. `kernel` names a registered leaf behaviour; `threads`
/// is the function's thread count; `work_flops` is the per-iteration work
/// estimate AToT uses for load balancing.
ModelObject& add_function(ModelObject& parent, std::string name,
                          std::string kernel, int threads = 1,
                          double work_flops = 0.0);

/// Adds a port to a function.
ModelObject& add_port(ModelObject& function, std::string name,
                      PortDirection direction, Striping striping,
                      std::string datatype, std::vector<std::size_t> dims,
                      int stripe_dim = 0);

/// Connects "function.port" endpoints with an arc; endpoints must exist,
/// source must be an out-port, destination an in-port.
ModelObject& connect(ModelObject& application, std::string_view src,
                     std::string_view dst);

// --- lookup / views -----------------------------------------------------------

/// The application object that (transitively) contains `obj`.
ModelObject& enclosing_application(ModelObject& obj);

/// All functions of the application, including ones nested in blocks,
/// in stable (definition) order.
std::vector<ModelObject*> functions(const ModelObject& application);

/// Function by name anywhere in the application; throws when missing.
ModelObject& find_function(const ModelObject& application,
                           std::string_view name);

/// Port of a function by name; throws when missing.
ModelObject& find_port(const ModelObject& function, std::string_view name);

/// All arcs of the application.
std::vector<ModelObject*> arcs(const ModelObject& application);

PortView port_view(const ModelObject& port);
ArcView arc_view(const ModelObject& application, const ModelObject& arc);

/// Functions in dependency order; throws sage::ModelError on a cycle.
std::vector<ModelObject*> topological_order(const ModelObject& application);

// --- data types ----------------------------------------------------------------

/// Adds a "datatypes" container populated with the built-in element types
/// (cfloat/8, float/4, int32/4, byte/1).
ModelObject& add_standard_datatypes(ModelObject& root);

/// Adds one datatype definition.
ModelObject& add_datatype(ModelObject& datatypes, std::string name,
                          std::string element, std::size_t element_bytes);

/// Element size in bytes of a named datatype; throws when unknown.
std::size_t datatype_bytes(const ModelObject& root, std::string_view name);

}  // namespace sage::model
