#include "model/app.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::model {

std::string to_string(PortDirection direction) {
  return direction == PortDirection::kIn ? "in" : "out";
}

std::string to_string(Striping striping) {
  return striping == Striping::kStriped ? "striped" : "replicated";
}

PortDirection port_direction_from_string(std::string_view s) {
  if (s == "in") return PortDirection::kIn;
  if (s == "out") return PortDirection::kOut;
  raise<ModelError>("unknown port direction '", std::string(s), "'");
}

Striping striping_from_string(std::string_view s) {
  if (s == "striped") return Striping::kStriped;
  if (s == "replicated") return Striping::kReplicated;
  raise<ModelError>("unknown striping '", std::string(s), "'");
}

std::size_t PortView::total_elems() const {
  std::size_t total = 1;
  for (std::size_t d : dims) total *= d;
  return total;
}

ModelObject& add_application(ModelObject& root, std::string name) {
  SAGE_CHECK_AS(ModelError, root.find_child("application", name) == nullptr,
                "application '", name, "' already exists");
  return root.add_child("application", std::move(name));
}

ModelObject& add_block(ModelObject& parent, std::string name) {
  SAGE_CHECK_AS(ModelError,
                parent.type() == "application" || parent.type() == "block",
                "blocks belong to applications or blocks, not ",
                parent.type());
  return parent.add_child("block", std::move(name));
}

ModelObject& add_function(ModelObject& parent, std::string name,
                          std::string kernel, int threads,
                          double work_flops) {
  SAGE_CHECK_AS(ModelError,
                parent.type() == "application" || parent.type() == "block",
                "functions belong to applications or blocks, not ",
                parent.type());
  SAGE_CHECK_AS(ModelError, threads >= 1, "function '", name,
                "' needs >= 1 thread, got ", threads);
  ModelObject& app = enclosing_application(parent);
  for (const ModelObject* existing : functions(app)) {
    SAGE_CHECK_AS(ModelError, existing->name() != name,
                  "function name '", name, "' is not unique in application '",
                  app.name(), "'");
  }
  ModelObject& fn = parent.add_child("function", std::move(name));
  fn.set_property("kernel", std::move(kernel));
  fn.set_property("threads", threads);
  fn.set_property("work_flops", work_flops);
  fn.set_property("role", "compute");
  return fn;
}

ModelObject& add_port(ModelObject& function, std::string name,
                      PortDirection direction, Striping striping,
                      std::string datatype, std::vector<std::size_t> dims,
                      int stripe_dim) {
  SAGE_CHECK_AS(ModelError, function.type() == "function",
                "ports belong to functions, not ", function.type());
  SAGE_CHECK_AS(ModelError, function.find_child("port", name) == nullptr,
                "port '", name, "' already exists on '", function.name(), "'");
  SAGE_CHECK_AS(ModelError, !dims.empty(), "port '", name,
                "' needs at least one dimension");
  SAGE_CHECK_AS(ModelError,
                stripe_dim >= 0 &&
                    stripe_dim < static_cast<int>(dims.size()),
                "port '", name, "': stripe_dim ", stripe_dim,
                " out of range for ", dims.size(), " dims");
  ModelObject& port = function.add_child("port", std::move(name));
  port.set_property("direction", to_string(direction));
  port.set_property("striping", to_string(striping));
  port.set_property("stripe_dim", stripe_dim);
  port.set_property("datatype", std::move(datatype));
  PropertyList dim_list;
  for (std::size_t d : dims) dim_list.emplace_back(d);
  port.set_property("dims", std::move(dim_list));
  return port;
}

namespace {

std::pair<std::string, std::string> split_endpoint(std::string_view spec) {
  const auto dot = spec.find('.');
  SAGE_CHECK_AS(ModelError, dot != std::string_view::npos,
                "endpoint '", std::string(spec),
                "' must have the form function.port");
  return {std::string(spec.substr(0, dot)), std::string(spec.substr(dot + 1))};
}

}  // namespace

ModelObject& connect(ModelObject& application, std::string_view src,
                     std::string_view dst) {
  SAGE_CHECK_AS(ModelError, application.type() == "application",
                "arcs belong to applications");
  auto [src_fn_name, src_port_name] = split_endpoint(src);
  auto [dst_fn_name, dst_port_name] = split_endpoint(dst);

  ModelObject& src_fn = find_function(application, src_fn_name);
  ModelObject& dst_fn = find_function(application, dst_fn_name);
  ModelObject& src_port = find_port(src_fn, src_port_name);
  ModelObject& dst_port = find_port(dst_fn, dst_port_name);

  SAGE_CHECK_AS(ModelError,
                src_port.property("direction").as_string() == "out",
                "arc source '", std::string(src), "' must be an out-port");
  SAGE_CHECK_AS(ModelError,
                dst_port.property("direction").as_string() == "in",
                "arc destination '", std::string(dst), "' must be an in-port");

  ModelObject& arc = application.add_child(
      "arc", std::string(src) + "->" + std::string(dst));
  arc.set_property("src_function", src_fn_name);
  arc.set_property("src_port", src_port_name);
  arc.set_property("dst_function", dst_fn_name);
  arc.set_property("dst_port", dst_port_name);
  return arc;
}

ModelObject& enclosing_application(ModelObject& obj) {
  ModelObject* cursor = &obj;
  while (cursor != nullptr && cursor->type() != "application") {
    cursor = cursor->parent();
  }
  SAGE_CHECK_AS(ModelError, cursor != nullptr,
                "object '", obj.name(), "' is not inside an application");
  return *cursor;
}

std::vector<ModelObject*> functions(const ModelObject& application) {
  return application.descendants_of_type("function");
}

ModelObject& find_function(const ModelObject& application,
                           std::string_view name) {
  for (ModelObject* fn : functions(application)) {
    if (fn->name() == name) return *fn;
  }
  raise<ModelError>("no function '", std::string(name), "' in application '",
                    application.name(), "'");
}

ModelObject& find_port(const ModelObject& function, std::string_view name) {
  ModelObject* port = function.find_child("port", name);
  if (port == nullptr) {
    raise<ModelError>("no port '", std::string(name), "' on function '",
                      function.name(), "'");
  }
  return *port;
}

std::vector<ModelObject*> arcs(const ModelObject& application) {
  return application.children_of_type("arc");
}

PortView port_view(const ModelObject& port) {
  SAGE_CHECK_AS(ModelError, port.type() == "port",
                "port_view of non-port '", port.name(), "'");
  PortView view;
  view.object = &port;
  view.direction =
      port_direction_from_string(port.property("direction").as_string());
  view.striping = striping_from_string(port.property("striping").as_string());
  view.stripe_dim = static_cast<int>(port.property("stripe_dim").as_int());
  view.datatype = port.property("datatype").as_string();
  for (const PropertyValue& d : port.property("dims").as_list()) {
    view.dims.push_back(static_cast<std::size_t>(d.as_int()));
  }
  return view;
}

ArcView arc_view(const ModelObject& application, const ModelObject& arc) {
  SAGE_CHECK_AS(ModelError, arc.type() == "arc", "arc_view of non-arc");
  ArcView view;
  view.object = &arc;
  view.src_function =
      &find_function(application, arc.property("src_function").as_string());
  view.dst_function =
      &find_function(application, arc.property("dst_function").as_string());
  view.src_port =
      &find_port(*view.src_function, arc.property("src_port").as_string());
  view.dst_port =
      &find_port(*view.dst_function, arc.property("dst_port").as_string());
  return view;
}

std::vector<ModelObject*> topological_order(const ModelObject& application) {
  const std::vector<ModelObject*> fns = functions(application);
  std::map<const ModelObject*, int> in_degree;
  std::map<const ModelObject*, std::vector<ModelObject*>> successors;
  for (ModelObject* fn : fns) in_degree[fn] = 0;

  for (const ModelObject* arc : arcs(application)) {
    ArcView view = arc_view(application, *arc);
    successors[view.src_function].push_back(
        const_cast<ModelObject*>(view.dst_function));
    ++in_degree[view.dst_function];
  }

  std::vector<ModelObject*> ready;
  for (ModelObject* fn : fns) {
    if (in_degree[fn] == 0) ready.push_back(fn);
  }

  std::vector<ModelObject*> order;
  order.reserve(fns.size());
  while (!ready.empty()) {
    // Stable: pick the earliest-defined ready function.
    auto it = std::min_element(
        ready.begin(), ready.end(), [&](ModelObject* a, ModelObject* b) {
          return a->id() < b->id();
        });
    ModelObject* fn = *it;
    ready.erase(it);
    order.push_back(fn);
    for (ModelObject* next : successors[fn]) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }

  SAGE_CHECK_AS(ModelError, order.size() == fns.size(),
                "application '", application.name(),
                "' has a data-flow cycle");
  return order;
}

ModelObject& add_standard_datatypes(ModelObject& root) {
  ModelObject* existing = root.find_child("datatypes", "datatypes");
  if (existing != nullptr) return *existing;
  ModelObject& dts = root.add_child("datatypes", "datatypes");
  add_datatype(dts, "cfloat", "complex<float>", 8);
  add_datatype(dts, "float", "float", 4);
  add_datatype(dts, "int32", "int32", 4);
  add_datatype(dts, "byte", "byte", 1);
  return dts;
}

ModelObject& add_datatype(ModelObject& datatypes, std::string name,
                          std::string element, std::size_t element_bytes) {
  SAGE_CHECK_AS(ModelError, datatypes.type() == "datatypes",
                "datatypes belong to the datatypes container");
  SAGE_CHECK_AS(ModelError,
                datatypes.find_child("datatype", name) == nullptr,
                "datatype '", name, "' already defined");
  SAGE_CHECK_AS(ModelError, element_bytes > 0, "datatype '", name,
                "' must have a positive element size");
  ModelObject& dt = datatypes.add_child("datatype", std::move(name));
  dt.set_property("element", std::move(element));
  dt.set_property("element_bytes", element_bytes);
  return dt;
}

std::size_t datatype_bytes(const ModelObject& root, std::string_view name) {
  const ModelObject* dts = root.find_child("datatypes", "datatypes");
  SAGE_CHECK_AS(ModelError, dts != nullptr,
                "model has no datatypes container");
  const ModelObject* dt = dts->find_child("datatype", name);
  if (dt == nullptr) {
    raise<ModelError>("unknown datatype '", std::string(name), "'");
  }
  return static_cast<std::size_t>(dt->property("element_bytes").as_int());
}

}  // namespace sage::model
