// openSAGE -- the model object graph.
//
// A ModelObject is a typed, named node with a property bag and owned
// children -- the shape of the DoME repository SAGE stored its designs
// in. Everything the Designer captures (application blocks, ports, arcs,
// data types, hardware, mappings) is expressed in this one structure, so
// the Alter interpreter can traverse any model uniformly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/property.hpp"

namespace sage::model {

class ModelObject {
 public:
  ModelObject(std::string type, std::string name);

  ModelObject(const ModelObject&) = delete;
  ModelObject& operator=(const ModelObject&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& type() const { return type_; }
  const std::string& name() const { return name_; }
  void rename(std::string name) { name_ = std::move(name); }

  // --- properties ----------------------------------------------------------
  bool has_property(std::string_view key) const;
  /// Throws sage::ModelError when absent.
  const PropertyValue& property(std::string_view key) const;
  /// Returns `fallback` when absent.
  PropertyValue property_or(std::string_view key,
                            PropertyValue fallback) const;
  void set_property(std::string_view key, PropertyValue value);
  const std::map<std::string, PropertyValue, std::less<>>& properties() const {
    return props_;
  }

  // --- hierarchy -----------------------------------------------------------
  ModelObject* parent() const { return parent_; }
  ModelObject& add_child(std::string type, std::string name);
  /// Moves an externally built subtree under this object.
  ModelObject& adopt(std::unique_ptr<ModelObject> child);
  /// Removes and destroys a direct child; throws if not found.
  void remove_child(const ModelObject& child);

  const std::vector<std::unique_ptr<ModelObject>>& children() const {
    return children_;
  }

  /// First direct child with the given name, or nullptr.
  ModelObject* find_child(std::string_view name) const;
  /// First direct child with the given type and name, or nullptr.
  ModelObject* find_child(std::string_view type, std::string_view name) const;
  /// All direct children of a type.
  std::vector<ModelObject*> children_of_type(std::string_view type) const;
  /// All descendants (depth-first, not including this) of a type.
  std::vector<ModelObject*> descendants_of_type(std::string_view type) const;

  /// Depth-first visit of this object and all descendants.
  void visit(const std::function<void(ModelObject&)>& fn);
  void visit(const std::function<void(const ModelObject&)>& fn) const;

  /// Slash-separated path from the root ("app/fft_rows/in").
  std::string path() const;

  /// Deep copy with a new identity (used by shelves to instantiate
  /// prototypes).
  std::unique_ptr<ModelObject> clone(std::string new_name) const;

  /// Indented textual dump of the subtree (debugging, golden tests).
  std::string dump(int indent = 0) const;

 private:
  static std::uint64_t next_id();

  std::uint64_t id_;
  std::string type_;
  std::string name_;
  std::map<std::string, PropertyValue, std::less<>> props_;
  ModelObject* parent_ = nullptr;
  std::vector<std::unique_ptr<ModelObject>> children_;
};

}  // namespace sage::model
