#include "model/object.hpp"

#include <atomic>
#include <sstream>

#include "support/error.hpp"

namespace sage::model {

std::uint64_t ModelObject::next_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

ModelObject::ModelObject(std::string type, std::string name)
    : id_(next_id()), type_(std::move(type)), name_(std::move(name)) {}

bool ModelObject::has_property(std::string_view key) const {
  return props_.find(key) != props_.end();
}

const PropertyValue& ModelObject::property(std::string_view key) const {
  auto it = props_.find(key);
  if (it == props_.end()) {
    raise<ModelError>("object '", path(), "' (", type_,
                      ") has no property '", std::string(key), "'");
  }
  return it->second;
}

PropertyValue ModelObject::property_or(std::string_view key,
                                       PropertyValue fallback) const {
  auto it = props_.find(key);
  return it == props_.end() ? std::move(fallback) : it->second;
}

void ModelObject::set_property(std::string_view key, PropertyValue value) {
  props_.insert_or_assign(std::string(key), std::move(value));
}

ModelObject& ModelObject::add_child(std::string type, std::string name) {
  auto child = std::make_unique<ModelObject>(std::move(type), std::move(name));
  return adopt(std::move(child));
}

ModelObject& ModelObject::adopt(std::unique_ptr<ModelObject> child) {
  SAGE_CHECK_AS(ModelError, child != nullptr, "adopt: null child");
  SAGE_CHECK_AS(ModelError, child->parent_ == nullptr,
                "adopt: child already has a parent");
  child->parent_ = this;
  children_.push_back(std::move(child));
  return *children_.back();
}

void ModelObject::remove_child(const ModelObject& child) {
  for (auto it = children_.begin(); it != children_.end(); ++it) {
    if (it->get() == &child) {
      children_.erase(it);
      return;
    }
  }
  raise<ModelError>("remove_child: '", child.name(),
                    "' is not a child of '", path(), "'");
}

ModelObject* ModelObject::find_child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

ModelObject* ModelObject::find_child(std::string_view type,
                                     std::string_view name) const {
  for (const auto& c : children_) {
    if (c->type() == type && c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<ModelObject*> ModelObject::children_of_type(
    std::string_view type) const {
  std::vector<ModelObject*> out;
  for (const auto& c : children_) {
    if (c->type() == type) out.push_back(c.get());
  }
  return out;
}

std::vector<ModelObject*> ModelObject::descendants_of_type(
    std::string_view type) const {
  std::vector<ModelObject*> out;
  for (const auto& c : children_) {
    if (c->type() == type) out.push_back(c.get());
    auto sub = c->descendants_of_type(type);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

void ModelObject::visit(const std::function<void(ModelObject&)>& fn) {
  fn(*this);
  for (const auto& c : children_) c->visit(fn);
}

void ModelObject::visit(const std::function<void(const ModelObject&)>& fn) const {
  fn(*this);
  for (const auto& c : children_) {
    static_cast<const ModelObject&>(*c).visit(fn);
  }
}

std::string ModelObject::path() const {
  if (parent_ == nullptr) return name_;
  return parent_->path() + "/" + name_;
}

std::unique_ptr<ModelObject> ModelObject::clone(std::string new_name) const {
  auto copy = std::make_unique<ModelObject>(type_, std::move(new_name));
  copy->props_ = props_;
  for (const auto& c : children_) {
    copy->adopt(c->clone(c->name()));
  }
  return copy;
}

std::string ModelObject::dump(int indent) const {
  std::ostringstream os;
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  os << pad << type_ << " " << name_;
  if (!props_.empty()) {
    os << " {";
    bool first = true;
    for (const auto& [key, value] : props_) {
      if (!first) os << ", ";
      first = false;
      os << key << "=" << value.to_string();
    }
    os << "}";
  }
  os << "\n";
  for (const auto& c : children_) os << c->dump(indent + 1);
  return os.str();
}

}  // namespace sage::model
