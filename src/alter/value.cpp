#include "alter/value.hpp"

#include <sstream>

#include "alter/chunk.hpp"
#include "model/object.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace sage::alter {

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&storage_)) return *b;
  raise<AlterError>("not a boolean: ", to_string());
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&storage_)) return *i;
  raise<AlterError>("not an integer: ", to_string());
}

double Value::as_real() const {
  if (const auto* d = std::get_if<double>(&storage_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&storage_)) {
    return static_cast<double>(*i);
  }
  raise<AlterError>("not a number: ", to_string());
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&storage_)) return *s;
  raise<AlterError>("not a string: ", to_string());
}

const Symbol& Value::as_symbol() const {
  if (const auto* s = std::get_if<Symbol>(&storage_)) return *s;
  raise<AlterError>("not a symbol: ", to_string());
}

const ValueList& Value::as_list() const {
  if (const auto* l = std::get_if<std::shared_ptr<ValueList>>(&storage_)) {
    return **l;
  }
  raise<AlterError>("not a list: ", to_string());
}

const Builtin& Value::as_builtin() const {
  if (const auto* b =
          std::get_if<std::shared_ptr<const Builtin>>(&storage_)) {
    return **b;
  }
  raise<AlterError>("not a builtin: ", to_string());
}

const Lambda& Value::as_lambda() const {
  if (const auto* l = std::get_if<std::shared_ptr<const Lambda>>(&storage_)) {
    return **l;
  }
  raise<AlterError>("not a lambda: ", to_string());
}

const std::shared_ptr<const Closure>& Value::as_closure() const {
  if (const auto* c = std::get_if<std::shared_ptr<const Closure>>(&storage_)) {
    return *c;
  }
  raise<AlterError>("not a compiled lambda: ", to_string());
}

model::ModelObject* Value::as_object() const {
  if (const auto* o = std::get_if<model::ModelObject*>(&storage_)) return *o;
  raise<AlterError>("not a model object: ", to_string());
}

bool Value::equals(const Value& other) const {
  if (storage_.index() != other.storage_.index()) {
    // Allow numeric cross-type comparison (1 equals 1.0).
    if (is_number() && other.is_number()) {
      return as_real() == other.as_real();
    }
    return false;
  }
  if (is_nil()) return true;
  if (is_bool()) return as_bool() == other.as_bool();
  if (is_int()) return as_int() == other.as_int();
  if (is_real()) return as_real() == other.as_real();
  if (is_string()) return as_string() == other.as_string();
  if (is_symbol()) return as_symbol() == other.as_symbol();
  if (is_object()) return as_object() == other.as_object();
  if (is_list()) {
    const ValueList& a = as_list();
    const ValueList& b = other.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i].equals(b[i])) return false;
    }
    return true;
  }
  if (is_builtin()) return &as_builtin() == &other.as_builtin();
  if (is_lambda()) return &as_lambda() == &other.as_lambda();
  if (is_closure()) return as_closure().get() == other.as_closure().get();
  return false;
}

std::string Value::to_string() const {
  if (is_nil()) return "nil";
  if (is_bool()) return as_bool() ? "#t" : "#f";
  if (is_int()) return std::to_string(as_int());
  if (is_real()) {
    std::ostringstream os;
    os << as_real();
    return os.str();
  }
  if (is_string()) return "\"" + support::escape(as_string()) + "\"";
  if (is_symbol()) return as_symbol().name;
  if (is_builtin()) return "#<builtin " + as_builtin().name + ">";
  if (is_lambda()) {
    const std::string& name = as_lambda().name;
    return name.empty() ? "#<lambda>" : "#<lambda " + name + ">";
  }
  if (is_closure()) {
    const std::string& name = as_closure()->chunk->name;
    return name.empty() ? "#<lambda>" : "#<lambda " + name + ">";
  }
  if (is_object()) {
    const model::ModelObject* obj = as_object();
    return "#<object " + obj->type() + " " + obj->name() + ">";
  }
  std::string out = "(";
  const ValueList& items = as_list();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += " ";
    out += items[i].to_string();
  }
  return out + ")";
}

std::string Value::display() const {
  if (is_string()) return as_string();
  return to_string();
}

}  // namespace sage::alter
