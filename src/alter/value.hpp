// openSAGE -- Alter values.
//
// Alter is the paper's Lisp-like tool-developer language: it traverses
// the DoME model object graph, reads attributes, and writes out source
// files. Values are s-expression data (nil, booleans, numbers, strings,
// symbols, lists), callables (builtins and lambdas), and handles to
// model objects.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace sage::model {
class ModelObject;
}

namespace sage::alter {

class Value;
class Interpreter;
class Environment;
struct Closure;  // compiled lambda: (chunk, captured frame), see chunk.hpp

using EnvPtr = std::shared_ptr<Environment>;
using ValueList = std::vector<Value>;

/// A symbol, distinct from a string.
struct Symbol {
  std::string name;
  bool operator==(const Symbol& other) const { return name == other.name; }
};

/// Native function exposed to Alter.
struct Builtin {
  std::string name;
  std::function<Value(Interpreter&, ValueList&)> fn;
};

/// User-defined function (closure).
struct Lambda {
  std::vector<std::string> params;
  /// Optional trailing &rest parameter capturing extra arguments.
  std::string rest_param;
  ValueList body;
  EnvPtr closure;
  std::string name;  // for error messages; "" when anonymous
};

class Value {
 public:
  using Storage =
      std::variant<std::monostate,                  // nil
                   bool,                            //
                   std::int64_t,                    //
                   double,                          //
                   std::string,                     //
                   Symbol,                          //
                   std::shared_ptr<ValueList>,      // list
                   std::shared_ptr<const Builtin>,  //
                   std::shared_ptr<const Lambda>,   //
                   std::shared_ptr<const Closure>,  // compiled lambda
                   model::ModelObject*>;            // model handle

  Value() : storage_(std::monostate{}) {}
  Value(bool b) : storage_(b) {}
  Value(std::int64_t i) : storage_(i) {}
  Value(int i) : storage_(static_cast<std::int64_t>(i)) {}
  Value(double d) : storage_(d) {}
  Value(std::string s) : storage_(std::move(s)) {}
  Value(const char* s) : storage_(std::string(s)) {}
  Value(Symbol s) : storage_(std::move(s)) {}
  Value(model::ModelObject* obj) : storage_(obj) {}

  static Value nil() { return Value(); }
  static Value list(ValueList items) {
    Value v;
    v.storage_ = std::make_shared<ValueList>(std::move(items));
    return v;
  }
  static Value builtin(std::string name,
                       std::function<Value(Interpreter&, ValueList&)> fn) {
    Value v;
    v.storage_ =
        std::make_shared<const Builtin>(Builtin{std::move(name), std::move(fn)});
    return v;
  }
  static Value lambda(Lambda lam) {
    Value v;
    v.storage_ = std::make_shared<const Lambda>(std::move(lam));
    return v;
  }
  static Value closure(std::shared_ptr<const Closure> c) {
    Value v;
    v.storage_ = std::move(c);
    return v;
  }
  static Value symbol(std::string name) { return Value(Symbol{std::move(name)}); }

  bool is_nil() const { return std::holds_alternative<std::monostate>(storage_); }
  bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(storage_); }
  bool is_real() const { return std::holds_alternative<double>(storage_); }
  bool is_number() const { return is_int() || is_real(); }
  bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  bool is_symbol() const { return std::holds_alternative<Symbol>(storage_); }
  bool is_list() const {
    return std::holds_alternative<std::shared_ptr<ValueList>>(storage_);
  }
  bool is_builtin() const {
    return std::holds_alternative<std::shared_ptr<const Builtin>>(storage_);
  }
  bool is_lambda() const {
    return std::holds_alternative<std::shared_ptr<const Lambda>>(storage_);
  }
  bool is_closure() const {
    return std::holds_alternative<std::shared_ptr<const Closure>>(storage_);
  }
  bool is_callable() const {
    return is_builtin() || is_lambda() || is_closure();
  }
  bool is_object() const {
    return std::holds_alternative<model::ModelObject*>(storage_);
  }

  /// Truthiness: nil and false are falsy; everything else (including 0
  /// and "" and the empty list) is truthy, per Lisp convention for nil --
  /// we follow Scheme in keeping 0 truthy.
  bool truthy() const { return !is_nil() && !(is_bool() && !as_bool()); }

  // Checked accessors; throw sage::AlterError on mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_real() const;           // accepts int
  const std::string& as_string() const;
  const Symbol& as_symbol() const;
  const ValueList& as_list() const;
  const Builtin& as_builtin() const;
  const Lambda& as_lambda() const;
  const std::shared_ptr<const Closure>& as_closure() const;
  model::ModelObject* as_object() const;

  /// Structural equality (objects by identity, callables by identity).
  bool equals(const Value& other) const;

  /// Printable, reader-compatible representation.
  std::string to_string() const;
  /// Display form: strings without quotes (used by emit/print).
  std::string display() const;

 private:
  Storage storage_;
};

}  // namespace sage::alter
