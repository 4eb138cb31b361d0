// openSAGE -- the Alter evaluator.
//
// A tree-walking interpreter with lexical closures. Special forms:
//   (quote x) / 'x          (if c a b?)          (cond (c e...)... (else e...))
//   (define name expr)      (define (f a b) ...) (set! name expr)
//   (lambda (a b) ...)      (lambda (a &rest r) ...)
//   (let ((a 1) (b 2)) ...) (let* (...) ...)     (begin e...)
//   (while cond e...)       (and e...) (or e...) (when c e...) (unless c e...)
//   (dolist (x list) e...)  (dotimes (i n) e...)
//
// The interpreter also owns the emit-stream table the glue-code
// generator writes source files into: (set-output "file.c") selects the
// current stream, (emit ...) / (emit-line ...) append to it. A model
// root can be attached so (model-root) and the traversal builtins work.
//
// Since the bytecode pipeline landed, this class is a facade over two
// execution strategies: eval_string compiles to a Chunk and runs it on
// the stack VM (the default), while tree-walk mode keeps the original
// recursive evaluator alive as the reference implementation the
// differential tests pin the VM against.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "alter/chunk.hpp"
#include "alter/env.hpp"
#include "alter/value.hpp"

namespace sage::model {
class ModelObject;
}

namespace sage::alter {

class Interpreter {
 public:
  /// Execution strategy for eval_string: bytecode compilation + stack
  /// VM (default), or the original tree-walking evaluator (kept as the
  /// reference implementation for differential testing).
  enum class Mode { kCompiled, kTreeWalk };

  /// Creates an interpreter with all core and model builtins installed.
  Interpreter();
  explicit Interpreter(Mode mode);

  Mode mode() const { return mode_; }

  EnvPtr global_env() { return global_; }

  /// Attaches the model the traversal builtins operate on. The object
  /// must outlive the interpreter's use of it.
  void attach_model(model::ModelObject& root) { model_root_ = &root; }
  model::ModelObject* model_root() const { return model_root_; }

  // --- evaluation -----------------------------------------------------------
  // Tree-walking reference evaluator (always available, regardless of mode).
  Value eval(const Value& expr, const EnvPtr& env);
  Value eval_program(const ValueList& program, const EnvPtr& env);
  /// Reads and evaluates `source` in the global environment; returns the
  /// last expression's value. Compiles to bytecode and runs on the VM in
  /// kCompiled mode, tree-walks in kTreeWalk mode.
  Value eval_string(std::string_view source);

  // Bytecode pipeline (reader -> resolver/compiler -> VM).
  /// Compiles `source` to a chunk without executing it.
  ChunkPtr compile(std::string_view source, std::string name = "script") const;
  /// Runs a compiled chunk on the stack VM against the global environment.
  Value execute(const ChunkPtr& chunk);

  /// Calls a callable value (builtin, tree-walk lambda, or compiled
  /// closure) with arguments.
  Value apply(const Value& callable, ValueList args);

  // --- emit streams -----------------------------------------------------------
  /// Selects (creating if needed) the current output stream.
  void set_output(std::string name);
  const std::string& current_output_name() const { return current_output_; }
  void emit(std::string_view text);
  /// All streams written during evaluation, keyed by name.
  const std::map<std::string, std::string>& outputs() const { return outputs_; }

  /// Values printed by (print ...) -- captured for tests and tools.
  const std::string& print_log() const { return print_log_; }
  void print(std::string_view text) { print_log_ += text; }

 private:
  Value eval_list(const ValueList& form, const EnvPtr& env);
  Value eval_body(const ValueList& body, std::size_t start, const EnvPtr& env);

  EnvPtr global_;
  Mode mode_ = Mode::kCompiled;
  model::ModelObject* model_root_ = nullptr;
  std::map<std::string, std::string> outputs_;
  std::string current_output_ = "default";
  std::string print_log_;
  int depth_ = 0;
};

/// Installs the arithmetic/list/string builtins (called by the
/// constructor; exposed for tests that build custom interpreters).
void install_core_builtins(Interpreter& interp, const EnvPtr& env);

/// Installs the model-traversal and emit builtins.
void install_model_builtins(Interpreter& interp, const EnvPtr& env);

}  // namespace sage::alter
