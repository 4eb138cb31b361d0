#include "alter/interp.hpp"

#include "alter/compiler.hpp"
#include "alter/reader.hpp"
#include "alter/vm.hpp"
#include "support/error.hpp"

namespace sage::alter {

namespace {

constexpr int kMaxDepth = 4000;

struct DepthGuard {
  explicit DepthGuard(int& depth) : depth_(depth) {
    if (++depth_ > kMaxDepth) {
      --depth_;
      raise<AlterError>("evaluation too deep (", kMaxDepth,
                        " nested evals); runaway recursion?");
    }
  }
  ~DepthGuard() { --depth_; }
  int& depth_;
};

}  // namespace

Interpreter::Interpreter() : Interpreter(Mode::kCompiled) {}

Interpreter::Interpreter(Mode mode)
    : global_(Environment::make_root()), mode_(mode) {
  install_core_builtins(*this, global_);
  install_model_builtins(*this, global_);
}

Value Interpreter::eval_string(std::string_view source) {
  if (mode_ == Mode::kTreeWalk) {
    const ValueList program = read_program(source);
    return eval_program(program, global_);
  }
  return execute(compile(source));
}

ChunkPtr Interpreter::compile(std::string_view source, std::string name) const {
  return compile_string(source, std::move(name));
}

Value Interpreter::execute(const ChunkPtr& chunk) {
  VM vm(*this);
  return vm.execute(chunk);
}

Value Interpreter::eval_program(const ValueList& program, const EnvPtr& env) {
  Value result;
  for (const Value& expr : program) {
    result = eval(expr, env);
  }
  return result;
}

Value Interpreter::eval(const Value& expr, const EnvPtr& env) {
  DepthGuard guard(depth_);
  if (expr.is_symbol()) return env->lookup(expr.as_symbol().name);
  if (!expr.is_list()) return expr;  // self-evaluating
  return eval_list(expr.as_list(), env);
}

Value Interpreter::eval_body(const ValueList& body, std::size_t start,
                             const EnvPtr& env) {
  Value result;
  for (std::size_t i = start; i < body.size(); ++i) {
    result = eval(body[i], env);
  }
  return result;
}

Value Interpreter::eval_list(const ValueList& form, const EnvPtr& env) {
  if (form.empty()) return Value::list({});

  if (form[0].is_symbol()) {
    const std::string& head = form[0].as_symbol().name;

    if (head == "quote") {
      SAGE_CHECK_AS(AlterError, form.size() == 2, "(quote x) takes one arg");
      return form[1];
    }
    if (head == "if") {
      SAGE_CHECK_AS(AlterError, form.size() == 3 || form.size() == 4,
                    "(if c then else?)");
      if (eval(form[1], env).truthy()) return eval(form[2], env);
      return form.size() == 4 ? eval(form[3], env) : Value::nil();
    }
    if (head == "cond") {
      for (std::size_t i = 1; i < form.size(); ++i) {
        const ValueList& clause = form[i].as_list();
        SAGE_CHECK_AS(AlterError, !clause.empty(), "empty cond clause");
        const bool is_else =
            clause[0].is_symbol() && clause[0].as_symbol().name == "else";
        if (is_else || eval(clause[0], env).truthy()) {
          if (clause.size() == 1) return eval(clause[0], env);
          return eval_body(clause, 1, env);
        }
      }
      return Value::nil();
    }
    if (head == "define") {
      SAGE_CHECK_AS(AlterError, form.size() >= 3, "(define name expr)");
      if (form[1].is_list()) {
        // (define (f a b) body...) sugar.
        const ValueList& sig = form[1].as_list();
        SAGE_CHECK_AS(AlterError, !sig.empty(), "define: empty signature");
        Lambda lam;
        lam.name = sig[0].as_symbol().name;
        parse_params(ValueList(sig.begin() + 1, sig.end()), lam.params,
                     lam.rest_param);
        lam.body.assign(form.begin() + 2, form.end());
        lam.closure = env;
        const std::string name = lam.name;
        env->define(name, Value::lambda(std::move(lam)));
        return Value::nil();
      }
      SAGE_CHECK_AS(AlterError, form.size() == 3, "(define name expr)");
      env->define(form[1].as_symbol().name, eval(form[2], env));
      return Value::nil();
    }
    if (head == "set!") {
      SAGE_CHECK_AS(AlterError, form.size() == 3, "(set! name expr)");
      env->set(form[1].as_symbol().name, eval(form[2], env));
      return Value::nil();
    }
    if (head == "lambda") {
      SAGE_CHECK_AS(AlterError, form.size() >= 3, "(lambda (args) body...)");
      Lambda lam;
      parse_params(form[1].as_list(), lam.params, lam.rest_param);
      lam.body.assign(form.begin() + 2, form.end());
      lam.closure = env;
      return Value::lambda(std::move(lam));
    }
    if (head == "let" || head == "let*") {
      SAGE_CHECK_AS(AlterError, form.size() >= 3, "(let ((a 1)...) body...)");
      EnvPtr scope = Environment::make_child(env);
      const EnvPtr& binding_env = (head == "let*") ? scope : env;
      for (const Value& binding : form[1].as_list()) {
        const ValueList& pair = binding.as_list();
        SAGE_CHECK_AS(AlterError, pair.size() == 2, "let binding (name expr)");
        scope->define(pair[0].as_symbol().name, eval(pair[1], binding_env));
      }
      return eval_body(form, 2, scope);
    }
    if (head == "begin") {
      return eval_body(form, 1, env);
    }
    if (head == "while") {
      SAGE_CHECK_AS(AlterError, form.size() >= 2, "(while cond body...)");
      Value result;
      while (eval(form[1], env).truthy()) {
        result = eval_body(form, 2, env);
      }
      return result;
    }
    if (head == "and") {
      Value result(true);
      for (std::size_t i = 1; i < form.size(); ++i) {
        result = eval(form[i], env);
        if (!result.truthy()) return result;
      }
      return result;
    }
    if (head == "or") {
      for (std::size_t i = 1; i < form.size(); ++i) {
        Value result = eval(form[i], env);
        if (result.truthy()) return result;
      }
      return Value(false);
    }
    if (head == "when") {
      SAGE_CHECK_AS(AlterError, form.size() >= 2, "(when cond body...)");
      if (!eval(form[1], env).truthy()) return Value::nil();
      return eval_body(form, 2, env);
    }
    if (head == "unless") {
      SAGE_CHECK_AS(AlterError, form.size() >= 2, "(unless cond body...)");
      if (eval(form[1], env).truthy()) return Value::nil();
      return eval_body(form, 2, env);
    }
    if (head == "dolist") {
      // (dolist (x list) body...)
      SAGE_CHECK_AS(AlterError, form.size() >= 2, "(dolist (x list) body...)");
      const ValueList& spec = form[1].as_list();
      SAGE_CHECK_AS(AlterError, spec.size() == 2, "(dolist (x list) body...)");
      const std::string& var = spec[0].as_symbol().name;
      const Value items = eval(spec[1], env);
      Value result;
      EnvPtr scope = Environment::make_child(env);
      for (const Value& item : items.as_list()) {
        scope->define(var, item);
        result = eval_body(form, 2, scope);
      }
      return result;
    }
    if (head == "dotimes") {
      // (dotimes (i n) body...)
      SAGE_CHECK_AS(AlterError, form.size() >= 2, "(dotimes (i n) body...)");
      const ValueList& spec = form[1].as_list();
      SAGE_CHECK_AS(AlterError, spec.size() == 2, "(dotimes (i n) body...)");
      const std::string& var = spec[0].as_symbol().name;
      const std::int64_t n = eval(spec[1], env).as_int();
      Value result;
      EnvPtr scope = Environment::make_child(env);
      for (std::int64_t i = 0; i < n; ++i) {
        scope->define(var, Value(i));
        result = eval_body(form, 2, scope);
      }
      return result;
    }
  }

  // Function application.
  Value callable = eval(form[0], env);
  ValueList args;
  args.reserve(form.size() - 1);
  for (std::size_t i = 1; i < form.size(); ++i) {
    args.push_back(eval(form[i], env));
  }
  return apply(callable, std::move(args));
}

Value Interpreter::apply(const Value& callable, ValueList args) {
  if (callable.is_builtin()) {
    const Builtin& fn = callable.as_builtin();
    try {
      return fn.fn(*this, args);
    } catch (const AlterError&) {
      throw;
    } catch (const Error& e) {
      raise<AlterError>("in builtin '", fn.name, "': ", e.what());
    }
  }
  if (callable.is_lambda()) {
    const Lambda& lam = callable.as_lambda();
    const std::string who = lam.name.empty() ? "lambda" : lam.name;
    if (lam.rest_param.empty()) {
      SAGE_CHECK_AS(AlterError, args.size() == lam.params.size(),
                    who, ": expected ", lam.params.size(), " args, got ",
                    args.size());
    } else {
      SAGE_CHECK_AS(AlterError, args.size() >= lam.params.size(),
                    who, ": expected at least ", lam.params.size(),
                    " args, got ", args.size());
    }
    EnvPtr scope = Environment::make_child(lam.closure);
    for (std::size_t i = 0; i < lam.params.size(); ++i) {
      scope->define(lam.params[i], std::move(args[i]));
    }
    if (!lam.rest_param.empty()) {
      ValueList rest(args.begin() + static_cast<std::ptrdiff_t>(lam.params.size()),
                     args.end());
      scope->define(lam.rest_param, Value::list(std::move(rest)));
    }
    DepthGuard guard(depth_);
    return eval_body(lam.body, 0, scope);
  }
  if (callable.is_closure()) {
    // Compiled closure handed back through a builtin (map/filter/...):
    // run it on a nested VM. The depth guard bounds native re-entrancy.
    DepthGuard guard(depth_);
    VM vm(*this);
    return vm.call_closure(callable.as_closure(), std::move(args));
  }
  raise<AlterError>("not callable: ", callable.to_string());
}

void Interpreter::set_output(std::string name) {
  current_output_ = std::move(name);
  outputs_.try_emplace(current_output_);
}

void Interpreter::emit(std::string_view text) {
  outputs_[current_output_] += text;
}

}  // namespace sage::alter
