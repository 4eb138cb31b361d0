// openSAGE -- error handling primitives.
//
// All library errors are reported as sage::Error (derived from
// std::runtime_error) carrying a formatted, human-readable message.
// SAGE_CHECK / SAGE_CHECK_MSG are used for precondition and invariant
// checking at module boundaries; internal invariants additionally use
// SAGE_ASSERT which compiles away in release-without-assert builds.
#pragma once

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace sage {

/// Base exception for all openSAGE errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Model construction / validation failure.
class ModelError : public Error {
 public:
  using Error::Error;
};

/// Alter language failure (read, eval, or builtin misuse).
class AlterError : public Error {
 public:
  using Error::Error;
};

/// Glue-configuration parse or consistency failure.
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// Runtime kernel failure (striping mismatch, missing function, ...).
class RuntimeError : public Error {
 public:
  using Error::Error;
};

/// Communication substrate failure.
class CommError : public Error {
 public:
  using Error::Error;
};

namespace detail {

inline void format_parts(std::ostringstream&) {}

template <typename T, typename... Rest>
void format_parts(std::ostringstream& os, const T& first, const Rest&... rest) {
  os << first;
  format_parts(os, rest...);
}

}  // namespace detail

/// Builds a message from streamable parts, e.g. format_msg("rank ", r).
template <typename... Parts>
std::string format_msg(const Parts&... parts) {
  std::ostringstream os;
  detail::format_parts(os, parts...);
  return os.str();
}

template <typename E = Error, typename... Parts>
[[noreturn]] void raise(const Parts&... parts) {
  throw E(format_msg(parts...));
}

/// Non-throwing result carrier for construction-style APIs: either a
/// value or a human-readable error message. Lets callers (CLIs, tests,
/// validators) report config problems without exceptions as control
/// flow -- see runtime::Session::create.
template <typename T>
class Result {
 public:
  static Result success(T value) {
    Result r;
    r.value_.emplace(std::move(value));
    return r;
  }
  static Result failure(std::string message) {
    Result r;
    r.error_ = std::move(message);
    return r;
  }

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// The carried value; raises sage::Error when called on a failure.
  T& value() {
    if (!ok()) raise<Error>("Result::value() on failure: ", error_);
    return *value_;
  }
  const T& value() const {
    if (!ok()) raise<Error>("Result::value() on failure: ", error_);
    return *value_;
  }
  T take() {
    if (!ok()) raise<Error>("Result::take() on failure: ", error_);
    return std::move(*value_);
  }

  /// The error message; empty on success.
  const std::string& error() const { return error_; }

 private:
  Result() = default;

  std::optional<T> value_;
  std::string error_;
};

}  // namespace sage

#define SAGE_CHECK(cond, ...)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::sage::raise<::sage::Error>("check failed: " #cond " (", __FILE__,  \
                                   ":", __LINE__, ") " __VA_OPT__(, )      \
                                       __VA_ARGS__);                       \
    }                                                                      \
  } while (0)

#define SAGE_CHECK_AS(ErrType, cond, ...)                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::sage::raise<ErrType>("check failed: " #cond " (", __FILE__, ":",   \
                             __LINE__, ") " __VA_OPT__(, ) __VA_ARGS__);   \
    }                                                                      \
  } while (0)
