// Minimal expected-like result type used across the codec layers.
//
// The harness predates std::expected availability here; this covers the
// subset we need (value-or-error, monadic map) without exceptions on the
// hot path.
//
// Result and Status are [[nodiscard]]: a parse or decode entrypoint whose
// return value is ignored silently swallows the error path, which is
// exactly the failure mode the §6.7 middlebox incident punishes. The
// lint pass of origin_analyze (tools/analyze) additionally enforces that
// every header declaration returning one of these types is [[nodiscard]],
// and that both classes stay [[nodiscard]].
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "util/check.h"

namespace origin::util {

struct Error {
  std::string message;
};

[[nodiscard]] inline Error make_error(std::string message) {
  return Error{std::move(message)};
}

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : storage_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    ORIGIN_CHECK(ok(), "Result::value() on error");
    return std::get<T>(storage_);
  }
  [[nodiscard]] T& value() & {
    ORIGIN_CHECK(ok(), "Result::value() on error");
    return std::get<T>(storage_);
  }
  [[nodiscard]] T&& value() && {
    ORIGIN_CHECK(ok(), "Result::value() on error");
    return std::get<T>(std::move(storage_));
  }
  const T& operator*() const& { return value(); }
  const T* operator->() const { return &value(); }

  [[nodiscard]] const Error& error() const {
    ORIGIN_CHECK(!ok(), "Result::error() on success");
    return std::get<Error>(storage_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(storage_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> storage_;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT

  [[nodiscard]] static Status ok_status() { return Status{}; }
  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const Error& error() const {
    ORIGIN_CHECK(failed_, "Status::error() on success");
    return error_;
  }

 private:
  Error error_;
  bool failed_ = false;
};

}  // namespace origin::util
