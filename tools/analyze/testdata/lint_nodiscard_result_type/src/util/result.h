// Fixture: a util/result.h whose Result lost its class-level [[nodiscard]]
// must be rejected (nodiscard-result-type). Never compiled.
#pragma once

#include <variant>

namespace origin::util {

struct Error {};

template <typename T>
class Result {
 public:
  bool ok() const { return std::holds_alternative<T>(storage_); }

 private:
  std::variant<T, Error> storage_;
};

class [[nodiscard]] Status {
 public:
  bool ok() const { return !failed_; }

 private:
  bool failed_ = false;
};

}  // namespace origin::util
