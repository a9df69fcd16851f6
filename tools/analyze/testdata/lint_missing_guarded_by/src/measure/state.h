// Fixture: a member declared after a util::Mutex without an
// ORIGIN_GUARDED_BY annotation must be rejected (guarded-by-annotation).
// Never compiled.
#pragma once

#include <cstdint>

#include "util/thread_annotations.h"

namespace origin::measure {

class Counter {
 public:
  void bump();

 private:
  origin::util::Mutex mu_;
  std::uint64_t count_ = 0;  // intentionally unannotated
};

}  // namespace origin::measure
