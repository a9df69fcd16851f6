// Counting-allocator hook: the runtime ground truth behind ORIGIN_HOT.
//
// Linking alloc_guard.cc into a binary replaces the global operator
// new/delete family with thin wrappers over malloc/free that bump
// per-thread counters. AllocGuard snapshots the calling thread's counters
// at construction; allocations()/bytes() report the delta since.
//
// Every binary that links repro_util gets the replacement, whether or not
// it uses the guard: its objects leave operator new undefined, and the
// linker resolves that from alloc_guard.o in librepro_util.a before it
// reaches libstdc++ (`nm` shows alloc_hook_touch in bench_paper and every
// example). A build that compiles alloc_guard.cc directly, as perfbench's
// glob over src/util does, gets it too. The cost is one thread-local
// increment per allocation. A binary that defines its own operator new
// (bench_perf_model) keeps its own. util::alloc_hook_touch() is for tests
// that must be sure the replacement is in.
//
// The counters are thread-local: a guard only observes allocations made on
// its own thread. Measure batch APIs at threads == 1 (the serial inline
// path), where every allocation lands on the caller.
//
// This is what turns "~0 allocs/page warm" from a bench note into a
// failing test (DESIGN.md §11): warm the scratch arenas with one batch,
// arm a guard, replay again, and assert the marginal count per page is
// zero.
#pragma once

#include <cstdint>

namespace origin::util {

struct AllocCounts {
  std::uint64_t allocations = 0;  // operator new / new[] calls
  std::uint64_t bytes = 0;        // sum of requested sizes
};

// Counters for the calling thread since thread start.
AllocCounts thread_alloc_counts();

// Forces the linker to pull in the replacement operators (any reference
// into alloc_guard.cc does); returns true so callers can assert on it.
bool alloc_hook_touch();

class AllocGuard {
 public:
  AllocGuard() : start_(thread_alloc_counts()) {}

  // Allocations on this thread since the guard was constructed.
  std::uint64_t allocations() const {
    return thread_alloc_counts().allocations - start_.allocations;
  }
  std::uint64_t bytes() const {
    return thread_alloc_counts().bytes - start_.bytes;
  }

  // Re-baselines the guard to "now".
  void reset() { start_ = thread_alloc_counts(); }

 private:
  AllocCounts start_;
};

}  // namespace origin::util
