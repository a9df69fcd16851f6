// Clang Thread Safety Analysis capability annotations, plus the annotated
// mutex wrappers the rest of the tree must use.
//
// The analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) is a
// *compile-time* race detector: a member declared ORIGIN_GUARDED_BY(mu_)
// can only be touched while mu_ is held, a function declared
// ORIGIN_REQUIRES(mu_) can only be called with mu_ held, and violations are
// errors on clang builds (-Wthread-safety is promoted to an error by the
// top-level CMakeLists). gcc compiles the same annotations to nothing, so
// the tree stays portable; origin_analyze's thread-discipline rules enforce
// the parts that do not need the analysis (no raw std::mutex outside
// src/util/, no detach(), no volatile-as-synchronization) on every
// compiler.
//
// Discipline:
//   * Synchronize with util::Mutex + util::MutexLock, never raw std::mutex.
//   * Every member written under a mutex is annotated ORIGIN_GUARDED_BY.
//   * Functions with locking side effects carry ORIGIN_ACQUIRE / RELEASE /
//     REQUIRES / EXCLUDES so callers inherit the contract.
#pragma once

#include <mutex>

#if defined(__clang__)
#define ORIGIN_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ORIGIN_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

#define ORIGIN_CAPABILITY(x) ORIGIN_THREAD_ANNOTATION_(capability(x))
#define ORIGIN_SCOPED_CAPABILITY ORIGIN_THREAD_ANNOTATION_(scoped_lockable)
#define ORIGIN_GUARDED_BY(x) ORIGIN_THREAD_ANNOTATION_(guarded_by(x))
#define ORIGIN_PT_GUARDED_BY(x) ORIGIN_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ORIGIN_REQUIRES(...) \
  ORIGIN_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define ORIGIN_ACQUIRE(...) \
  ORIGIN_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ORIGIN_RELEASE(...) \
  ORIGIN_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define ORIGIN_TRY_ACQUIRE(...) \
  ORIGIN_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define ORIGIN_EXCLUDES(...) \
  ORIGIN_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ORIGIN_RETURN_CAPABILITY(x) \
  ORIGIN_THREAD_ANNOTATION_(lock_returned(x))
#define ORIGIN_NO_THREAD_SAFETY_ANALYSIS \
  ORIGIN_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace origin::util {

// Annotated exclusive mutex. Thin wrapper over std::mutex: the wrapper is
// what lets the analysis track acquisition, and what the analyzer's
// no-raw-std-mutex rule pushes every caller onto.
class ORIGIN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ORIGIN_ACQUIRE() { mu_.lock(); }
  void unlock() ORIGIN_RELEASE() { mu_.unlock(); }
  bool try_lock() ORIGIN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock; the ONLY way code outside util/ should hold a Mutex.
class ORIGIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ORIGIN_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() ORIGIN_RELEASE() { mu_->unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace origin::util
