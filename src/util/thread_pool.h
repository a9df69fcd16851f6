// Fixed-size worker pool with per-worker queues and work stealing.
//
// The corpus pipeline (generate -> load -> model -> aggregate) is
// embarrassingly parallel across sites, so the one primitive everything
// shards through is `parallel_for_index(n, body)`: run body(0..n-1) on the
// pool and return when all indices finished. Determinism rules:
//
//   * The MERGE IS THE CALLER'S INDEX SPACE. body(i) writes results[i];
//     nothing is ever keyed by completion order, so output is bit-identical
//     at any thread count (the pipeline_determinism_test gate).
//   * body(i) must not touch shared mutable state; everything it reads from
//     `this`-adjacent structures must be immutable for the duration of the
//     region (the clang thread-safety annotations and the TSan preset both
//     check the pool itself; discipline at call sites is enforced by
//     per-site RNG prepasses and atomic counters in the substrate).
//
// Scheduling: indices are pre-split into contiguous chunks dealt
// round-robin onto per-worker deques. A worker pops its own queue from the
// front and, when empty, steals from the back of a sibling's queue — the
// classic Blumofe/Leiserson shape, which keeps contention off the common
// path while still balancing skewed per-index costs (page loads vary by two
// orders of magnitude between a 3-resource tail site and a 600-resource
// shard farm).
//
// Error handling: the first exception thrown by any body() is captured and
// rethrown from parallel_for_index on the calling thread; remaining chunks
// are drained without running user code. Nested parallel_for_index calls
// (from inside a body) throw std::logic_error — nesting would deadlock a
// fixed pool, and no call site legitimately needs it.
//
// Thread count: ThreadPool(0) reads the ORIGIN_THREADS environment
// variable; unset or invalid falls back to std::thread::hardware_concurrency.
// A pool of 1 runs bodies inline on the caller with no worker threads — the
// serial fallback path (ORIGIN_THREADS=1) every determinism gate compares
// against.
//
// Lane, the second primitive, runs one background task at a time in
// submission order: the pipeline's serial folds (a digest chain that must
// see pages in site order) overlap the caller's other work without ever
// running concurrently with themselves. See the class comment.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace origin::util {

// Annotated condition variable companion to util::Mutex. Built on
// condition_variable_any so it waits directly on the annotated mutex; the
// REQUIRES contract makes the analysis verify callers hold the lock.
class CondVar {
 public:
  void wait(Mutex& mu) ORIGIN_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

// Thread count that `0` resolves to: ORIGIN_THREADS if set and positive,
// else hardware concurrency (min 1). Read once; the env var is process
// configuration, not a runtime knob.
std::size_t configured_thread_count();

// 0 -> configured_thread_count(), anything else passes through.
std::size_t resolve_thread_count(std::size_t requested);

class ThreadPool {
 public:
  // threads == 0 resolves via ORIGIN_THREADS / hardware concurrency.
  // threads == 1 creates no workers; parallel_for_index runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return thread_count_; }

  // Runs body(0) .. body(n-1), returning once all completed. Rethrows the
  // first body exception. Throws std::logic_error when called from inside
  // another parallel_for_index body (on this or any pool).
  void parallel_for_index(std::size_t n,
                          const std::function<void(std::size_t)>& body);

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // Per-worker deque: owner pops the front, thieves pop the back.
  struct Worker {
    Mutex mu;
    std::deque<Chunk> queue ORIGIN_GUARDED_BY(mu);
  };

  void worker_loop(std::size_t self);
  // Dequeues one chunk (own queue first, then steal). Returns false when no
  // work is available anywhere.
  bool take_chunk(std::size_t self, Chunk& out) ORIGIN_EXCLUDES(job_mu_);
  void run_chunk(const Chunk& chunk) ORIGIN_EXCLUDES(job_mu_);

  std::size_t thread_count_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  Mutex job_mu_;
  CondVar work_cv_;  // workers: "a job was posted" / "shut down"
  CondVar done_cv_;  // caller: "the last chunk finished"
  bool shutdown_ ORIGIN_GUARDED_BY(job_mu_) = false;
  std::size_t outstanding_chunks_ ORIGIN_GUARDED_BY(job_mu_) = 0;
  std::size_t queued_chunks_ ORIGIN_GUARDED_BY(job_mu_) = 0;
  bool job_failed_ ORIGIN_GUARDED_BY(job_mu_) = false;
  std::exception_ptr first_error_ ORIGIN_GUARDED_BY(job_mu_);
  const std::function<void(std::size_t)>* body_ ORIGIN_GUARDED_BY(job_mu_) =
      nullptr;

  // Serializes concurrent parallel_for_index callers: one job at a time
  // owns the worker queues.
  Mutex caller_mu_ ORIGIN_THREAD_ANNOTATION_(acquired_before(job_mu_));
};

// A background lane with at most one task in flight. run(task) waits for
// the previous task, then starts `task` on a thread of its own; wait()
// joins it. Tasks therefore run one after another in submission order, and
// the join is the only synchronization: whatever a task wrote is visible
// to the caller after wait() (or the next run()) returns, and the caller
// must not touch that state, nor write what the task reads, before then.
//
// Errors: a task's exception is captured and rethrown once, by the wait()
// or run() that joins it; the lane stays usable. The destructor joins
// without rethrowing, so a caller that must not drop a task's error calls
// wait() on every return path.
//
// Thread count: resolved like ThreadPool's. A lane of 1 starts no thread:
// run() calls the task inline on the caller, and the task's exception
// leaves run() itself — the serial fallback, in program order. A task runs
// outside any parallel region, so it may itself call parallel_for_index.
class Lane {
 public:
  explicit Lane(std::size_t threads);
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  void run(std::function<void()> task);
  void wait();

 private:
  bool inline_ = true;
  std::thread thread_;
  std::exception_ptr error_;  // written by thread_, read after its join
};

}  // namespace origin::util
