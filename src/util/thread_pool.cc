#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace origin::util {

namespace {

// Nesting sentinel: set for the duration of any body() execution, on worker
// threads and on the caller in the serial path alike.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = false; }
};

}  // namespace

std::size_t configured_thread_count() {
  static const std::size_t count = [] {
    // Process configuration, read once before any pool exists (so the read
    // itself never races worker startup).
    if (const char* env = std::getenv("ORIGIN_THREADS")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && parsed >= 1 && parsed <= 1024) {
        return static_cast<std::size_t>(parsed);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return count;
}

std::size_t resolve_thread_count(std::size_t requested) {
  return requested == 0 ? configured_thread_count() : requested;
}

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(resolve_thread_count(threads)) {
  if (thread_count_ <= 1) {
    thread_count_ = 1;
    return;  // serial pool: no workers, bodies run inline on the caller
  }
  workers_.reserve(thread_count_);
  for (std::size_t i = 0; i < thread_count_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(thread_count_);
  for (std::size_t i = 0; i < thread_count_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&job_mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::parallel_for_index(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (tl_in_parallel_region) {
    throw std::logic_error(
        "nested parallel_for_index: bodies must not fan out again (a fixed "
        "pool would deadlock); restructure as one flat index space");
  }
  if (n == 0) return;
  if (thread_count_ == 1 || n == 1) {
    // Serial fallback (ORIGIN_THREADS=1): same index order a caller-side
    // merge sees from the parallel path, byte for byte.
    RegionGuard region;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  MutexLock callers(&caller_mu_);  // one job owns the queues at a time

  // ~4 chunks per worker: coarse enough that queue traffic is negligible,
  // fine enough that stealing can level skewed per-index costs.
  const std::size_t target_chunks = std::min(n, thread_count_ * 4);
  const std::size_t chunk_size = (n + target_chunks - 1) / target_chunks;
  const std::size_t chunk_count = (n + chunk_size - 1) / chunk_size;

  // Publish the job before any chunk is visible: a still-draining worker
  // may steal the first chunk the instant it is queued.
  {
    MutexLock lock(&job_mu_);
    body_ = &body;
    job_failed_ = false;
    first_error_ = nullptr;
    outstanding_chunks_ = chunk_count;
    queued_chunks_ = chunk_count;
  }
  std::size_t next_worker = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    Chunk chunk{begin, std::min(n, begin + chunk_size)};
    Worker& worker = *workers_[next_worker++ % workers_.size()];
    MutexLock lock(&worker.mu);
    worker.queue.push_back(chunk);
  }
  work_cv_.notify_all();

  std::exception_ptr error;
  {
    MutexLock lock(&job_mu_);
    // analyze:allow(lock-wait-while-holding): caller_mu_ only serializes
    // concurrent callers of run(); workers signal done_cv_ under job_mu_
    // alone and never take caller_mu_, so the wait cannot deadlock
    while (outstanding_chunks_ != 0) done_cv_.wait(job_mu_);
    body_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    {
      MutexLock lock(&job_mu_);
      while (!shutdown_ && queued_chunks_ == 0) work_cv_.wait(job_mu_);
      if (shutdown_) return;
    }
    Chunk chunk;
    while (take_chunk(self, chunk)) run_chunk(chunk);
  }
}

bool ThreadPool::take_chunk(std::size_t self, Chunk& out) {
  bool got = false;
  {
    Worker& own = *workers_[self];
    MutexLock lock(&own.mu);
    if (!own.queue.empty()) {
      out = own.queue.front();
      own.queue.pop_front();
      got = true;
    }
  }
  // Steal from the BACK of a sibling queue: the owner works the front, so
  // thieves and owner only collide when one chunk is left.
  for (std::size_t k = 1; !got && k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    MutexLock lock(&victim.mu);
    if (!victim.queue.empty()) {
      out = victim.queue.back();
      victim.queue.pop_back();
      got = true;
    }
  }
  if (got) {
    MutexLock lock(&job_mu_);
    --queued_chunks_;
  }
  return got;
}

void ThreadPool::run_chunk(const Chunk& chunk) {
  const std::function<void(std::size_t)>* body = nullptr;
  bool failed = false;
  {
    MutexLock lock(&job_mu_);
    body = body_;
    failed = job_failed_;
  }
  if (!failed && body != nullptr) {
    RegionGuard region;
    try {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) (*body)(i);
    } catch (...) {
      MutexLock lock(&job_mu_);
      if (!job_failed_) {
        // First failure wins; later chunks drain without running user code.
        job_failed_ = true;
        first_error_ = std::current_exception();
      }
    }
  }
  MutexLock lock(&job_mu_);
  if (--outstanding_chunks_ == 0) done_cv_.notify_all();
}

Lane::Lane(std::size_t threads) : inline_(resolve_thread_count(threads) <= 1) {}

Lane::~Lane() {
  if (thread_.joinable()) thread_.join();
}

void Lane::run(std::function<void()> task) {
  wait();
  if (inline_) {
    task();
    return;
  }
  thread_ = std::thread([this, task = std::move(task)] {
    try {
      task();
    } catch (...) {
      error_ = std::current_exception();
    }
  });
}

void Lane::wait() {
  if (thread_.joinable()) thread_.join();
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace origin::util
