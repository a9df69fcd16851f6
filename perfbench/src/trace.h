// Wall-clock span recorder for the benchmark's traced runs.
//
// Spans are timed from outside the library: the benchmark wraps each call
// it makes into a layer's public functions. Every span has a name
// ("<layer>.<what>"), a start and end on std::chrono::steady_clock, and
// the index of the span that caused it (-1 for a root). Spans stay in
// memory until the run ends and are written out once as JSON.
//
// Serial code opens spans with Tracer::Scope, which nests under whichever
// scope is open on the calling thread. Work fanned out to a thread pool
// records finished spans with an explicit parent via Tracer::record, which
// is the only thread-safe entry point.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer();

  // RAII span on the calling (serial) thread. A null tracer records
  // nothing, so untraced code paths can share the same call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_current_ = -1;
  };

  // Thread-safe: appends a finished span under `parent`.
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, int parent);

  // The innermost open Scope on the serial thread (-1 when none).
  int current() const { return current_; }

  std::vector<Span> spans() const;
  // Sum of the durations of every span called `name`, in milliseconds.
  double total_ms(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  // Time inside span `id` that none of its direct children cover.
  double uncovered_ms(int id) const;

  // Writes every span as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t since_epoch_ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  int current_ = -1;         // serial thread only
};

// Nanoseconds between two steady_clock points.
inline std::int64_t elapsed_ns(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}

inline double elapsed_ms(Clock::time_point start, Clock::time_point end) {
  return static_cast<double>(elapsed_ns(start, end)) / 1e6;
}

}  // namespace perfbench
