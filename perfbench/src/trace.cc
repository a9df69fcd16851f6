#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::since_epoch_ns(Clock::time_point t) const {
  return elapsed_ns(epoch_, t);
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_current_ = tracer_->current_;
  Span span;
  span.name = std::string(name);
  span.parent = saved_current_;
  span.start_ns = tracer_->since_epoch_ns(Clock::now());
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    id_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(std::move(span));
  }
  tracer_->current_ = id_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->since_epoch_ns(Clock::now());
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(id_)].end_ns = end;
  }
  tracer_->current_ = saved_current_;
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, int parent) {
  Span span;
  span.name = std::string(name);
  span.start_ns = since_epoch_ns(start);
  span.end_ns = since_epoch_ns(end);
  span.parent = parent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::total_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration_ns();
  }
  return static_cast<double>(total) / 1e6;
}

std::size_t Tracer::count(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& span) { return span.name == name; }));
}

double Tracer::uncovered_ms(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& root = spans_[static_cast<std::size_t>(id)];
  // Union of the direct children's intervals, clipped to the root.
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& span : spans_) {
    if (span.parent != id) continue;
    children.emplace_back(std::max(span.start_ns, root.start_ns),
                          std::min(span.end_ns, root.end_ns));
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = root.start_ns;
  for (const auto& [start, end] : children) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return static_cast<double>(root.duration_ns() - covered) / 1e6;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}%s\n",
                 i, span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
