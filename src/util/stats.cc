#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace origin::util {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 100.0);
  // Nearest-rank (ceil) definition; median of an even-size set takes the
  // lower-middle element, matching how the paper reports integer medians.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  s.count = v.size();
  s.min = v.front();
  s.max = v.back();
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(v.size())));
    if (rank == 0) rank = 1;
    return v[rank - 1];
  };
  s.p25 = at(25);
  s.median = at(50);
  s.p75 = at(75);
  s.p90 = at(90);
  s.p95 = at(95);
  s.p99 = at(99);
  return s;
}

Cdf Cdf::from(std::span<const double> values) {
  Cdf cdf;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  cdf.total_ = v.size();
  if (v.empty()) return cdf;
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool last_of_run = (i + 1 == v.size()) || (v[i + 1] != v[i]);
    if (last_of_run) {
      cdf.points_.emplace_back(v[i], static_cast<double>(i + 1) /
                                         static_cast<double>(v.size()));
    }
  }
  return cdf;
}

double Cdf::at(double x) const {
  if (points_.empty()) return 0.0;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), x,
      [](double lhs, const auto& p) { return lhs < p.first; });
  if (it == points_.begin()) return 0.0;
  return std::prev(it)->second;
}

std::string Cdf::ascii(double lo, double hi, int width) const {
  std::string out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    double x = lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                        static_cast<double>(width);
    double f = at(x);
    static constexpr const char* kLevels[] = {" ", ".", ":", "-", "=", "+",
                                              "*", "#", "%", "@"};
    int level = std::clamp(static_cast<int>(f * 10.0), 0, 9);
    out += kLevels[level];
  }
  return out;
}

void Histogram::add(std::int64_t key, std::uint64_t weight) {
  cells_[key] += weight;
  total_ += weight;
}

std::uint64_t Histogram::count(std::int64_t key) const {
  auto it = cells_.find(key);
  return it == cells_.end() ? 0 : it->second;
}

std::vector<std::pair<std::int64_t, std::uint64_t>> Histogram::by_count_desc()
    const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out(cells_.begin(),
                                                          cells_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace origin::util
