// Descriptive statistics used by the measurement/report layer: percentiles,
// CDFs sampled at fixed quantiles, and integer histograms. The paper reports
// medians, interquartile ranges, and CDF plots; these helpers back all of
// those outputs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace origin::util {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double iqr() const { return p75 - p25; }
};

// Nearest-rank percentile on a copy of the data (q in [0, 100]).
double percentile(std::vector<double> values, double q);
Summary summarize(std::span<const double> values);

// A CDF sampled at each distinct data value: (value, fraction <= value).
// Suitable for plotting and for "fraction at or below x" queries.
class Cdf {
 public:
  static Cdf from(std::span<const double> values);

  // Fraction of samples <= x.
  double at(double x) const;
  std::size_t sample_count() const { return total_; }
  const std::vector<std::pair<double, double>>& points() const { return points_; }

  // Renders an ASCII sparkline of the CDF across [lo, hi], for bench output.
  std::string ascii(double lo, double hi, int width = 60) const;

 private:
  std::vector<std::pair<double, double>> points_;  // sorted (value, cum frac)
  std::size_t total_ = 0;
};

// Integer-keyed frequency histogram with helpers used by the SAN-size and
// connection-count tables.
class Histogram {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);
  std::uint64_t count(std::int64_t key) const;
  std::uint64_t total() const { return total_; }
  // Keys ordered by descending count (ties broken by ascending key).
  std::vector<std::pair<std::int64_t, std::uint64_t>> by_count_desc() const;
  const std::map<std::int64_t, std::uint64_t>& cells() const { return cells_; }

 private:
  std::map<std::int64_t, std::uint64_t> cells_;
  std::uint64_t total_ = 0;
};

}  // namespace origin::util
