// Deterministic random number generation.
//
// Every experiment in this repository must reproduce bit-identically from a
// seed, so we implement our own generator (xoshiro256++) and our own
// distributions rather than relying on implementation-defined behaviour of
// <random> distributions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace origin::util {

// Running sums of a weight vector, for repeated weighted draws over the
// same weights (Rng::weighted). The sums are accumulated in index order,
// exactly as Rng::weighted(span) accumulates them per draw, so both find
// the same index bit for bit (DESIGN.md §8). Weights must be non-negative,
// so the sums never decrease (the binary search needs that), and their sum
// finite, so the target is a number; anything else is a programming error
// and aborts.
class WeightedTable {
 public:
  WeightedTable() = default;  // no weights: every draw returns 0
  explicit WeightedTable(std::span<const double> weights);

  double total() const { return sums_.empty() ? 0.0 : sums_.back(); }
  std::span<const double> sums() const { return sums_; }

 private:
  std::vector<double> sums_;
};

// xoshiro256++ (Blackman & Vigna). Seeded through SplitMix64 so that any
// 64-bit seed yields a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next();

  // Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound);
  // Uniform in [0, 1).
  double uniform_double();
  bool bernoulli(double p);

  // Lognormal via Box-Muller: exp(mu + sigma * N(0,1)).
  double lognormal(double mu, double sigma);
  double normal(double mu, double sigma);
  double exponential(double mean);
  // Bounded Pareto on [lo, hi] with shape alpha. Heavy-tailed counts.
  double pareto(double lo, double hi, double alpha);

  // Picks an index with probability proportional to weights[i]: the first
  // index whose running sum reaches uniform_double() * total. An empty or
  // all-zero vector returns 0 and consumes no draw. This is the reference
  // definition; the generator draws through the table overload.
  std::size_t weighted(std::span<const double> weights);
  // The same draw over precomputed running sums: one binary search instead
  // of a re-sum and a linear walk. Returns the index weighted(span) returns
  // for the table's weights, and consumes the same draws.
  std::size_t weighted(const WeightedTable& table);

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[uniform(items.size())];
  }

  // Derives an independent child generator; used to give each website its
  // own stream so corpus generation is order-independent.
  Rng fork(std::uint64_t salt);

 private:
  std::uint64_t state_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace origin::util
