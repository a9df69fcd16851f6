#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"
#include "util/fnv.h"

namespace origin::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

WeightedTable::WeightedTable(std::span<const double> weights) {
  sums_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    ORIGIN_CHECK(w >= 0.0, "WeightedTable: weight is negative or NaN");
    acc += w;
    ORIGIN_CHECK(std::isfinite(acc), "WeightedTable: weights are not finite");
    sums_.push_back(acc);
  }
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) { return uniform_double() < p; }

double Rng::normal(double mu, double sigma) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mu + sigma * spare_normal_;
  }
  // Box-Muller. uniform_double() can return 0; nudge into (0, 1].
  double u1 = 1.0 - uniform_double();
  double u2 = uniform_double();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  have_spare_normal_ = true;
  return mu + sigma * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double mean) {
  double u = 1.0 - uniform_double();
  return -mean * std::log(u);
}

double Rng::pareto(double lo, double hi, double alpha) {
  // Inverse-CDF sampling of the bounded Pareto distribution.
  double u = uniform_double();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::size_t Rng::weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return 0;
  double target = uniform_double() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= target) return i;
  }
  return weights.size() - 1;
}

std::size_t Rng::weighted(const WeightedTable& table) {
  const double total = table.total();
  if (total <= 0.0) return 0;
  const double target = uniform_double() * total;
  // The sums never decrease, so the first one >= target is the index the
  // span overload's walk stops at.
  const std::span<const double> sums = table.sums();
  const auto it = std::lower_bound(sums.begin(), sums.end(), target);
  if (it == sums.end()) return sums.size() - 1;
  return static_cast<std::size_t>(it - sums.begin());
}

Rng Rng::fork(std::uint64_t salt) {
  // Mix the parent's stream position with the salt so forks are independent
  // of each other and of subsequent parent draws.
  return Rng(fnv1a64_mix(next(), salt));
}

}  // namespace origin::util
