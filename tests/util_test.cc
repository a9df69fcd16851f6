#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace origin::util {
namespace {

TEST(Bytes, RoundTripIntegers) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u24(0xabcdef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u24(), 0xabcdefu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderUnderflowSetsStickyError) {
  Bytes data = {0x01, 0x02};
  ByteReader r(data);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_EQ(r.u32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // error stays sticky
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, PatchU24BackfillsLength) {
  ByteWriter w;
  w.u24(0);
  w.raw(std::string_view("abcdef"));
  w.patch_u24(0, 6);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u24(), 6u);
  EXPECT_EQ(r.str(6), "abcdef");
}

TEST(Bytes, RawReadBounds) {
  Bytes data = {1, 2, 3};
  ByteReader r(data);
  EXPECT_EQ(r.raw(3).size(), 3u);
  EXPECT_TRUE(r.ok());
  ByteReader r2(data);
  EXPECT_TRUE(r2.raw(4).empty());
  EXPECT_FALSE(r2.ok());
}

TEST(Bytes, HexFormatting) {
  Bytes data = {0x00, 0xff, 0x1a};
  EXPECT_EQ(to_hex(data), "00ff1a");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(17), 17u);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(percentile(xs, 50), std::exp(1.0), 0.15);
}

TEST(Rng, WeightedProportions) {
  Rng rng(19);
  const double weights[] = {1.0, 3.0};
  int hits[2] = {0, 0};
  for (int i = 0; i < 8000; ++i) hits[rng.weighted(weights)]++;
  EXPECT_NEAR(static_cast<double>(hits[1]) / 8000.0, 0.75, 0.03);
}

// Seeded weight vectors of 1 to 2,000 entries in the shapes a running-sum
// search could get wrong: zeros anywhere, at either end, everywhere, a
// single non-zero weight, and magnitudes from 1e-300 to 1e300.
std::vector<std::vector<double>> weight_vectors() {
  std::mt19937_64 gen(29);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> exponent(-300.0, 300.0);
  const std::size_t kSizes[] = {1, 2, 3, 17, 250, 1'500, 2'000};
  std::vector<std::vector<double>> vectors;
  for (const std::size_t n : kSizes) {
    for (int shape = 0; shape < 6; ++shape) {
      std::vector<double> w(n);
      for (double& x : w) x = unit(gen);
      switch (shape) {
        case 0:  // plain
          break;
        case 1:  // zeros scattered through
          for (double& x : w) x = unit(gen) < 0.4 ? 0.0 : x;
          break;
        case 2:  // leading and trailing zeros
          for (std::size_t i = 0; i < n; ++i) {
            if (i < n / 3 || i >= n - n / 3) w[i] = 0.0;
          }
          break;
        case 3:  // all zeros
          std::fill(w.begin(), w.end(), 0.0);
          break;
        case 4:  // a single non-zero weight
          std::fill(w.begin(), w.end(), 0.0);
          w[gen() % n] = 0.5 + unit(gen);
          break;
        case 5:  // magnitudes spanning 1e-300..1e300, some zeros
          for (double& x : w) {
            x = unit(gen) < 0.1 ? 0.0 : std::pow(10.0, exponent(gen));
          }
          break;
      }
      vectors.push_back(std::move(w));
    }
  }
  return vectors;
}

TEST(Rng, WeightedTableMatchesWeighted) {
  std::uint64_t seed = 41;
  for (const std::vector<double>& weights : weight_vectors()) {
    SCOPED_TRACE("size=" + std::to_string(weights.size()) +
                 " seed=" + std::to_string(seed));
    const WeightedTable table(weights);
    Rng by_span(seed);
    Rng by_table(seed);
    for (int draw = 0; draw < 10'000; ++draw) {
      const std::size_t expected = by_span.weighted(weights);
      const std::size_t actual = by_table.weighted(table);
      ASSERT_EQ(actual, expected) << "draw " << draw;
    }
    // Same draws consumed: the streams are still in lockstep.
    EXPECT_EQ(by_table.next(), by_span.next());
    ++seed;
  }
  // The empty table draws nothing, like the empty span.
  Rng by_span(3);
  Rng by_table(3);
  EXPECT_EQ(by_table.weighted(WeightedTable()),
            by_span.weighted(std::span<const double>()));
  EXPECT_EQ(by_table.next(), by_span.next());
}

TEST(Rng, WeightedTableRejectsNegativeAndNaNWeights) {
  const double negative[] = {1.0, -0.5, 2.0};
  const double nan[] = {1.0, std::nan(""), 2.0};
  EXPECT_DEATH((void)WeightedTable(negative), "WeightedTable");
  EXPECT_DEATH((void)WeightedTable(nan), "WeightedTable");
}

TEST(Rng, ParetoStaysInBounds) {
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    double v = rng.pareto(2.0, 100.0, 1.5);
    EXPECT_GE(v, 2.0 - 1e-9);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next(), c2.next());
}

TEST(Stats, PercentileNearestRank) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile(v, 10), 1);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.median, 50);
  EXPECT_EQ(s.p25, 25);
  EXPECT_EQ(s.p75, 75);
  EXPECT_EQ(s.iqr(), 50);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
}

TEST(Stats, CdfAtAndQuantile) {
  std::vector<double> v = {1, 1, 2, 4};
  Cdf cdf = Cdf::from(v);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(3), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
  EXPECT_EQ(cdf.quantile(0.5), 1);
  EXPECT_EQ(cdf.quantile(0.75), 2);
  EXPECT_EQ(cdf.quantile(1.0), 4);
}

TEST(Stats, CdfEmpty) {
  Cdf cdf = Cdf::from({});
  EXPECT_EQ(cdf.at(10), 0.0);
  EXPECT_EQ(cdf.sample_count(), 0u);
}

TEST(Stats, HistogramOrdering) {
  Histogram h;
  h.add(3, 5);
  h.add(1, 10);
  h.add(2, 5);
  auto ranked = h.by_count_desc();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 1);
  // Ties broken by ascending key.
  EXPECT_EQ(ranked[1].first, 2);
  EXPECT_EQ(ranked[2].first, 3);
  EXPECT_EQ(h.total(), 20u);
  EXPECT_EQ(h.count(42), 0u);
}

TEST(Strings, SplitJoin) {
  auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(join(parts, "."), "a.b.c");
  EXPECT_EQ(split("", '.').size(), 1u);
  EXPECT_EQ(split("a.", '.').size(), 2u);
}

TEST(Strings, RegistrableDomain) {
  EXPECT_EQ(registrable_domain("images.example.com"), "example.com");
  EXPECT_EQ(registrable_domain("example.com"), "example.com");
  EXPECT_EQ(registrable_domain("a.b.example.co.uk"), "example.co.uk");
  EXPECT_EQ(registrable_domain("deep.nest.shard.site.org"), "site.org");
}

TEST(Strings, WildcardMatching) {
  EXPECT_TRUE(wildcard_matches("*.example.com", "www.example.com"));
  EXPECT_FALSE(wildcard_matches("*.example.com", "example.com"));
  EXPECT_FALSE(wildcard_matches("*.example.com", "a.b.example.com"));
  EXPECT_TRUE(wildcard_matches("exact.host.net", "exact.host.net"));
  EXPECT_FALSE(wildcard_matches("other.host.net", "exact.host.net"));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12), "12");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_pct(0.5), "50.00%");
}

TEST(Fnv, KnownValueAndMixing) {
  // FNV-1a("") is the offset basis.
  EXPECT_EQ(fnv1a64(""), kFnvOffset);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(fnv1a64_mix(1, 2), fnv1a64_mix(2, 1));
}

static_assert(FnvRun("\n  \"key\": ").apply(kFnvOffset) ==
              fnv1a64("\n  \"key\": "));

std::string random_bytes(std::mt19937_64& rng, std::size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  return bytes;
}

// Every low byte, bare and under random high bits, plus the offset basis:
// apply() splits the state at the low byte, so each table row and the
// multiplied high part are both exercised.
std::vector<std::uint64_t> fnv_seeds(std::mt19937_64& rng) {
  std::vector<std::uint64_t> seeds = {kFnvOffset};
  for (std::uint64_t low = 0; low < 256; ++low) {
    seeds.push_back(low);
    seeds.push_back((rng() & ~std::uint64_t{0xff}) | low);
  }
  return seeds;
}

TEST(Fnv, RunFoldsLikeTheByteLoop) {
  std::mt19937_64 rng(11);
  const std::vector<std::uint64_t> seeds = fnv_seeds(rng);
  std::vector<std::string> texts = {""};
  for (int byte = 0; byte < 256; ++byte) {
    texts.emplace_back(1, static_cast<char>(byte));
  }
  for (int i = 0; i < 200; ++i) {
    texts.push_back(random_bytes(rng, 1 + rng() % 64));
  }
  std::size_t mismatches = 0;
  for (const std::string& text : texts) {
    const FnvRun run(text);
    for (std::uint64_t seed : seeds) {
      if (run.apply(seed) != fnv1a64(text, seed) && ++mismatches <= 5) {
        ADD_FAILURE() << "text of " << text.size() << " bytes, seed "
                      << seed;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Fnv, RunsCompose) {
  std::mt19937_64 rng(12);
  const std::vector<std::uint64_t> seeds = fnv_seeds(rng);
  for (int i = 0; i < 32; ++i) {
    const std::string a = random_bytes(rng, rng() % 33);
    const std::string b = random_bytes(rng, rng() % 33);
    const FnvRun run_a(a);
    const FnvRun run_b(b);
    const FnvRun run_ab(a + b);
    const FnvRun parts({a, b});
    for (std::uint64_t seed : seeds) {
      ASSERT_EQ(run_b.apply(run_a.apply(seed)), run_ab.apply(seed));
      ASSERT_EQ(parts.apply(seed), run_ab.apply(seed));
    }
  }
}

TEST(SimTime, Arithmetic) {
  SimTime t0;
  SimTime t1 = t0 + Duration::millis(1.5);
  EXPECT_EQ((t1 - t0).count_micros(), 1500);
  EXPECT_DOUBLE_EQ(t1.as_millis(), 1.5);
  EXPECT_LT(t0, t1);
  Duration d = Duration::seconds(2) * 0.5;
  EXPECT_DOUBLE_EQ(d.as_seconds(), 1.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Name", "Count"});
  t.add_row({"alpha", "10"});
  t.add_row({"b", "1,000"});
  std::string out = t.render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("1,000"), std::string::npos);
  // Numeric column is right-aligned: "10" is preceded by spaces.
  EXPECT_NE(out.find("   10"), std::string::npos);
}

}  // namespace
}  // namespace origin::util
