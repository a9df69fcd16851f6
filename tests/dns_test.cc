#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "dataset/corpus.h"
#include "dns/record.h"
#include "dns/resolver.h"
#include "dns/zone.h"

namespace origin::dns {
namespace {

using origin::util::Duration;
using origin::util::SimTime;

SimTime t(double seconds) {
  return SimTime::from_micros(static_cast<std::int64_t>(seconds * 1e6));
}

TEST(IpAddressTest, Formatting) {
  EXPECT_EQ(IpAddress::v4(0xC0A80001).to_string(), "192.168.0.1");
  EXPECT_EQ(IpAddress::v6(0x1).to_string(), "2001:db8::1");
  EXPECT_EQ(IpAddress::v4(5), IpAddress::v4(5));
  EXPECT_NE(IpAddress::v4(5), IpAddress::v6(5));
}

TEST(ZoneTest, AuthoritativeSuffixMatch) {
  Zone zone("example.com");
  EXPECT_TRUE(zone.authoritative_for("example.com"));
  EXPECT_TRUE(zone.authoritative_for("img.example.com"));
  EXPECT_FALSE(zone.authoritative_for("example.net"));
  EXPECT_FALSE(zone.authoritative_for("notexample.com"));
}

TEST(ZoneTest, QueryReturnsMatchingType) {
  Zone zone("example.com");
  zone.add_a("www.example.com", IpAddress::v4(1));
  zone.add_a("www.example.com", IpAddress::v6(2));
  auto v4 = zone.query("www.example.com", RecordType::kA);
  ASSERT_EQ(v4.size(), 1u);
  EXPECT_EQ(v4[0].address, IpAddress::v4(1));
  auto v6 = zone.query("www.example.com", RecordType::kAAAA);
  ASSERT_EQ(v6.size(), 1u);
  EXPECT_EQ(v6[0].address, IpAddress::v6(2));
  EXPECT_TRUE(zone.query("missing.example.com", RecordType::kA).empty());
}

TEST(ZoneTest, RoundRobinRotatesAnswers) {
  Zone zone("example.com");
  zone.add_a("lb.example.com", IpAddress::v4(1));
  zone.add_a("lb.example.com", IpAddress::v4(2));
  zone.add_a("lb.example.com", IpAddress::v4(3));
  zone.set_policy("lb.example.com", AnswerPolicy::kRoundRobin);
  auto first = zone.query("lb.example.com", RecordType::kA);
  auto second = zone.query("lb.example.com", RecordType::kA);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(first[0].address, IpAddress::v4(1));
  EXPECT_EQ(second[0].address, IpAddress::v4(2));  // rotated
}

TEST(ZoneTest, SinglePolicyReturnsOneRotating) {
  Zone zone("example.com");
  zone.add_a("lb.example.com", IpAddress::v4(1));
  zone.add_a("lb.example.com", IpAddress::v4(2));
  zone.set_policy("lb.example.com", AnswerPolicy::kSingle);
  auto a1 = zone.query("lb.example.com", RecordType::kA);
  auto a2 = zone.query("lb.example.com", RecordType::kA);
  auto a3 = zone.query("lb.example.com", RecordType::kA);
  ASSERT_EQ(a1.size(), 1u);
  EXPECT_EQ(a1[0].address, IpAddress::v4(1));
  EXPECT_EQ(a2[0].address, IpAddress::v4(2));
  EXPECT_EQ(a3[0].address, IpAddress::v4(1));
}

TEST(ZoneTest, CnameAnswersAnyType) {
  Zone zone("example.com");
  zone.add_cname("alias.example.com", "real.example.com");
  auto answer = zone.query("alias.example.com", RecordType::kA);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].type, RecordType::kCNAME);
  EXPECT_EQ(answer[0].target, "real.example.com");
}

TEST(ZoneTest, ClearAddressesKeepsCname) {
  Zone zone("example.com");
  zone.add_a("x.example.com", IpAddress::v4(9));
  zone.add_cname("x.example.com", "y.example.com");
  zone.clear_addresses("x.example.com");
  auto answer = zone.query("x.example.com", RecordType::kA);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].type, RecordType::kCNAME);
}

TEST(AuthoritativeDnsTest, LongestSuffixZoneWins) {
  AuthoritativeDns dns;
  dns.add_zone("example.com").add_a("img.cdn.example.com", IpAddress::v4(1));
  dns.add_zone("cdn.example.com").add_a("img.cdn.example.com", IpAddress::v4(2));
  auto records = dns.query("img.cdn.example.com", RecordType::kA);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].address, IpAddress::v4(2));
  EXPECT_EQ(dns.query_count(), 1u);

  dns.add_zone("a.b.cdn.example.com");
  const auto apex_for = [&](const std::string& name) -> std::string {
    const Zone* zone = dns.find_zone_for(name);
    return zone == nullptr ? "(none)" : zone->apex();
  };
  // An exact apex is its own zone, nested zones included.
  EXPECT_EQ(apex_for("example.com"), "example.com");
  EXPECT_EQ(apex_for("cdn.example.com"), "cdn.example.com");
  EXPECT_EQ(apex_for("a.b.cdn.example.com"), "a.b.cdn.example.com");
  // A name takes the deepest zone above it.
  EXPECT_EQ(apex_for("img.example.com"), "example.com");
  EXPECT_EQ(apex_for("b.cdn.example.com"), "cdn.example.com");
  EXPECT_EQ(apex_for("x.a.b.cdn.example.com"), "a.b.cdn.example.com");
  // Ending with an apex's text is not enough: the match is label-aligned.
  EXPECT_EQ(apex_for("notexample.com"), "(none)");
  EXPECT_EQ(apex_for("img.notcdn.example.com"), "example.com");
  // No zone, and a trailing dot (no zone is written with one).
  EXPECT_EQ(apex_for("example.net"), "(none)");
  EXPECT_EQ(apex_for("com"), "(none)");
  EXPECT_EQ(apex_for(""), "(none)");
  EXPECT_EQ(apex_for("img.cdn.example.com."), "(none)");
  EXPECT_EQ(apex_for("example.com."), "(none)");
}

// The rule find_zone_for implements, as the plain scan over every zone.
const Zone* longest_apex_by_scan(const AuthoritativeDns& dns,
                                 std::string_view name) {
  const Zone* best = nullptr;
  for (const auto& [apex, zone] : dns.zones()) {
    if (zone.authoritative_for(name) &&
        (best == nullptr || apex.size() > best->apex().size())) {
      best = &zone;
    }
  }
  return best;
}

TEST(AuthoritativeDnsTest, SuffixWalkMatchesTheScanOnTheGoldenCorpus) {
  dataset::CorpusOptions options;
  options.site_count = 1'000;
  options.seed = 42;
  options.threads = 4;
  dataset::Corpus corpus(options);
  const AuthoritativeDns& dns = corpus.env().dns();
  ASSERT_GT(dns.zones().size(), 100u);

  std::vector<std::string> names = {
      "", ".", "com", "unregistered.invalid", "a..b", ".leading.dot"};
  for (const auto& [apex, zone] : dns.zones()) {
    names.push_back(apex);
    names.push_back("x" + apex);
  }
  for (const auto& service : corpus.env().services()) {
    for (const std::string& hostname : service.served_hostnames) {
      names.push_back(hostname);
      names.push_back("deeper." + hostname);
      names.push_back(hostname + ".");
      names.push_back("x" + hostname);
    }
  }
  std::size_t found = 0;
  for (const std::string& name : names) {
    const Zone* zone = dns.find_zone_for(name);
    ASSERT_EQ(zone, longest_apex_by_scan(dns, name)) << name;
    if (zone != nullptr) ++found;
  }
  EXPECT_GT(found, names.size() / 2);
}

TEST(ResolverTest, ResolvesAndCaches) {
  AuthoritativeDns dns;
  dns.add_zone("example.com").add_a("www.example.com", IpAddress::v4(7), 300);
  Resolver resolver(dns, Resolver::Params{}, 42);
  auto a1 = resolver.resolve("www.example.com", Family::kV4, t(0));
  ASSERT_TRUE(a1.ok);
  EXPECT_FALSE(a1.from_cache);
  EXPECT_EQ(a1.addresses[0], IpAddress::v4(7));
  EXPECT_GT(a1.latency.count_micros(), 1000);

  auto a2 = resolver.resolve("www.example.com", Family::kV4, t(1));
  EXPECT_TRUE(a2.from_cache);
  EXPECT_LT(a2.latency.count_micros(), 1000);
  EXPECT_EQ(resolver.stats().lookups, 2u);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
  EXPECT_EQ(resolver.stats().recursive_queries, 1u);
}

TEST(ResolverTest, CacheExpiresAfterTtl) {
  AuthoritativeDns dns;
  dns.add_zone("example.com").add_a("www.example.com", IpAddress::v4(7), 60);
  Resolver resolver(dns, Resolver::Params{}, 42);
  (void)resolver.resolve("www.example.com", Family::kV4, t(0));
  auto hit = resolver.resolve("www.example.com", Family::kV4, t(59));
  EXPECT_TRUE(hit.from_cache);
  auto miss = resolver.resolve("www.example.com", Family::kV4, t(61));
  EXPECT_FALSE(miss.from_cache);
}

TEST(ResolverTest, FollowsCnameChain) {
  AuthoritativeDns dns;
  auto& zone = dns.add_zone("example.com");
  zone.add_cname("www.example.com", "edge.example.com");
  zone.add_cname("edge.example.com", "pod7.example.com");
  zone.add_a("pod7.example.com", IpAddress::v4(3));
  Resolver resolver(dns, Resolver::Params{}, 1);
  auto answer = resolver.resolve("www.example.com", Family::kV4, t(0));
  ASSERT_TRUE(answer.ok);
  EXPECT_EQ(answer.addresses[0], IpAddress::v4(3));
  EXPECT_EQ(answer.canonical_name, "pod7.example.com");
}

TEST(ResolverTest, CnameLoopTerminates) {
  AuthoritativeDns dns;
  auto& zone = dns.add_zone("example.com");
  zone.add_cname("a.example.com", "b.example.com");
  zone.add_cname("b.example.com", "a.example.com");
  Resolver resolver(dns, Resolver::Params{}, 1);
  auto answer = resolver.resolve("a.example.com", Family::kV4, t(0));
  EXPECT_FALSE(answer.ok);
}

TEST(ResolverTest, NxdomainNegativeCached) {
  AuthoritativeDns dns;
  dns.add_zone("example.com");
  Resolver resolver(dns, Resolver::Params{}, 1);
  auto a1 = resolver.resolve("missing.example.com", Family::kV4, t(0));
  EXPECT_FALSE(a1.ok);
  EXPECT_EQ(resolver.stats().nxdomain, 1u);
  auto a2 = resolver.resolve("missing.example.com", Family::kV4, t(5));
  EXPECT_FALSE(a2.ok);
  EXPECT_TRUE(a2.from_cache);
}

TEST(ResolverTest, PlaintextExposureTracking) {
  AuthoritativeDns dns;
  dns.add_zone("example.com").add_a("www.example.com", IpAddress::v4(1));
  Resolver do53(dns, Resolver::Params{}, 1);
  (void)do53.resolve("www.example.com", Family::kV4, t(0));
  EXPECT_EQ(do53.stats().plaintext_exposures, 1u);

  Resolver::Params doh_params;
  doh_params.transport = Transport::kDoH;
  Resolver doh(dns, doh_params, 1);
  (void)doh.resolve("www.example.com", Family::kV4, t(0));
  EXPECT_EQ(doh.stats().plaintext_exposures, 0u);
}

TEST(ResolverTest, MultipleAddressesReturned) {
  AuthoritativeDns dns;
  auto& zone = dns.add_zone("cdn.example");
  zone.add_a("edge.cdn.example", IpAddress::v4(10));
  zone.add_a("edge.cdn.example", IpAddress::v4(11));
  Resolver resolver(dns, Resolver::Params{}, 1);
  auto answer = resolver.resolve("edge.cdn.example", Family::kV4, t(0));
  ASSERT_TRUE(answer.ok);
  EXPECT_EQ(answer.addresses.size(), 2u);
}

}  // namespace
}  // namespace origin::dns
