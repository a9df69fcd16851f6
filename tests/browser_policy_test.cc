#include <gtest/gtest.h>

#include "browser/policy.h"
#include "tls/ca.h"
#include "util/rng.h"

namespace origin::browser {
namespace {

using dns::IpAddress;

tls::Certificate make_cert(const std::vector<std::string>& sans) {
  static tls::CertificateAuthority ca("Policy Test CA", 99, 5000);
  auto cert = ca.issue(sans.empty() ? "cn.example" : sans[0], sans,
                       origin::util::SimTime::from_micros(0));
  return *cert;
}

h2::OriginSet initial_origin_set(const std::string& host) {
  h2::Origin initial;
  initial.host = host;
  return h2::OriginSet(initial);
}

// The record points at a certificate and an origin set that the caller
// owns, as both loaders' records do.
ConnectionRecord make_conn(const tls::Certificate& cert,
                           const h2::OriginSet& origin_set,
                           IpAddress connected,
                           std::vector<IpAddress> available) {
  ConnectionRecord conn;
  conn.id = 1;
  conn.sni = origin_set.initial().host;
  conn.connected_address = connected;
  conn.available_set = std::move(available);
  conn.certificate = &cert;
  conn.origin_set = &origin_set;
  conn.pool_key = "cred";
  return conn;
}

// The paper's §2.3 worked example: DNS for the page returns {A, B},
// connection lands on A; DNS for the subresource returns {B, C}.
struct PaperExample {
  IpAddress a = IpAddress::v4(0x0A000001);
  IpAddress b = IpAddress::v4(0x0A000002);
  IpAddress c = IpAddress::v4(0x0A000003);
  tls::Certificate cert = make_cert({"www.example.com", "img.example.com"});
  h2::OriginSet origin_set = initial_origin_set("www.example.com");
  ConnectionRecord conn =
      make_conn(cert, origin_set, IpAddress::v4(0x0A000001),
                {IpAddress::v4(0x0A000001), IpAddress::v4(0x0A000002)});
  std::vector<IpAddress> subresource_answer = {IpAddress::v4(0x0A000002),
                                               IpAddress::v4(0x0A000003)};
};

TEST(ChromiumPolicy, LosesTransitivity) {
  // Chromium keeps only IP_A in the connected set; {B, C} has no match.
  PaperExample ex;
  ChromiumIpPolicy policy;
  auto decision =
      policy.evaluate(ex.conn, "img.example.com", ex.subresource_answer);
  EXPECT_FALSE(decision.reuse);
  EXPECT_TRUE(decision.dns_consulted);
}

TEST(FirefoxPolicy, ExploitsTransitivity) {
  // Firefox's available-set {A, B} intersects {B, C} at B -> reuse.
  PaperExample ex;
  FirefoxTransitivePolicy policy;
  auto decision =
      policy.evaluate(ex.conn, "img.example.com", ex.subresource_answer);
  EXPECT_TRUE(decision.reuse);
}

TEST(ChromiumPolicy, ReusesOnDirectMatch) {
  PaperExample ex;
  ChromiumIpPolicy policy;
  auto decision = policy.evaluate(ex.conn, "img.example.com",
                                  {ex.a, ex.c});  // answer contains A
  EXPECT_TRUE(decision.reuse);
}

TEST(ChromiumPolicy, RequiresCertCoverage) {
  PaperExample ex;
  ChromiumIpPolicy policy;
  auto decision = policy.evaluate(ex.conn, "other.example.net", {ex.a});
  EXPECT_FALSE(decision.reuse);
}

TEST(FirefoxPolicy, RequiresCertCoverageEvenWithOverlap) {
  PaperExample ex;
  FirefoxTransitivePolicy policy;
  auto decision =
      policy.evaluate(ex.conn, "other.example.net", ex.subresource_answer);
  EXPECT_FALSE(decision.reuse);
}

TEST(FirefoxPolicy, HonorsOriginFrameButStillQueriesDns) {
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  FirefoxTransitivePolicy policy;
  // §6.8: Firefox cannot decide without DNS...
  EXPECT_FALSE(policy.can_decide_without_dns(ex.conn, "img.example.com"));
  // ...but once the (blocking) query returns — even with disjoint
  // addresses — the origin set admits the host.
  auto decision = policy.evaluate(ex.conn, "img.example.com",
                                  {IpAddress::v4(0x0B000001)});
  EXPECT_TRUE(decision.reuse);
}

TEST(OriginPolicy, DecidesWithoutDnsForOriginSetMembers) {
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  OriginFramePolicy policy;
  EXPECT_TRUE(policy.can_decide_without_dns(ex.conn, "img.example.com"));
  auto decision = policy.evaluate(ex.conn, "img.example.com", {});
  EXPECT_TRUE(decision.reuse);
  EXPECT_FALSE(decision.dns_consulted);
}

TEST(OriginPolicy, OriginSetMemberStillNeedsCertCoverage) {
  // RFC 8336 §2.4: names in the origin set must also pass certificate
  // checks. An origin-set entry outside the SAN is not reusable.
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://notinsan.example.net"});
  OriginFramePolicy policy;
  EXPECT_FALSE(policy.can_decide_without_dns(ex.conn, "notinsan.example.net"));
  auto decision = policy.evaluate(ex.conn, "notinsan.example.net", {});
  EXPECT_FALSE(decision.reuse);
}

TEST(OriginPolicy, FallsBackToIpTransitivity) {
  PaperExample ex;  // no ORIGIN frame received
  OriginFramePolicy policy;
  EXPECT_FALSE(policy.can_decide_without_dns(ex.conn, "img.example.com"));
  auto decision =
      policy.evaluate(ex.conn, "img.example.com", ex.subresource_answer);
  EXPECT_TRUE(decision.reuse);
  EXPECT_TRUE(decision.dns_consulted);
}

TEST(Policies, H1ConnectionsNeverCoalesce) {
  PaperExample ex;
  ex.conn.http2 = false;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  for (const std::string name : {"chromium-ip", "firefox-transitive",
                                 "origin-frame"}) {
    auto policy = make_policy(name);
    auto decision =
        policy->evaluate(ex.conn, "img.example.com", {ex.a});
    EXPECT_FALSE(decision.reuse) << name;
  }
}

TEST(Policies, FactoryKnowsAllNamesAndRejectsUnknown) {
  EXPECT_NE(make_policy("chromium-ip"), nullptr);
  EXPECT_NE(make_policy("firefox-transitive"), nullptr);
  EXPECT_NE(make_policy("origin-frame"), nullptr);
  EXPECT_EQ(make_policy("safari"), nullptr);
}

// Property sweep: ORIGIN-policy reuse is a superset of Firefox reuse, which
// is a superset of Chromium reuse, on identical inputs with origin frames.
class PolicyOrderingSweep : public ::testing::TestWithParam<int> {};

TEST_P(PolicyOrderingSweep, ReuseIsMonotoneAcrossPolicies) {
  origin::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  ChromiumIpPolicy chromium;
  FirefoxTransitivePolicy firefox;
  OriginFramePolicy origin_policy;
  for (int trial = 0; trial < 200; ++trial) {
    PaperExample ex;
    // Random available set and answer set over 4 addresses.
    ex.conn.available_set.clear();
    std::vector<IpAddress> answer;
    for (int i = 0; i < 4; ++i) {
      if (rng.bernoulli(0.5)) {
        ex.conn.available_set.push_back(IpAddress::v4(0x0A000001u + static_cast<std::uint32_t>(i)));
      }
      if (rng.bernoulli(0.5)) {
        answer.push_back(IpAddress::v4(0x0A000001u + static_cast<std::uint32_t>(i)));
      }
    }
    ex.conn.available_set.push_back(ex.conn.connected_address);
    if (rng.bernoulli(0.5)) {
      ex.origin_set.apply_origin_frame({"https://img.example.com"});
    }
    const bool c = chromium.evaluate(ex.conn, "img.example.com", answer).reuse;
    const bool f = firefox.evaluate(ex.conn, "img.example.com", answer).reuse;
    const bool o = origin_policy.evaluate(ex.conn, "img.example.com", answer).reuse;
    EXPECT_LE(c, f) << "chromium reused where firefox did not";
    EXPECT_LE(f, o) << "firefox reused where origin-policy did not";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyOrderingSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace origin::browser
