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
  conn.pool = Pool::kCredentialed;
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

// A credentialed request for `host` on `conn`: before DNS when `answer` is
// null, after DNS otherwise.
bool reuses(Policy policy, const ConnectionRecord& conn,
            const std::string& host, const std::vector<IpAddress>* answer) {
  return may_coalesce(policy, Pool::kCredentialed, conn, host, answer);
}

TEST(ChromiumPolicy, LosesTransitivity) {
  // Chromium keeps only IP_A in the connected set; {B, C} has no match.
  PaperExample ex;
  EXPECT_FALSE(reuses(Policy::kChromiumIp, ex.conn, "img.example.com",
                      &ex.subresource_answer));
  // It never decides without a DNS answer.
  EXPECT_FALSE(
      reuses(Policy::kChromiumIp, ex.conn, "img.example.com", nullptr));
}

TEST(FirefoxPolicy, ExploitsTransitivity) {
  // Firefox's available-set {A, B} intersects {B, C} at B -> reuse.
  PaperExample ex;
  EXPECT_TRUE(reuses(Policy::kFirefoxTransitive, ex.conn, "img.example.com",
                     &ex.subresource_answer));
}

TEST(ChromiumPolicy, ReusesOnDirectMatch) {
  PaperExample ex;
  const std::vector<IpAddress> answer = {ex.a, ex.c};  // contains A
  EXPECT_TRUE(
      reuses(Policy::kChromiumIp, ex.conn, "img.example.com", &answer));
}

TEST(ChromiumPolicy, RequiresCertCoverage) {
  PaperExample ex;
  const std::vector<IpAddress> answer = {ex.a};
  EXPECT_FALSE(
      reuses(Policy::kChromiumIp, ex.conn, "other.example.net", &answer));
}

TEST(FirefoxPolicy, RequiresCertCoverageEvenWithOverlap) {
  PaperExample ex;
  EXPECT_FALSE(reuses(Policy::kFirefoxTransitive, ex.conn,
                      "other.example.net", &ex.subresource_answer));
}

TEST(FirefoxPolicy, HonorsOriginFrameButStillQueriesDns) {
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  // §6.8: Firefox cannot decide without DNS...
  EXPECT_FALSE(reuses(Policy::kFirefoxTransitive, ex.conn, "img.example.com",
                      nullptr));
  // ...but once the (blocking) query returns — even with disjoint
  // addresses — the origin set admits the host.
  const std::vector<IpAddress> disjoint = {IpAddress::v4(0x0B000001)};
  EXPECT_TRUE(reuses(Policy::kFirefoxTransitive, ex.conn, "img.example.com",
                     &disjoint));
}

TEST(OriginPolicy, DecidesWithoutDnsForOriginSetMembers) {
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  EXPECT_TRUE(
      reuses(Policy::kOriginFrame, ex.conn, "img.example.com", nullptr));
}

TEST(OriginPolicy, OriginSetMemberStillNeedsCertCoverage) {
  // RFC 8336 §2.4: names in the origin set must also pass certificate
  // checks. An origin-set entry outside the SAN is not reusable.
  PaperExample ex;
  ex.origin_set.apply_origin_frame({"https://notinsan.example.net"});
  EXPECT_FALSE(reuses(Policy::kOriginFrame, ex.conn, "notinsan.example.net",
                      nullptr));
  const std::vector<IpAddress> empty;
  EXPECT_FALSE(reuses(Policy::kOriginFrame, ex.conn, "notinsan.example.net",
                      &empty));
}

TEST(OriginPolicy, FallsBackToIpTransitivity) {
  PaperExample ex;  // no ORIGIN frame received
  EXPECT_FALSE(
      reuses(Policy::kOriginFrame, ex.conn, "img.example.com", nullptr));
  EXPECT_TRUE(reuses(Policy::kOriginFrame, ex.conn, "img.example.com",
                     &ex.subresource_answer));
}

TEST(Policies, H1ConnectionsNeverCoalesce) {
  PaperExample ex;
  ex.conn.http2 = false;
  ex.origin_set.apply_origin_frame({"https://img.example.com"});
  const std::vector<IpAddress> answer = {ex.a};
  for (const std::string name : {"chromium-ip", "firefox-transitive",
                                 "origin-frame"}) {
    const Policy policy = parse_policy(name);
    EXPECT_FALSE(reuses(policy, ex.conn, "img.example.com", nullptr)) << name;
    EXPECT_FALSE(reuses(policy, ex.conn, "img.example.com", &answer)) << name;
  }
}

TEST(Policies, FactoryKnowsAllNamesAndRejectsUnknown) {
  EXPECT_EQ(parse_policy("chromium-ip"), Policy::kChromiumIp);
  EXPECT_EQ(parse_policy("firefox-transitive"), Policy::kFirefoxTransitive);
  EXPECT_EQ(parse_policy("origin-frame"), Policy::kOriginFrame);
  EXPECT_DEATH((void)parse_policy("safari"), "unknown coalescing policy");
}

// Every realizable input of the rule: 3 policies × h2 or h1 × SAN coverage
// or not × (no ORIGIN frame, a frame without the host, a frame with it) ×
// (an answer disjoint from the available set, one that overlaps it, one
// that holds the connected address) × before or after DNS. A row is one
// policy and phase; its four groups are h2 covered, h2 uncovered, h1
// covered and h1 uncovered, each ORIGIN-major and answer-minor. Before DNS
// the answer is not consulted, so each triple of a group reads the same.
// The pinned rows are a credentialed request on a credentialed connection.
TEST(Policies, DecisionTableIsPinned) {
  const IpAddress a = IpAddress::v4(0x0A000001);
  const IpAddress b = IpAddress::v4(0x0A000002);
  const IpAddress c = IpAddress::v4(0x0A000003);
  const std::vector<std::vector<IpAddress>> answers = {
      {c}, {b, c}, {a, c}};  // disjoint, overlapping, connected
  const tls::Certificate covering =
      make_cert({"www.example.com", "img.example.com"});
  const tls::Certificate uncovering = make_cert({"www.example.com"});
  const std::string host = "img.example.com";

  auto row = [&](const std::string& name, bool after_dns,
                 Pool request = Pool::kCredentialed,
                 Pool connection = Pool::kCredentialed) {
    std::string bits;
    for (const bool http2 : {true, false}) {
      for (const bool covered : {true, false}) {
        if (!bits.empty()) bits += ' ';
        for (int frame = 0; frame < 3; ++frame) {
          h2::OriginSet origin_set = initial_origin_set("www.example.com");
          if (frame == 1) {
            origin_set.apply_origin_frame({"https://cdn.example.com"});
          }
          if (frame == 2) {
            origin_set.apply_origin_frame({"https://img.example.com"});
          }
          ConnectionRecord conn = make_conn(covered ? covering : uncovering,
                                            origin_set, a, {a, b});
          conn.http2 = http2;
          conn.pool = connection;
          for (const auto& answer : answers) {
            bits += may_coalesce(parse_policy(name), request, conn, host,
                                 after_dns ? &answer : nullptr)
                        ? '1'
                        : '0';
          }
        }
      }
    }
    return bits;
  };

  // Before DNS only origin-frame reuses, for a covered member of a
  // received ORIGIN set. After DNS chromium-ip needs the connected address;
  // the others take ORIGIN membership or any overlap.
  EXPECT_EQ(row("chromium-ip", false),
            "000000000 000000000 000000000 000000000");
  EXPECT_EQ(row("chromium-ip", true),
            "001001001 000000000 000000000 000000000");
  EXPECT_EQ(row("firefox-transitive", false),
            "000000000 000000000 000000000 000000000");
  EXPECT_EQ(row("firefox-transitive", true),
            "011011111 000000000 000000000 000000000");
  EXPECT_EQ(row("origin-frame", false),
            "000000111 000000000 000000000 000000000");
  EXPECT_EQ(row("origin-frame", true),
            "011011111 000000000 000000000 000000000");

  // An anonymous request or connection never coalesces (§5.3).
  const std::pair<Pool, Pool> partitions[] = {
      {Pool::kCredentialed, Pool::kAnonymous},
      {Pool::kAnonymous, Pool::kCredentialed},
      {Pool::kAnonymous, Pool::kAnonymous}};
  for (const auto& [request, connection] : partitions) {
    for (const std::string name :
         {"chromium-ip", "firefox-transitive", "origin-frame"}) {
      for (const bool after_dns : {false, true}) {
        EXPECT_EQ(row(name, after_dns, request, connection),
                  "000000000 000000000 000000000 000000000")
            << name << (after_dns ? " after" : " before") << " DNS";
      }
    }
  }
}

// Property sweep: ORIGIN-policy reuse is a superset of Firefox reuse, which
// is a superset of Chromium reuse, on identical inputs with origin frames.
class PolicyOrderingSweep : public ::testing::TestWithParam<int> {};

TEST_P(PolicyOrderingSweep, ReuseIsMonotoneAcrossPolicies) {
  origin::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
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
    const bool c =
        reuses(Policy::kChromiumIp, ex.conn, "img.example.com", &answer);
    const bool f = reuses(Policy::kFirefoxTransitive, ex.conn,
                          "img.example.com", &answer);
    const bool o =
        reuses(Policy::kOriginFrame, ex.conn, "img.example.com", &answer);
    EXPECT_LE(c, f) << "chromium reused where firefox did not";
    EXPECT_LE(f, o) << "firefox reused where origin-policy did not";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyOrderingSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace origin::browser
