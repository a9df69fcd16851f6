#include <gtest/gtest.h>

#include "tls/ca.h"
#include "tls/certificate.h"
#include "tls/handshake.h"
#include "tls/sni.h"
#include "util/fnv.h"

namespace origin::tls {
namespace {

using origin::util::Duration;
using origin::util::SimTime;

SimTime t0() { return SimTime::from_micros(1'000'000); }

CertificateAuthority& test_ca() {
  static CertificateAuthority ca("Test CA", 0x1234, 100);
  return ca;
}

TEST(Certificate, CoversSanExactAndWildcard) {
  auto cert = test_ca().issue("www.example.com",
                              {"www.example.com", "*.cdn.example.com"}, t0());
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->covers("www.example.com"));
  EXPECT_TRUE(cert->covers("a.cdn.example.com"));
  EXPECT_FALSE(cert->covers("cdn.example.com"));
  EXPECT_FALSE(cert->covers("x.y.cdn.example.com"));
  EXPECT_FALSE(cert->covers("other.example.com"));
}

TEST(Certificate, CnFallbackOnlyWithoutSans) {
  auto with_san = test_ca().issue("cn.example.com", {"other.example.com"}, t0());
  ASSERT_TRUE(with_san.ok());
  // SAN extension present: CN must be ignored (RFC 6125).
  EXPECT_FALSE(with_san->covers("cn.example.com"));

  auto no_san = test_ca().issue("cn.example.com", {}, t0());
  ASSERT_TRUE(no_san.ok());
  EXPECT_TRUE(no_san->covers("cn.example.com"));
}

TEST(Certificate, SizeGrowsWithSans) {
  auto small = test_ca().issue("a.com", {"a.com"}, t0());
  std::vector<std::string> many;
  for (int i = 0; i < 50; ++i) many.push_back("host" + std::to_string(i) + ".example.com");
  auto big = test_ca().issue("a.com", many, t0());
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_GT(big->size_bytes(), small->size_bytes() + 500);
}

TEST(Ca, IssueDeduplicatesSans) {
  auto cert = test_ca().issue("a.com", {"a.com", "b.com", "a.com"}, t0());
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(cert->san_dns.size(), 2u);
}

TEST(Ca, SanLimitEnforced) {
  CertificateAuthority le("Lets Encrypt R3", 7, 100);
  std::vector<std::string> sans;
  for (int i = 0; i < 101; ++i) sans.push_back("h" + std::to_string(i) + ".net");
  EXPECT_FALSE(le.issue("h0.net", sans, t0()).ok());
  sans.resize(100);
  EXPECT_TRUE(le.issue("h0.net", sans, t0()).ok());
}

TEST(Ca, ComodoStyleLimitAllowsLargeCerts) {
  CertificateAuthority comodo("Comodo", 9, 2000);
  std::vector<std::string> sans;
  for (int i = 0; i < 1951; ++i) sans.push_back("s" + std::to_string(i) + ".example");
  // The largest predicted certificate in the paper has 1951 SAN names.
  EXPECT_TRUE(comodo.issue("s0.example", sans, t0()).ok());
}

TEST(Ca, VerifyDetectsTampering) {
  CertificateAuthority ca("CA", 1);
  auto cert = ca.issue("a.com", {"a.com"}, t0());
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(ca.verify(*cert));
  Certificate tampered = *cert;
  tampered.san_dns.push_back("evil.com");
  EXPECT_FALSE(ca.verify(tampered));
}

// The signed text, rendered the way certificates were once signed: the MAC
// must equal FNV-1a over exactly these bytes, keyed by the CA.
std::string reference_signed_text(const Certificate& cert) {
  std::string out = std::to_string(cert.serial) + '|' +
                    cert.subject_common_name + '|' + cert.issuer + '|';
  for (const auto& san : cert.san_dns) out += san + ',';
  out += '|' + std::to_string(cert.not_before.micros()) + '|' +
         std::to_string(cert.not_after.micros()) + '|' +
         std::to_string(cert.public_key_id);
  return out;
}

TEST(Ca, SignatureIsFnvOverTheSignedText) {
  CertificateAuthority ca("Reference CA", 77, 200);
  std::vector<std::string> many;
  for (int i = 0; i < 150; ++i) {
    many.push_back("n" + std::to_string(i) + ".example.org");
  }
  const std::vector<std::pair<SimTime, std::vector<std::string>>> cases = {
      {t0(), {"a.example.com", "*.b.example.com"}},
      {SimTime::from_micros(0), {}},
      {SimTime::from_micros(-5), {"negative.example"}},
      {SimTime::from_micros(9'000'000'000'000), many},
  };
  for (const auto& [when, sans] : cases) {
    auto cert = ca.issue("cn.example", sans, when);
    ASSERT_TRUE(cert.ok());
    EXPECT_EQ(cert->signature,
              origin::util::fnv1a64(reference_signed_text(*cert), ca.key_id()))
        << cert->serial;
    EXPECT_TRUE(ca.verify(*cert));
  }
}

TEST(Ca, ReissueAddsSansAndRotatesSerial) {
  CertificateAuthority ca("CA", 2);
  auto cert = ca.issue("site.com", {"site.com", "www.site.com"}, t0());
  ASSERT_TRUE(cert.ok());
  auto reissued = ca.reissue_with_sans(*cert, {"thirdparty.cdn.example"},
                                       t0() + Duration::seconds(100));
  ASSERT_TRUE(reissued.ok());
  EXPECT_NE(reissued->serial, cert->serial);
  EXPECT_TRUE(reissued->covers("thirdparty.cdn.example"));
  EXPECT_TRUE(reissued->covers("site.com"));
  EXPECT_EQ(reissued->san_dns.size(), 3u);
  EXPECT_TRUE(ca.verify(*reissued));
}

TEST(TrustStoreTest, ValidationOutcomes) {
  CertificateAuthority ca("Root CA", 3);
  CertificateAuthority rogue("Rogue CA", 4);
  TrustStore store;
  store.add_ca(&ca);

  auto cert = ca.issue("good.com", {"good.com"}, t0());
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(store.validate(*cert, "good.com", t0() + Duration::seconds(10)),
            TrustStore::Outcome::kOk);
  EXPECT_EQ(store.validate(*cert, "bad.com", t0() + Duration::seconds(10)),
            TrustStore::Outcome::kHostnameMismatch);
  EXPECT_EQ(store.validate(*cert, "good.com",
                           t0() + Duration::seconds(91.0 * 86400)),
            TrustStore::Outcome::kExpired);
  EXPECT_EQ(store.validate(*cert, "good.com", SimTime::from_micros(0)),
            TrustStore::Outcome::kNotYetValid);

  auto rogue_cert = rogue.issue("good.com", {"good.com"}, t0());
  ASSERT_TRUE(rogue_cert.ok());
  EXPECT_EQ(store.validate(*rogue_cert, "good.com", t0()),
            TrustStore::Outcome::kUnknownIssuer);

  Certificate forged = *cert;
  forged.signature ^= 1;
  EXPECT_EQ(store.validate(forged, "good.com", t0()),
            TrustStore::Outcome::kBadSignature);
}

TEST(CertStoreTest, SelectsExactOverWildcard) {
  CertificateAuthority ca("CA", 5);
  CertStore store;
  store.add(*ca.issue("*.example.com", {"*.example.com"}, t0()));
  store.add(*ca.issue("www.example.com", {"www.example.com"}, t0()));
  const Certificate* selected = store.select("www.example.com");
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->subject_common_name, "www.example.com");
  selected = store.select("img.example.com");
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->subject_common_name, "*.example.com");
  EXPECT_EQ(store.select("unrelated.net"), nullptr);
}

TEST(CertStoreTest, ReplaceRotatesCertificate) {
  CertificateAuthority ca("CA", 6);
  CertStore store;
  std::size_t slot = store.add(*ca.issue("a.com", {"a.com"}, t0()));
  store.replace(slot, *ca.issue("a.com", {"a.com", "extra.example"}, t0()));
  const Certificate* selected = store.select("extra.example");
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->san_dns.size(), 2u);
}

TEST(CertStoreTest, PrefersFewerSansAmongExactMatches) {
  CertificateAuthority ca("CA", 8);
  CertStore store;
  store.add(*ca.issue("big", {"shared.example", "x1.com", "x2.com"}, t0()));
  store.add(*ca.issue("small", {"shared.example"}, t0()));
  const Certificate* selected = store.select("shared.example");
  ASSERT_NE(selected, nullptr);
  EXPECT_EQ(selected->subject_common_name, "small");
}

// --- Handshake cost model (§6.5) ---

TEST(Handshake, SmallChainIsOneRtt) {
  CertificateAuthority ca("CA", 10);
  auto result =
      simulate_handshake(*ca.issue("a.com", {"a.com", "www.a.com"}, t0()));
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.round_trips, 1);
  EXPECT_EQ(result.tls_records, 1);
  EXPECT_GT(result.duration.count_micros(), kHandshakeRtt.count_micros());
}

TEST(Handshake, LargeSanListCostsExtraRtts) {
  CertificateAuthority ca("Comodo", 11, 2000);
  std::vector<std::string> sans;
  for (int i = 0; i < 800; ++i) {
    sans.push_back("subdomain-number-" + std::to_string(i) + ".example.com");
  }
  auto result = simulate_handshake(*ca.issue("example.com", sans, t0()));
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.round_trips, 1);
  EXPECT_GT(result.tls_records, 1);
}

TEST(Handshake, AbsurdChainFailsLikeBadSsl) {
  // Models https://10000-sans.badssl.com: browsers error out.
  CertificateAuthority ca("Unbounded CA", 12, 20000);
  std::vector<std::string> sans;
  for (int i = 0; i < 10000; ++i) {
    sans.push_back("subject-alternative-name-" + std::to_string(i) +
                   ".badssl.example.com");
  }
  auto result = simulate_handshake(*ca.issue("badssl.com", sans, t0()));
  EXPECT_FALSE(result.ok);
}

TEST(Handshake, IntermediatesCountTowardChainSize) {
  CertificateAuthority ca("CA", 13);
  const Certificate leaf = *ca.issue("a.com", {"a.com"}, t0());
  auto base = simulate_handshake(leaf);
  const Certificate intermediate = *ca.issue("Intermediate CA", {}, t0());
  auto with_intermediate =
      simulate_handshake(leaf, std::span<const Certificate>(&intermediate, 1));
  EXPECT_GT(with_intermediate.chain_bytes, base.chain_bytes);
}

// Property sweep: round trips are monotonically non-decreasing in SAN count.
class HandshakeSweep : public ::testing::TestWithParam<int> {};

TEST_P(HandshakeSweep, MoreSansNeverFewerRtts) {
  CertificateAuthority ca("CA", 14, 20000);
  auto rtts_for = [&](int san_count) {
    std::vector<std::string> sans;
    for (int i = 0; i < san_count; ++i) {
      sans.push_back("name-" + std::to_string(i) + ".example.org");
    }
    return simulate_handshake(*ca.issue("example.org", sans, t0()))
        .round_trips;
  };
  EXPECT_LE(rtts_for(GetParam()), rtts_for(GetParam() * 2));
}

INSTANTIATE_TEST_SUITE_P(SanCounts, HandshakeSweep,
                         ::testing::Values(1, 10, 100, 500, 1000));

}  // namespace
}  // namespace origin::tls
