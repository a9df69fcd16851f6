#include "tls/ca.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "util/fnv.h"

namespace origin::tls {

namespace {
constexpr auto kValidity = origin::util::Duration::seconds(90.0 * 86400.0);
}

CertificateAuthority::CertificateAuthority(std::string name,
                                           std::uint64_t key_seed,
                                           std::size_t max_san_entries)
    : name_(std::move(name)),
      key_id_(origin::util::fnv1a64(name_, key_seed)),
      max_san_entries_(max_san_entries) {}

// The MAC is FNV-1a, keyed by the CA, over the certificate's signed text:
//   serial|cn|issuer|san,san,...,|not_before|not_after|public_key_id
// with every number in decimal (validity bounds in micros). The text is
// folded piece by piece, never built, since every validation re-signs.
std::uint64_t CertificateAuthority::sign(const Certificate& cert) const {
  std::uint64_t h = key_id_;
  auto text = [&h](std::string_view piece) {
    h = origin::util::fnv1a64(piece, h);
  };
  auto number = [&text](auto value) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    text({digits, static_cast<std::size_t>(end - digits)});
  };
  number(cert.serial);
  text("|");
  text(cert.subject_common_name);
  text("|");
  text(cert.issuer);
  text("|");
  for (const auto& san : cert.san_dns) {
    text(san);
    text(",");
  }
  text("|");
  number(cert.not_before.micros());
  text("|");
  number(cert.not_after.micros());
  text("|");
  number(cert.public_key_id);
  return h;
}

origin::util::Result<Certificate> CertificateAuthority::issue(
    const std::string& subject_common_name, std::vector<std::string> san_dns,
    origin::util::SimTime now) {
  // Deduplicate while preserving order (first occurrence wins).
  std::vector<std::string> unique;
  for (auto& san : san_dns) {
    if (std::find(unique.begin(), unique.end(), san) == unique.end()) {
      unique.push_back(std::move(san));
    }
  }
  if (unique.size() > max_san_entries_) {
    return origin::util::make_error(name_ + ": SAN limit " +
                                    std::to_string(max_san_entries_) +
                                    " exceeded");
  }
  Certificate cert;
  cert.serial = next_serial_++;
  cert.subject_common_name = subject_common_name;
  cert.issuer = name_;
  cert.issuer_key_id = key_id_;
  cert.san_dns = std::move(unique);
  cert.not_before = now;
  cert.not_after = now + kValidity;
  cert.public_key_id =
      origin::util::fnv1a64(subject_common_name, cert.serial);
  cert.signature = sign(cert);
  return cert;
}

origin::util::Result<Certificate> CertificateAuthority::reissue_with_sans(
    const Certificate& existing, const std::vector<std::string>& extra_sans,
    origin::util::SimTime now) {
  std::vector<std::string> sans = existing.san_dns;
  for (const auto& san : extra_sans) sans.push_back(san);
  return issue(existing.subject_common_name, std::move(sans), now);
}

bool CertificateAuthority::verify(const Certificate& cert) const {
  return cert.issuer_key_id == key_id_ && cert.signature == sign(cert);
}

const char* TrustStore::outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kExpired: return "expired";
    case Outcome::kNotYetValid: return "not-yet-valid";
    case Outcome::kUnknownIssuer: return "unknown-issuer";
    case Outcome::kBadSignature: return "bad-signature";
    case Outcome::kHostnameMismatch: return "hostname-mismatch";
  }
  return "?";
}

TrustStore::Outcome TrustStore::validate(const Certificate& cert,
                                         std::string_view hostname,
                                         origin::util::SimTime now) const {
  validations_.fetch_add(1, std::memory_order_relaxed);
  if (now < cert.not_before) return Outcome::kNotYetValid;
  if (now > cert.not_after) return Outcome::kExpired;
  const CertificateAuthority* issuer = nullptr;
  for (const auto* ca : cas_) {
    if (ca->key_id() == cert.issuer_key_id) {
      issuer = ca;
      break;
    }
  }
  if (issuer == nullptr) return Outcome::kUnknownIssuer;
  if (!issuer->verify(cert)) return Outcome::kBadSignature;
  if (!cert.covers(hostname)) return Outcome::kHostnameMismatch;
  return Outcome::kOk;
}

}  // namespace origin::tls
