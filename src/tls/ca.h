// Certificate authority: issuance, re-issuance with SAN additions (the
// operation §5.1 of the paper performs on 5000 production certificates),
// and per-CA SAN-count limits (§6.5: Let's Encrypt/DigiCert/GoDaddy cap at
// 100 names, Comodo at 2000).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tls/certificate.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace origin::tls {

class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, std::uint64_t key_seed,
                       std::size_t max_san_entries = 100);

  const std::string& name() const { return name_; }
  std::uint64_t key_id() const { return key_id_; }
  std::size_t max_san_entries() const { return max_san_entries_; }

  // Issues a certificate valid for 90 days from `now`. Fails when the SAN
  // list exceeds this CA's limit.
  [[nodiscard]] origin::util::Result<Certificate> issue(
      const std::string& subject_common_name,
      std::vector<std::string> san_dns, origin::util::SimTime now);

  // Re-issues `existing` with extra SAN entries appended (deduplicated),
  // fresh serial and validity — the §5.1 certificate-renewal operation.
  [[nodiscard]] origin::util::Result<Certificate> reissue_with_sans(
      const Certificate& existing, const std::vector<std::string>& extra_sans,
      origin::util::SimTime now);

  // Did this CA sign `cert` (MAC check)?
  bool verify(const Certificate& cert) const;

 private:
  std::uint64_t sign(const Certificate& cert) const;

  std::string name_;
  std::uint64_t key_id_;
  std::size_t max_san_entries_;
  std::uint64_t next_serial_ = 1;
};

// A trust store over a set of CAs plus full-chain validation: expiry,
// signature, hostname coverage. Validation outcomes and counts feed the
// paper's "certificate validations" metric (§4.2).
class TrustStore {
 public:
  void add_ca(const CertificateAuthority* ca) { cas_.push_back(ca); }

  enum class Outcome {
    kOk,
    kExpired,
    kNotYetValid,
    kUnknownIssuer,
    kBadSignature,
    kHostnameMismatch,
  };
  static const char* outcome_name(Outcome outcome);

  Outcome validate(const Certificate& cert, std::string_view hostname,
                   origin::util::SimTime now) const;

  // Total validations performed (each is one client-side crypto check).
  std::uint64_t validation_count() const {
    return validations_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<const CertificateAuthority*> cas_;
  // Atomic: every concurrent page load validates through the one shared
  // store; the count is an order-independent sum.
  mutable std::atomic<std::uint64_t> validations_ = 0;
};

}  // namespace origin::tls
