// Structural certificate model.
//
// Coalescing decisions depend only on (a) which hostnames a certificate
// covers via its Subject Alternative Names, (b) whether the chain verifies
// back to a trusted CA, and (c) the certificate's wire size (large SAN
// lists overflow TLS records — paper §6.5). Signatures are therefore
// simulated: a deterministic 64-bit MAC over the certificate fields keyed
// by the CA's key id. This preserves every behaviour the paper measures
// without real cryptography.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace origin::tls {

struct Certificate {
  std::uint64_t serial = 0;
  std::string subject_common_name;
  std::string issuer;                  // CA display name
  std::uint64_t issuer_key_id = 0;
  std::vector<std::string> san_dns;    // may contain "*." wildcards
  origin::util::SimTime not_before;
  origin::util::SimTime not_after;
  std::uint64_t public_key_id = 0;
  std::uint64_t signature = 0;         // MAC over fields, keyed by CA

  // Does this certificate authorize `hostname` (exact SAN or single-label
  // wildcard)? Per RFC 6125 the SAN list is authoritative; the CN is only a
  // fallback when no SAN extension is present.
  bool covers(std::string_view hostname) const;

  bool has_san_extension() const { return !san_dns.empty(); }

  // Deterministic serialized size in bytes: DER-ish overhead + subject +
  // issuer + per-SAN entries + key + signature. Drives the §6.5 handshake
  // fragmentation model.
  std::size_t size_bytes() const;
};

}  // namespace origin::tls
