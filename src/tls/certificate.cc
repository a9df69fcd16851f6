#include "tls/certificate.h"

#include "util/fnv.h"
#include "util/strings.h"

namespace origin::tls {

bool Certificate::covers(std::string_view hostname) const {
  if (!has_san_extension()) {
    // Legacy CN-only certificate.
    return origin::util::wildcard_matches(subject_common_name, hostname);
  }
  for (const auto& san : san_dns) {
    if (origin::util::wildcard_matches(san, hostname)) return true;
  }
  return false;
}

std::size_t Certificate::size_bytes() const {
  // Calibrated against typical DER sizes: ~500B fixed structure, ~300B
  // ECDSA P-256 key + signature, plus SAN encoding overhead.
  std::size_t size = 800;
  size += subject_common_name.size() + issuer.size();
  for (const auto& san : san_dns) size += san.size() + 4;  // type+len headers
  return size;
}

}  // namespace origin::tls
