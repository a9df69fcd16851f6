// TLS handshake cost model.
//
// TLS 1.3 completes in one round trip, but the server's certificate chain
// rides in the first flight: when the chain exceeds what the server's
// initial congestion window can carry, the client needs additional round
// trips before it can finish the handshake (paper §6.5, citing [16]).
// TLS records also cap at 16 KiB, so oversized certificates fragment.
// Browsers reject absurdly large certificates outright (the paper cites
// 10000-SAN badssl failing to load).
#pragma once

#include <cstdint>
#include <span>

#include "tls/certificate.h"
#include "util/sim_time.h"

namespace origin::tls {

// Round trip the model prices each handshake flight at.
inline constexpr origin::util::Duration kHandshakeRtt =
    origin::util::Duration::millis(30);
// Fixed crypto compute per handshake (key exchange + signature verify).
inline constexpr origin::util::Duration kCryptoCost =
    origin::util::Duration::millis(1.0);

struct HandshakeResult {
  bool ok = false;
  origin::util::Duration duration;
  int round_trips = 0;        // network RTTs consumed
  int tls_records = 0;        // records carrying the certificate chain
  std::size_t chain_bytes = 0;
};

// Cost of a full TLS 1.3 handshake presenting `leaf` followed by
// `intermediates`. Callers pass the certificate where it lives; no chain
// object is built.
HandshakeResult simulate_handshake(
    const Certificate& leaf, std::span<const Certificate> intermediates = {});

}  // namespace origin::tls
