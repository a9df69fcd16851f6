#include "tls/handshake.h"

namespace origin::tls {

namespace {

// Server initial congestion window in bytes (10 segments of ~1460B).
constexpr std::size_t kInitCwndBytes = 14600;
constexpr std::size_t kTlsRecordLimit = 16384;
// Chains at/above this size abort with an SSL protocol error in browsers.
constexpr std::size_t kBrowserChainLimit = 262144;

}  // namespace

HandshakeResult simulate_handshake(
    const Certificate& leaf, std::span<const Certificate> intermediates) {
  HandshakeResult result;
  result.chain_bytes = leaf.size_bytes();
  for (const Certificate& c : intermediates) result.chain_bytes += c.size_bytes();
  if (result.chain_bytes >= kBrowserChainLimit) {
    // SSL protocol error surfaced to the user; no connection.
    result.ok = false;
    result.duration = kHandshakeRtt;  // time wasted before the failure
    result.round_trips = 1;
    return result;
  }
  result.tls_records = static_cast<int>(
      (result.chain_bytes + kTlsRecordLimit - 1) / kTlsRecordLimit);
  // 1 RTT baseline; every additional cwnd of certificate bytes costs one
  // more RTT while the client waits for the rest of the flight.
  int extra_rtts = 0;
  if (result.chain_bytes > kInitCwndBytes) {
    extra_rtts = static_cast<int>((result.chain_bytes - 1) / kInitCwndBytes);
  }
  result.round_trips = 1 + extra_rtts;
  result.duration =
      kHandshakeRtt * static_cast<double>(result.round_trips) + kCryptoCost;
  result.ok = true;
  return result;
}

}  // namespace origin::tls
