#include "tls/handshake.h"

namespace origin::tls {

HandshakeResult simulate_handshake(const CertificateChain& chain,
                                   const HandshakeParams& params) {
  HandshakeResult result;
  result.chain_bytes = chain.total_size_bytes();
  if (result.chain_bytes >= params.browser_chain_limit) {
    // SSL protocol error surfaced to the user; no connection.
    result.ok = false;
    result.duration = params.rtt;  // time wasted before the failure
    result.round_trips = 1;
    return result;
  }
  result.tls_records = static_cast<int>(
      (result.chain_bytes + params.tls_record_limit - 1) /
      params.tls_record_limit);
  // 1 RTT baseline; every additional cwnd of certificate bytes costs one
  // more RTT while the client waits for the rest of the flight.
  int extra_rtts = 0;
  if (result.chain_bytes > params.init_cwnd_bytes) {
    extra_rtts = static_cast<int>((result.chain_bytes - 1) /
                                  params.init_cwnd_bytes);
  }
  result.round_trips = 1 + extra_rtts;
  result.duration =
      params.rtt * static_cast<double>(result.round_trips) + params.crypto_cost;
  result.ok = true;
  return result;
}

}  // namespace origin::tls
