// Fuzz driver: Http2Server session lifecycle under hostile client bytes.
//
// The input is a one-byte scenario selector followed by raw bytes a client
// pushes at a listening server with every overload defense armed on tiny
// budgets. Whatever the bytes decode to — a clean request, a flood, a
// header bomb, a truncated preface, garbage — the server must uphold its
// bookkeeping contract: every server-initiated close carries a recorded
// reason, sessions are always reaped (by close, shed, or the stall sweep),
// the stats ledger stays internally consistent, and replaying the same
// input yields a byte-identical ledger.
//
// Scenario byte bits:
//   bit 0  prepend the RFC 9113 client preface before the payload
//   bit 1  call begin_drain() shortly after the connection settles
//   bit 2  trickle the payload in small chunks instead of one send
//   bit 3  arm a capacity-1 admission gate and dial a second connection
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "h2/frame.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/check.h"

namespace {

using origin::netsim::TcpEndpoint;
using origin::server::Http2Server;
using origin::server::OverloadConfig;
using origin::server::Response;
using origin::server::ServerConfig;
using origin::util::Bytes;
using origin::util::Duration;

struct ClientLog {
  std::uint32_t closes = 0;
  bool receive_after_close = false;
};

// Tight budgets so even short fuzz inputs can trip every defense; the
// stall timeout is the backstop that guarantees run_until_idle terminates
// with zero live sessions no matter what the payload did.
OverloadConfig tiny_budgets() {
  OverloadConfig overload;
  overload.enabled = true;
  overload.max_session_rsts = 8;
  overload.max_session_pings = 8;
  overload.max_session_settings = 4;
  overload.max_session_header_bytes = 2048;
  overload.max_session_response_bytes = 64 * 1024;
  overload.max_session_streams = 8;
  overload.frame_budget_grace = 64;
  overload.max_frames_per_second = 2000.0;
  overload.stall_timeout = Duration::millis(200);
  overload.sweep_interval = Duration::millis(50);
  overload.drain_grace = Duration::millis(100);
  overload.drain_linger = Duration::millis(20);
  return overload;
}

void watch(TcpEndpoint endpoint, std::shared_ptr<ClientLog> log) {
  endpoint.set_on_receive([log](std::span<const std::uint8_t>) {
    if (log->closes > 0) log->receive_after_close = true;
  });
  endpoint.set_on_close([log](const std::string& reason) {
    ORIGIN_CHECK(!reason.empty(), "server fuzz: close without a reason");
    ++log->closes;
  });
}

// Runs one scenario to quiescence and returns the server's canonical stats
// ledger so the caller can check replay determinism.
std::string run_scenario(std::uint8_t mode, const std::uint8_t* payload,
                         std::size_t payload_size) {
  const bool with_preface = (mode & 0x1) != 0;
  const bool with_drain = (mode & 0x2) != 0;
  const bool chunked = (mode & 0x4) != 0;
  const bool with_admission = (mode & 0x8) != 0;

  origin::netsim::Simulator sim;
  origin::netsim::Network net(sim);

  ServerConfig config;
  config.origin_set = {"https://www.site.com"};
  config.overload = tiny_budgets();
  Http2Server server(std::move(config));
  server.add_vhost("www.site.com", [](std::string_view) {
    Response response;
    response.body = Bytes(512, 0x2a);
    return response;
  });

  std::uint64_t admitted = 0;
  if (with_admission) {
    server.set_admission_gate(
        [&admitted](const std::string&) -> std::optional<std::string> {
          if (admitted >= 1) return "admission: at capacity";
          ++admitted;
          return std::nullopt;
        });
  }

  const auto addr = origin::dns::IpAddress::v4(1);
  server.listen(net, addr);

  const std::size_t preface =
      with_preface ? origin::h2::kClientPreface.size() : 0;
  Bytes wire(preface + payload_size);
  std::copy_n(origin::h2::kClientPreface.begin(), preface, wire.begin());
  std::copy_n(payload, payload_size,
              wire.begin() + static_cast<std::ptrdiff_t>(preface));

  auto log = std::make_shared<ClientLog>();
  net.connect(
      "fuzz-client", addr,
      [&](origin::util::Result<TcpEndpoint> endpoint) {
        if (!endpoint.ok()) return;
        watch(*endpoint, log);
        auto wire_endpoint = TcpEndpoint(*endpoint);
        if (!chunked) {
          if (wire_endpoint.open() && !wire.empty()) wire_endpoint.send(wire);
          return;
        }
        // Trickle in 16-byte chunks 1ms apart: exercises the incremental
        // frame parser and, when the chunks run out early, the stall sweep.
        constexpr std::size_t kChunk = 16;
        for (std::size_t offset = 0; offset < wire.size(); offset += kChunk) {
          const std::size_t take = std::min(kChunk, wire.size() - offset);
          Bytes piece(wire.begin() + static_cast<std::ptrdiff_t>(offset),
                      wire.begin() + static_cast<std::ptrdiff_t>(offset + take));
          sim.schedule(Duration::millis(1 + offset / kChunk),
                       [wire_endpoint, piece]() mutable {
                         if (wire_endpoint.open()) wire_endpoint.send(piece);
                       });
        }
      });

  auto second_log = std::make_shared<ClientLog>();
  if (with_admission) {
    // The second dial must be shed at accept time by the capacity-1 gate;
    // its close reason arrives asynchronously via on_close.
    sim.schedule(Duration::millis(5),
                 [&net, addr, second_log](
                     ) {
                   net.connect("fuzz-client-2", addr,
                               [second_log](origin::util::Result<TcpEndpoint>
                                                endpoint) {
                                 if (!endpoint.ok()) return;
                                 watch(*endpoint, second_log);
                               });
                 });
  }

  if (with_drain) {
    sim.schedule(Duration::millis(40),
                 [&server]() { server.begin_drain("fuzz drain"); });
  }

  sim.run_until_idle();

  ORIGIN_CHECK(log->closes <= 1, "server fuzz: on_close fired twice");
  ORIGIN_CHECK(!log->receive_after_close,
               "server fuzz: bytes delivered after close");
  ORIGIN_CHECK(second_log->closes <= 1,
               "server fuzz: second on_close fired twice");

  // Quiescence means every session was reaped: by the client hanging up,
  // by a budget shed, by drain, or by the stall sweep. A session that
  // survives run_until_idle is pinned forever — the exact leak the
  // overload layer exists to prevent.
  ORIGIN_CHECK(server.live_sessions() == 0,
               "server fuzz: session pinned after quiescence");

  const auto& stats = server.stats();
  ORIGIN_CHECK(stats.sessions_shed <= stats.connections,
               "server fuzz: more sessions shed than accepted");
  ORIGIN_CHECK(stats.sessions_reaped_stalled <= stats.sessions_shed,
               "server fuzz: stall reaps not counted as sheds");
  ORIGIN_CHECK(stats.h2_protocol_errors <= stats.connections,
               "server fuzz: more protocol errors than connections");
  std::uint64_t recorded_closes = 0;
  for (const auto& [reason, count] : stats.close_reasons) {
    ORIGIN_CHECK(!reason.empty(), "server fuzz: unreasoned close recorded");
    recorded_closes += count;
  }
  ORIGIN_CHECK(
      recorded_closes <= stats.connections + stats.admission_rejections,
      "server fuzz: more recorded closes than connections");
  if (with_admission) {
    ORIGIN_CHECK(stats.admission_rejections <= 1,
                 "server fuzz: capacity-1 gate rejected more than one dial");
  }

  return stats.serialize();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  constexpr std::size_t kMaxInput = 8192;
  if (size > kMaxInput) size = kMaxInput;

  const std::uint8_t mode = size > 0 ? data[0] : 0;
  const std::uint8_t* payload = size > 0 ? data + 1 : data;
  const std::size_t payload_size = size > 0 ? size - 1 : 0;

  // Same bytes, same world: the ledger must replay byte-identically. This
  // is the single-session analogue of the 1-vs-8-thread determinism check
  // in bench_paper's overload ablation.
  const std::string first = run_scenario(mode, payload, payload_size);
  const std::string second = run_scenario(mode, payload, payload_size);
  ORIGIN_CHECK(first == second, "server fuzz: replay ledger diverged");
  return 0;
}
