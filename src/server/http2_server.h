// HTTP/2 origin server.
//
// This is the server-side ORIGIN frame implementation the paper notes did
// not exist in any production web server (§1, §5.3): a connection-
// terminating process that (a) selects a certificate by SNI, (b) advertises
// a configured origin set on stream 0 of every new connection, (c) serves
// configured virtual hosts, and (d) answers 421 Misdirected Request for
// authority the certificate covers but this deployment cannot serve —
// exactly the fail-open contract §2.2 describes.
//
// Overload protection (DESIGN.md §13): with OverloadConfig.enabled the
// server enforces per-session resource budgets (RST/PING/SETTINGS counts,
// header bytes, queued response bytes, active streams, connection-lifetime
// frame rate), reaps stalled sessions on a deadline-driven sweep, consults
// an optional admission gate at accept time, and sheds each violator with a distinct
// "overload: ..." close reason recorded in Stats::close_reasons. Every
// server-initiated close funnels through one audited helper so the
// accounting is deterministic and complete.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "h2/connection.h"
#include "netsim/network.h"
#include "tls/sni.h"
#include "util/sim_time.h"
#include "web/resource.h"

namespace origin::server {

struct Response {
  int status = 200;
  std::string content_type = "text/html";
  origin::util::Bytes body;
};

using Handler = std::function<Response(std::string_view path)>;

struct VirtualHost {
  std::string hostname;
  Handler handler;
};

// Per-session and per-server resource budgets. Defaults keep every defense
// off (`enabled = false`) so a plain protocol-validator server behaves
// exactly as before; a budget of 0 means "unlimited" even when enabled.
struct OverloadConfig {
  bool enabled = false;
  // Frame-count budgets over a session's lifetime (rapid-reset, PING and
  // SETTINGS floods are cheap for the peer, expensive for us).
  std::uint64_t max_session_rsts = 200;
  std::uint64_t max_session_pings = 256;
  std::uint64_t max_session_settings = 32;
  // Decoded request-header bytes (RFC 9113 §10.5.1 accounting) a session
  // may spend across all of its streams.
  std::uint64_t max_session_header_bytes = 256 * 1024;
  // Response-body bytes a session may queue; bounds the send-buffer memory
  // one client can pin.
  std::uint64_t max_session_response_bytes = 16 * 1024 * 1024;
  // Concurrently active (non-closed) streams per session.
  std::uint64_t max_session_streams = 256;
  // Connection-lifetime frame-rate budget: a session may always spend
  // `frame_budget_grace` frames; past that its total must stay under
  // max_frames_per_second * lifetime. Deterministic because lifetime is
  // simulated time.
  std::uint64_t frame_budget_grace = 512;
  double max_frames_per_second = 2000.0;
  // Deadline-driven session reaping: a session with no received bytes for
  // `stall_timeout` is shed at the next sweep (slowloris defense — without
  // this, reaping is only incidental on close and a stalled session pins
  // memory forever).
  origin::util::Duration stall_timeout = origin::util::Duration::seconds(30);
  origin::util::Duration sweep_interval = origin::util::Duration::seconds(5);
  // begin_drain(): sessions that have not finished their in-flight streams
  // by then are closed anyway.
  origin::util::Duration drain_grace = origin::util::Duration::seconds(10);
  // Delay between a draining session finishing its last stream and the
  // server hanging up. netsim drops deliveries to a torn-down connection,
  // so closing in the same event as the final flush would un-send the
  // GOAWAY and trailing response bytes; the linger must exceed the link's
  // one-way latency plus transfer time.
  origin::util::Duration drain_linger = origin::util::Duration::millis(100);
};

struct ServerConfig {
  // Origins advertised in the ORIGIN frame on every new connection. Empty
  // disables the extension (a pre-RFC-8336 server).
  std::vector<std::string> origin_set;
  h2::Settings settings;
  OverloadConfig overload;
  // Per-connection gate consulted before emitting the ORIGIN frame; lets a
  // deployment suppress the advertisement for client tags whose path keeps
  // tearing connections down (the §6.7 kill-switch). Null = always send.
  std::function<bool(const std::string& client_tag)> origin_gate;
  // Fired when a connection closes, with the verbatim close reason and
  // whether ORIGIN was sent on it — the kill-switch's observation stream.
  std::function<void(const std::string& client_tag, bool origin_sent,
                     const std::string& reason)>
      close_feedback;
  // Admission control (cdn::AdmissionController): consulted at accept time;
  // a returned reason sheds the connection before any h2 state exists.
  // Null = admit everything.
  std::function<std::optional<std::string>(const std::string& client_tag)>
      admission_gate;
  // Fired when an admitted session closes, with the verbatim close reason —
  // the admission controller's concurrency and greylist feed.
  std::function<void(const std::string& client_tag, const std::string& reason)>
      admission_feedback;
};

class Http2Server {
 public:
  explicit Http2Server(ServerConfig config = {});

  void add_vhost(std::string hostname, Handler handler);
  void set_certificate(tls::Certificate cert);

  // Replaces the advertised origin set (reconfiguration at runtime, as the
  // CDN deployment did between experiments).
  void set_origin_set(std::vector<std::string> origins);

  // Runtime wiring for the ORIGIN kill-switch (cdn::OriginKillSwitch).
  void set_origin_gate(std::function<bool(const std::string&)> gate) {
    config_.origin_gate = std::move(gate);
  }
  void set_close_feedback(
      std::function<void(const std::string&, bool, const std::string&)>
          feedback) {
    config_.close_feedback = std::move(feedback);
  }

  // Runtime wiring for admission control (cdn::AdmissionController).
  void set_admission_gate(
      std::function<std::optional<std::string>(const std::string&)> gate) {
    config_.admission_gate = std::move(gate);
  }
  void set_admission_feedback(
      std::function<void(const std::string&, const std::string&)> feedback) {
    config_.admission_feedback = std::move(feedback);
  }

  // Binds the server to an address on the simulated network.
  void listen(netsim::Network& network, dns::IpAddress address);

  // Graceful drain (DESIGN.md §13): every current session gets
  // GOAWAY(NO_ERROR) with the highest stream id the server has seen;
  // in-flight streams at or below it finish normally, later streams are
  // refused with RST_STREAM(REFUSED_STREAM), and each session closes as
  // soon as its last stream completes (or the drain grace period
  // expires). New connections still serve — fail-open lame-duck mode;
  // refusing them is the admission controller's job
  // (cdn::AdmissionController::begin_drain → "admission: draining").
  // Idempotent.
  void begin_drain(const std::string& reason);
  bool draining() const { return draining_; }

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses_200 = 0;
    std::uint64_t responses_404 = 0;
    std::uint64_t responses_421 = 0;
    std::uint64_t origin_frames_sent = 0;
    // Connections where the origin_gate vetoed the advertisement.
    std::uint64_t origin_frames_suppressed = 0;
    std::uint64_t h2_protocol_errors = 0;
    // submit_* rejected a frame (closed stream, exhausted window): the
    // response was dropped rather than silently half-sent.
    std::uint64_t submit_failures = 0;
    // --- overload protection ---------------------------------------------
    // Sessions closed by a per-session budget (reason "overload: ...").
    std::uint64_t sessions_shed = 0;
    // Of those, sessions reaped by the stall sweep.
    std::uint64_t sessions_reaped_stalled = 0;
    // Connections refused at accept time by the admission gate.
    std::uint64_t admission_rejections = 0;
    // Streams refused with RST_STREAM(REFUSED_STREAM) during drain.
    std::uint64_t streams_refused = 0;
    std::uint64_t drains_started = 0;
    // Draining sessions that finished every in-flight stream.
    std::uint64_t drained_clean = 0;
    // Every server-initiated close, keyed by the verbatim reason; the
    // deterministic ledger the overload tests and benches byte-compare.
    std::map<std::string, std::uint64_t> close_reasons;

    void merge(const Stats& other);
    // Canonical byte form (sorted close_reasons last); the 1-vs-8-thread
    // determinism checks compare this string.
    std::string serialize() const;
  };
  const Stats& stats() const { return stats_; }
  std::size_t live_sessions() const { return sessions_.size(); }

 private:
  struct Session {
    std::shared_ptr<h2::Connection> connection;
    netsim::TcpEndpoint endpoint;
    // Captured at accept time: the endpoint loses its tag once the
    // connection is reaped, but close_feedback still needs it.
    std::string client_tag;
    bool origin_sent = false;
    // --- overload accounting ---------------------------------------------
    origin::util::SimTime accepted_at;
    // Last time bytes arrived from the peer; the stall sweep's input.
    origin::util::SimTime last_activity;
    // Decoded request-header bytes across all streams (§10.5.1 accounting).
    std::uint64_t header_bytes = 0;
    // Response-body bytes queued for this session.
    std::uint64_t response_bytes = 0;
    // GOAWAY(NO_ERROR) sent; streams above drain_last_stream_id refused.
    bool draining = false;
    std::uint32_t drain_last_stream_id = 0;
    // A "drain: complete" close is scheduled (drain_linger from now).
    bool drain_close_pending = false;
    // close_session already ran; the async netsim on_close will reap it.
    bool closing = false;
  };

  void accept(netsim::TcpEndpoint endpoint);
  void handle_request(Session& session, std::uint32_t stream_id,
                      const hpack::HeaderList& headers);
  void flush(Session& session);
  // The single audited close path: records the reason in
  // Stats::close_reasons, then tears the transport down with it. Every
  // server-initiated close MUST go through here (analyzer rule
  // server-close-recorded).
  void close_endpoint(netsim::TcpEndpoint& endpoint, const std::string& reason);
  void close_session(Session& session, const std::string& reason);
  // Checks every per-session budget; sheds and returns true on violation.
  bool enforce_budgets(Session& session);
  // Closes a draining session once its last in-flight stream finished.
  void maybe_finish_drain(Session& session);
  void schedule_sweep();
  void sweep();

  ServerConfig config_;
  // less<> enables lookup by the string_view :authority without an
  // allocated key copy.
  std::map<std::string, Handler, std::less<>> vhosts_;
  tls::CertStore certs_;
  std::vector<std::shared_ptr<Session>> sessions_;
  Stats stats_;
  // Set by listen(); the simulator behind it drives the stall sweep and
  // the drain grace deadline.
  netsim::Network* network_ = nullptr;
  bool sweep_scheduled_ = false;
  bool draining_ = false;
};

// Convenience: header list for a GET request (client side).
hpack::HeaderList make_get_request(const std::string& authority,
                                   const std::string& path);

// Extracts a pseudo-header value ("" when absent). The view borrows from
// `headers` and is valid only while the list is alive.
std::string_view header_value(const hpack::HeaderList& headers,
                              std::string_view name);

}  // namespace origin::server
