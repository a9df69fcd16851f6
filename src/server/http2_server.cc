#include "server/http2_server.h"

#include <charconv>
#include <string>

#include "util/hot_path.h"

namespace origin::server {

void Http2Server::Stats::merge(const Stats& other) {
  connections += other.connections;
  requests += other.requests;
  responses_200 += other.responses_200;
  responses_404 += other.responses_404;
  responses_421 += other.responses_421;
  origin_frames_sent += other.origin_frames_sent;
  origin_frames_suppressed += other.origin_frames_suppressed;
  h2_protocol_errors += other.h2_protocol_errors;
  submit_failures += other.submit_failures;
  sessions_shed += other.sessions_shed;
  sessions_reaped_stalled += other.sessions_reaped_stalled;
  admission_rejections += other.admission_rejections;
  streams_refused += other.streams_refused;
  drains_started += other.drains_started;
  drained_clean += other.drained_clean;
  for (const auto& [reason, count] : other.close_reasons) {
    close_reasons[reason] += count;
  }
}

std::string Http2Server::Stats::serialize() const {
  std::string out;
  auto field = [&out](const char* name, std::uint64_t value) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  };
  field("connections", connections);
  field("requests", requests);
  field("responses_200", responses_200);
  field("responses_404", responses_404);
  field("responses_421", responses_421);
  field("origin_frames_sent", origin_frames_sent);
  field("origin_frames_suppressed", origin_frames_suppressed);
  field("h2_protocol_errors", h2_protocol_errors);
  field("submit_failures", submit_failures);
  field("sessions_shed", sessions_shed);
  field("sessions_reaped_stalled", sessions_reaped_stalled);
  field("admission_rejections", admission_rejections);
  field("streams_refused", streams_refused);
  field("drains_started", drains_started);
  field("drained_clean", drained_clean);
  // std::map iterates keys sorted, so this block is canonical.
  for (const auto& [reason, count] : close_reasons) {
    out += "close_reason[";
    out += reason;
    out += "]=";
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Http2Server::Http2Server(ServerConfig config) : config_(std::move(config)) {}

void Http2Server::add_vhost(std::string hostname, Handler handler) {
  vhosts_[std::move(hostname)] = std::move(handler);
}

void Http2Server::set_certificate(tls::Certificate cert) {
  certs_.add(std::move(cert));
}

void Http2Server::set_origin_set(std::vector<std::string> origins) {
  config_.origin_set = std::move(origins);
}

void Http2Server::listen(netsim::Network& network, dns::IpAddress address) {
  network_ = &network;
  network.listen(address,
                 [this](netsim::TcpEndpoint endpoint) { accept(endpoint); });
}

ORIGIN_HOT void Http2Server::flush(Session& session) {
  if (session.connection->has_output() && session.endpoint.open()) {
    session.endpoint.send(session.connection->take_output());
  }
}

void Http2Server::close_endpoint(netsim::TcpEndpoint& endpoint,
                                 const std::string& reason) {
  ++stats_.close_reasons[reason];
  if (endpoint.open()) {
    endpoint.close(reason);  // analyze:allow(server-close-recorded): this is the audited close path; the reason was recorded just above
  }
}

void Http2Server::close_session(Session& session, const std::string& reason) {
  if (session.closing) return;
  session.closing = true;
  close_endpoint(session.endpoint, reason);
}

void Http2Server::accept(netsim::TcpEndpoint endpoint) {
  if (config_.admission_gate) {
    if (auto reason = config_.admission_gate(endpoint.client_tag())) {
      ++stats_.admission_rejections;
      close_endpoint(endpoint, *reason);
      return;
    }
  }
  ++stats_.connections;
  auto session = std::make_shared<Session>();
  session->endpoint = endpoint;
  session->client_tag = endpoint.client_tag();
  if (network_ != nullptr) {
    session->accepted_at = network_->simulator().now();
    session->last_activity = session->accepted_at;
  }
  h2::Origin server_origin;  // servers do not consume the origin set
  session->connection = std::make_shared<h2::Connection>(
      h2::Connection::Role::kServer, server_origin, config_.settings);

  h2::ConnectionCallbacks callbacks;
  Session* raw = session.get();
  callbacks.on_headers = [this, raw](std::uint32_t stream_id,
                                     const hpack::HeaderList& headers, bool) {
    // RFC 9113 §10.5.1 accounting, charged to the session's lifetime budget.
    for (const auto& header : headers) {
      raw->header_bytes += header.name.size() + header.value.size() + 32;
    }
    if (raw->draining && stream_id > raw->drain_last_stream_id) {
      // The client raced a request past our GOAWAY; refuse it so the
      // client's re-dispatch (which the GOAWAY already triggered) is the
      // only copy that runs.
      ++stats_.streams_refused;
      if (!raw->connection
               ->submit_rst_stream(stream_id, h2::ErrorCode::kRefusedStream)
               .ok()) {
        ++stats_.submit_failures;
      }
      return;
    }
    handle_request(*raw, stream_id, headers);
  };
  session->connection->set_callbacks(std::move(callbacks));

  // First flight: SETTINGS (already queued) plus the ORIGIN frame, which
  // RFC 8336 encourages sending as early as possible on stream 0 — unless
  // the deployment's kill-switch has disabled ORIGIN for this client tag.
  if (!config_.origin_set.empty()) {
    if (!config_.origin_gate || config_.origin_gate(session->client_tag)) {
      if (session->connection->submit_origin(config_.origin_set).ok()) {
        ++stats_.origin_frames_sent;
        session->origin_sent = true;
      } else {
        ++stats_.submit_failures;
      }
    } else {
      ++stats_.origin_frames_suppressed;
    }
  }

  session->endpoint.set_on_receive(
      [this, raw](std::span<const std::uint8_t> bytes) {
        if (raw->closing) return;
        if (network_ != nullptr) {
          raw->last_activity = network_->simulator().now();
        }
        auto status = raw->connection->receive(bytes);
        // Flush regardless: a failed receive queues a GOAWAY for the peer.
        flush(*raw);
        if (!status.ok()) {
          ++stats_.h2_protocol_errors;
          close_session(*raw, "h2 protocol error: " + status.error().message);
          return;
        }
        bool shed = false;
        if (config_.overload.enabled) shed = enforce_budgets(*raw);
        if (!shed) maybe_finish_drain(*raw);
      });
  session->endpoint.set_on_close([this, raw](const std::string& reason) {
    if (config_.close_feedback) {
      config_.close_feedback(raw->client_tag, raw->origin_sent, reason);
    }
    if (config_.admission_feedback) {
      config_.admission_feedback(raw->client_tag, reason);
    }
    // Reap the session; the server otherwise accumulates dead connections
    // for its whole lifetime.
    std::erase_if(sessions_,
                  [raw](const auto& session) { return session.get() == raw; });
  });
  flush(*session);
  sessions_.push_back(std::move(session));
  schedule_sweep();
}

bool Http2Server::enforce_budgets(Session& session) {
  const OverloadConfig& cfg = config_.overload;
  const h2::Connection& conn = *session.connection;
  const char* violation = nullptr;
  if (cfg.max_session_rsts != 0 &&
      conn.frames_received(h2::FrameType::kRstStream) > cfg.max_session_rsts) {
    violation = "overload: rapid-reset flood";
  } else if (cfg.max_session_pings != 0 &&
             conn.frames_received(h2::FrameType::kPing) >
                 cfg.max_session_pings) {
    violation = "overload: ping flood";
  } else if (cfg.max_session_settings != 0 &&
             conn.frames_received(h2::FrameType::kSettings) >
                 cfg.max_session_settings) {
    violation = "overload: settings flood";
  } else if (cfg.max_session_header_bytes != 0 &&
             session.header_bytes > cfg.max_session_header_bytes) {
    violation = "overload: header budget";
  } else if (cfg.max_session_response_bytes != 0 &&
             session.response_bytes > cfg.max_session_response_bytes) {
    violation = "overload: response budget";
  } else if (cfg.max_session_streams != 0 &&
             conn.active_stream_count() > cfg.max_session_streams) {
    violation = "overload: stream budget";
  } else if (cfg.frame_budget_grace != 0 &&
             conn.total_frames_received() > cfg.frame_budget_grace &&
             network_ != nullptr) {
    // Connection-lifetime rate: deterministic because lifetime is simulated
    // time, not wall-clock.
    const double elapsed =
        (network_->simulator().now() - session.accepted_at).as_seconds();
    const double allowed = static_cast<double>(cfg.frame_budget_grace) +
                           cfg.max_frames_per_second * elapsed;
    if (static_cast<double>(conn.total_frames_received()) > allowed) {
      violation = "overload: frame rate";
    }
  }
  if (violation == nullptr) return false;
  ++stats_.sessions_shed;
  session.connection->submit_goaway(h2::ErrorCode::kEnhanceYourCalm,
                                    violation);
  flush(session);
  close_session(session, violation);
  return true;
}

void Http2Server::maybe_finish_drain(Session& session) {
  if (!session.draining || session.closing || session.drain_close_pending) {
    return;
  }
  if (session.connection->active_stream_count() != 0) return;
  if (network_ == nullptr ||
      config_.overload.drain_linger.count_micros() <= 0) {
    ++stats_.drained_clean;
    close_session(session, "drain: complete");
    return;
  }
  // Close after a linger, not now: the final flush (last response bytes and
  // the GOAWAY itself) is still in flight, and netsim drops deliveries to a
  // torn-down connection.
  session.drain_close_pending = true;
  std::weak_ptr<Session> weak;
  for (const auto& owned : sessions_) {
    if (owned.get() == &session) {
      weak = owned;
      break;
    }
  }
  network_->simulator().schedule(
      config_.overload.drain_linger, [this, weak]() {
        auto session = weak.lock();
        if (!session || session->closing) return;
        if (session->connection->active_stream_count() != 0) {
          // A late stream (at or below drain_last_stream_id) slipped in
          // during the linger; wait for it to finish.
          session->drain_close_pending = false;
          return;
        }
        ++stats_.drained_clean;
        close_session(*session, "drain: complete");
      });
}

void Http2Server::schedule_sweep() {
  if (sweep_scheduled_ || network_ == nullptr || !config_.overload.enabled) {
    return;
  }
  sweep_scheduled_ = true;
  network_->simulator().schedule(config_.overload.sweep_interval,
                                 [this]() { sweep(); });
}

void Http2Server::sweep() {
  sweep_scheduled_ = false;
  if (network_ == nullptr) return;
  const origin::util::SimTime now = network_->simulator().now();
  // Collect first: close_session's teardown is async, but keep the loop
  // independent of any future reaping changes.
  std::vector<Session*> stalled;
  for (const auto& session : sessions_) {
    if (session->closing) continue;
    if (now - session->last_activity >= config_.overload.stall_timeout) {
      stalled.push_back(session.get());
    }
  }
  for (Session* session : stalled) {
    ++stats_.sessions_shed;
    ++stats_.sessions_reaped_stalled;
    session->connection->submit_goaway(h2::ErrorCode::kEnhanceYourCalm,
                                       "stall timeout");
    flush(*session);
    close_session(*session, "overload: stall timeout");
  }
  // Reschedule only while sessions remain: an unconditional reschedule
  // would keep the simulator's run_until_idle from ever terminating.
  if (!sessions_.empty()) schedule_sweep();
}

void Http2Server::begin_drain(const std::string& reason) {
  if (draining_) return;
  draining_ = true;
  ++stats_.drains_started;
  for (const auto& session : sessions_) {
    if (session->closing || session->draining) continue;
    session->draining = true;
    session->drain_last_stream_id = session->connection->highest_peer_stream();
    session->connection->submit_goaway(h2::ErrorCode::kNoError, reason);
    flush(*session);
    maybe_finish_drain(*session);
  }
  if (network_ != nullptr && config_.overload.drain_grace.count_micros() > 0) {
    network_->simulator().schedule(config_.overload.drain_grace, [this]() {
      // Only sessions that actually got the GOAWAY are on the clock;
      // connections accepted after the drain began serve normally.
      std::vector<Session*> expired;
      for (const auto& session : sessions_) {
        if (session->draining && !session->closing) {
          expired.push_back(session.get());
        }
      }
      for (Session* session : expired) {
        close_session(*session, "drain: grace expired");
      }
    });
  }
}

namespace {

// Digits for :status / content-length without std::to_string: the common
// statuses come from a table, anything else lands in the caller's buffer.
std::string_view status_text(int status, char (&buf)[8]) {
  switch (status) {
    case 200:
      return "200";
    case 404:
      return "404";
    case 421:
      return "421";
  }
  const auto result = std::to_chars(buf, buf + sizeof(buf), status);
  return {buf, static_cast<std::size_t>(result.ptr - buf)};
}

std::string_view size_text(std::size_t n, char (&buf)[24]) {
  const auto result = std::to_chars(buf, buf + sizeof(buf), n);
  return {buf, static_cast<std::size_t>(result.ptr - buf)};
}

}  // namespace

ORIGIN_HOT void Http2Server::handle_request(
    Session& session, std::uint32_t stream_id,
    const hpack::HeaderList& headers) {
  ++stats_.requests;
  const std::string_view authority = header_value(headers, ":authority");
  const std::string_view path = header_value(headers, ":path");

  auto vhost = vhosts_.find(authority);
  if (vhost == vhosts_.end()) {
    // The certificate may cover this name, but this deployment has no
    // content for it: 421 tells the client to retry on a fresh connection
    // (RFC 9113 §8.1.2; paper §2.2). The certificate stays valid.
    ++stats_.responses_421;
    auto st = session.connection->submit_response(
        stream_id,
        {{":status", "421"}, {"content-type", "text/plain"}}, false);
    if (st.ok()) {
      st = session.connection->submit_data(
          stream_id, origin::util::from_string("421 Misdirected Request"),
          true);
    }
    if (!st.ok()) ++stats_.submit_failures;
    flush(session);
    return;
  }

  Response response = vhost->second(path);
  if (response.status == 200) {
    ++stats_.responses_200;
  } else if (response.status == 404) {
    ++stats_.responses_404;
  }
  session.response_bytes += response.body.size();
  char status_buf[8];
  char length_buf[24];
  // The hpack HeaderList API takes owned strings; status and length
  // digits are SSO-small, so these constructions never allocate.
  auto st = session.connection->submit_response(
      stream_id,
      {{":status", std::string(status_text(response.status, status_buf))},  // analyze:allow(hot-string-construct): SSO-small status digits, never reaches the allocator
       {"content-type", response.content_type},
       {"content-length",
        std::string(size_text(response.body.size(), length_buf))}},  // analyze:allow(hot-string-construct): SSO-small length digits, never reaches the allocator
      response.body.empty());
  if (st.ok() && !response.body.empty()) {
    st = session.connection->submit_data(stream_id, response.body, true);
  }
  if (!st.ok()) ++stats_.submit_failures;
  flush(session);
}

hpack::HeaderList make_get_request(const std::string& authority,
                                   const std::string& path) {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", authority},
          {":path", path}};
}

std::string_view header_value(const hpack::HeaderList& headers,
                              std::string_view name) {
  for (const auto& header : headers) {
    if (header.name == name) return header.value;
  }
  return "";
}

}  // namespace origin::server
