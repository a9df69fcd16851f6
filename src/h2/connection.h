// An HTTP/2 connection endpoint: multiplexes streams, runs HPACK in both
// directions, enforces flow control and the stream state machine, exchanges
// SETTINGS, and implements the RFC 8336 ORIGIN extension on both sides.
//
// I/O model: the connection is sans-io. Incoming bytes are pushed with
// `receive()`; outgoing bytes accumulate in an internal buffer drained with
// `take_output()`. The netsim layer moves those buffers between endpoints
// with simulated latency.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2/frame.h"
#include "h2/origin_set.h"
#include "h2/secondary_certs.h"
#include "h2/settings.h"
#include "h2/stream.h"
#include "hpack/hpack.h"
#include "util/bytes.h"
#include "util/result.h"

namespace origin::h2 {

struct ConnectionCallbacks {
  // A complete header block arrived for a stream.
  std::function<void(std::uint32_t stream_id, const hpack::HeaderList&,
                     bool end_stream)>
      on_headers;
  std::function<void(std::uint32_t stream_id,
                     std::span<const std::uint8_t> data, bool end_stream)>
      on_data;
  // The connection's origin set changed (client side, ORIGIN frame).
  std::function<void(const OriginSet&)> on_origin_set_changed;
  std::function<void(std::uint32_t stream_id, ErrorCode)> on_rst_stream;
  std::function<void(const GoAwayFrame&)> on_goaway;
  std::function<void(const AltSvcFrame&)> on_altsvc;
  std::function<void(const SettingsFrame&)> on_remote_settings;
  // A secondary certificate arrived on stream 0 (§6.5 / secondary-certs
  // draft) and was added to the connection's secondary certificate set.
  std::function<void(const tls::Certificate&)> on_secondary_certificate;
  // An unknown/extension frame arrived (and was ignored, as the spec
  // requires). Exposed so tests can observe fail-open behaviour.
  std::function<void(const UnknownFrame&)> on_unknown_frame;
  // A peer PING arrived (the ack is queued internally before this fires).
  // Servers use it to account PING-flood budgets.
  std::function<void(const PingFrame&)> on_ping;
};

class Connection {
 public:
  enum class Role { kClient, kServer };

  // `initial_origin` seeds the client's origin set (ignored for servers).
  Connection(Role role, Origin initial_origin, Settings local_settings = {});

  void set_callbacks(ConnectionCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  // --- Sending ---------------------------------------------------------

  // Client only: opens a new stream carrying `headers`.
  [[nodiscard]] origin::util::Result<std::uint32_t> submit_request(
      const hpack::HeaderList& headers, bool end_stream);

  // Server only: response headers on an open stream.
  [[nodiscard]] origin::util::Status submit_response(std::uint32_t stream_id,
                                       const hpack::HeaderList& headers,
                                       bool end_stream);

  [[nodiscard]] origin::util::Status submit_data(std::uint32_t stream_id,
                                   std::span<const std::uint8_t> data,
                                   bool end_stream);

  // Server only: advertises the origin set on stream 0 (RFC 8336).
  [[nodiscard]] origin::util::Status submit_origin(const std::vector<std::string>& origins);

  // Server only: proves authority for additional origins by shipping a
  // further certificate on stream 0 (§6.5, secondary-certs draft).
  [[nodiscard]] origin::util::Status submit_secondary_certificate(
      const tls::Certificate& cert);

  void submit_ping(std::uint64_t opaque);
  void submit_goaway(ErrorCode error, const std::string& debug);
  [[nodiscard]] origin::util::Status submit_rst_stream(std::uint32_t stream_id,
                                         ErrorCode error);
  [[nodiscard]] origin::util::Status submit_window_update(std::uint32_t stream_id,
                                            std::uint32_t increment);

  // --- Receiving -------------------------------------------------------

  // Processes peer bytes. A returned error is a connection error: a GOAWAY
  // has been queued in the output and the connection is dead.
  [[nodiscard]] origin::util::Status receive(std::span<const std::uint8_t> bytes);

  // --- Introspection ---------------------------------------------------

  origin::util::Bytes take_output();
  bool has_output() const { return !output_.empty(); }

  const OriginSet& origin_set() const { return origin_set_; }
  // Secondary certificates received on this connection (client side).
  const std::vector<tls::Certificate>& secondary_certificates() const {
    return secondary_certificates_;
  }

  const Stream* find_stream(std::uint32_t id) const;
  // Streams not in the closed state, idle ones included.
  std::size_t active_stream_count() const { return active_streams_; }
  std::uint32_t highest_peer_stream() const { return highest_peer_stream_; }
  bool failed() const { return failed_; }
  bool goaway_received() const { return goaway_received_.has_value(); }
  std::uint64_t frames_received(FrameType type) const;
  // Total frames of every type this connection has parsed; the input to
  // connection-lifetime frame-rate budgets.
  std::uint64_t total_frames_received() const { return total_frames_received_; }
  std::int64_t connection_send_window() const {
    return send_window_.available();
  }

 private:
  [[nodiscard]] origin::util::Status handle_frame(Frame frame);
  [[nodiscard]] origin::util::Status connection_error(ErrorCode code, std::string message);
  // Enforces local SETTINGS_MAX_HEADER_LIST_SIZE on a decoded header list
  // (RFC 9113 §10.5.1 accounting: name + value + 32 per field).
  [[nodiscard]] origin::util::Status check_header_list_size(
      const hpack::HeaderList& headers);
  // Decodes a complete header block for `stream`, applies END_STREAM and
  // hands the fields to on_headers.
  [[nodiscard]] origin::util::Status finish_header_block(
      Stream& stream, std::span<const std::uint8_t> block, bool end_stream);
  Stream* mutable_stream(std::uint32_t id);
  Stream& ensure_stream(std::uint32_t id);
  // Every stream state change goes through here, which keeps
  // active_streams_ equal to the number of non-closed streams.
  [[nodiscard]] origin::util::Status apply(Stream& stream, StreamEvent event);
  void count_frame(FrameType type);
  void enqueue(const Frame& frame);

  Role role_;
  Settings local_settings_;
  Settings remote_settings_;
  ConnectionCallbacks callbacks_;

  hpack::Encoder encoder_;
  hpack::Decoder decoder_;
  FrameParser parser_;

  OriginSet origin_set_;
  std::vector<tls::Certificate> secondary_certificates_;

  // Closed streams stay: a frame on one is judged against its state.
  std::map<std::uint32_t, Stream> streams_;
  std::size_t active_streams_ = 0;
  std::uint32_t next_stream_id_;
  std::uint32_t highest_peer_stream_ = 0;

  FlowWindow send_window_;
  FlowWindow recv_window_;

  origin::util::Bytes output_;
  // Frames of the current receive() batch; reused so a receive allocates
  // no vector once the connection has seen its largest batch.
  std::vector<Frame> frames_;
  // The last decoded header block's fields, reused by the next block.
  hpack::HeaderList headers_;
  bool preface_sent_ = false;
  bool preface_received_ = false;
  std::size_t preface_offset_ = 0;
  bool failed_ = false;
  std::optional<GoAwayFrame> goaway_received_;
  // Received frames by type byte: registered types in the array, other
  // (extension) bytes in the map.
  std::array<std::uint64_t, 16> frame_counts_{};
  std::map<std::uint8_t, std::uint64_t> extension_frame_counts_;
  std::uint64_t total_frames_received_ = 0;

  // A HEADERS without END_HEADERS leaves the connection in "continuation
  // expected" state; only CONTINUATION on the same stream is then legal.
  struct PendingHeaderBlock {
    std::uint32_t stream_id;
    origin::util::Bytes fragments;
    bool end_stream;
  };
  std::optional<PendingHeaderBlock> pending_headers_;
};

}  // namespace origin::h2
