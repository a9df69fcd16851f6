#include "h2/abuse.h"

#include <algorithm>
#include <charconv>

#include "h2/frame.h"
#include "util/fnv.h"

namespace origin::h2 {

using origin::util::Bytes;
using origin::util::make_error;
using origin::util::Result;

namespace {

// Sending rounds after the connect; bounded so run_until_idle terminates
// even when the server never sheds the client.
constexpr std::size_t kBursts = 8;
// Header bomb: bytes of literal header value per HEADERS+CONTINUATION
// round.
constexpr std::size_t kBombBytes = 64 * 1024;
// Slowloris: preface bytes trickled one per interval, then silence. Six
// bytes never completes the 24-byte client preface.
constexpr std::size_t kTrickleBytes = 6;
constexpr origin::util::Duration kTrickleInterval =
    origin::util::Duration::seconds(2);
// How long a burst client lingers after its last round before closing
// itself. netsim drops in-flight bytes once either side tears down, so a
// client that hangs up right after its final send would un-deliver its
// own attack; the linger must exceed the link's one-way latency plus
// transfer time for the last burst to land (and gives the server's shed
// GOAWAY time to arrive).
constexpr origin::util::Duration kLinger = origin::util::Duration::millis(250);
// :authority for generated requests (rapid reset / header bomb).
constexpr const char* kAuthority = "www.site.com";

}  // namespace

const char* abuse_kind_name(AbuseKind kind) {
  switch (kind) {
    case AbuseKind::kRapidReset: return "rapid_reset";
    case AbuseKind::kHeaderBomb: return "header_bomb";
    case AbuseKind::kPingFlood: return "ping_flood";
    case AbuseKind::kSettingsFlood: return "settings_flood";
    case AbuseKind::kSlowloris: return "slowloris";
  }
  return "unknown";
}

Result<AbuseMix> AbuseMix::parse(std::string_view text) {
  AbuseMix mix;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view entry = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace; empty entries (trailing comma) are fine.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return make_error("abuse mix: missing '=' in \"" + std::string(entry) +
                        "\"");
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    std::size_t count = 0;
    const auto parsed =
        std::from_chars(value.data(), value.data() + value.size(), count);
    if (parsed.ec != std::errc{} || parsed.ptr != value.data() + value.size()) {
      return make_error("abuse mix: bad count in \"" + std::string(entry) +
                        "\"");
    }
    if (key == "rapid_reset") {
      mix.rapid_reset = count;
    } else if (key == "header_bomb") {
      mix.header_bomb = count;
    } else if (key == "ping_flood") {
      mix.ping_flood = count;
    } else if (key == "settings_flood") {
      mix.settings_flood = count;
    } else if (key == "slowloris") {
      mix.slowloris = count;
    } else {
      return make_error("abuse mix: unknown kind \"" + std::string(key) +
                        "\"");
    }
  }
  return mix;
}

std::string AbuseMix::serialize() const {
  std::string out;
  auto field = [&out](const char* name, std::size_t value) {
    if (!out.empty()) out += ',';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("rapid_reset", rapid_reset);
  field("header_bomb", header_bomb);
  field("ping_flood", ping_flood);
  field("settings_flood", settings_flood);
  field("slowloris", slowloris);
  return out;
}

std::vector<AbuseKind> AbuseMix::expand() const {
  std::vector<AbuseKind> kinds;
  kinds.reserve(total());
  for (std::size_t i = 0; i < rapid_reset; ++i) {
    kinds.push_back(AbuseKind::kRapidReset);
  }
  for (std::size_t i = 0; i < header_bomb; ++i) {
    kinds.push_back(AbuseKind::kHeaderBomb);
  }
  for (std::size_t i = 0; i < ping_flood; ++i) {
    kinds.push_back(AbuseKind::kPingFlood);
  }
  for (std::size_t i = 0; i < settings_flood; ++i) {
    kinds.push_back(AbuseKind::kSettingsFlood);
  }
  for (std::size_t i = 0; i < slowloris; ++i) {
    kinds.push_back(AbuseKind::kSlowloris);
  }
  return kinds;
}

AbusiveClient::AbusiveClient(netsim::Network& network, AbuseKind kind,
                             std::uint64_t seed, AbusiveClientOptions options)
    : network_(network),
      kind_(kind),
      seed_(seed),
      options_(std::move(options)),
      tag_("abuse:" + std::string(abuse_kind_name(kind)) + ":" +
           std::to_string(seed)) {}

bool abusive_close_reason(const std::string& reason) {
  return reason.rfind("overload:", 0) == 0 ||
         reason.rfind("admission:", 0) == 0 ||
         reason.rfind("drain:", 0) == 0;
}

void AbusiveClient::start(dns::IpAddress target) {
  network_.connect(
      tag_, target,
      [this](origin::util::Result<netsim::TcpEndpoint> endpoint) {
        if (!endpoint.ok()) {
          // Admission shed the connection before it existed: record the
          // refusal like a close so mixes over refused clients still
          // account every attacker.
          closed_ = true;
          shed_ = true;
          close_reason_ = endpoint.error().message;
          return;
        }
        connected_ = true;
        endpoint_ = *endpoint;
        endpoint_.set_on_receive([](std::span<const std::uint8_t>) {
          // Abusers never read: acks and responses rot in the void.
        });
        endpoint_.set_on_close([this](const std::string& reason) {
          closed_ = true;
          close_reason_ = reason;
          shed_ = abusive_close_reason(reason);
        });
        if (kind_ == AbuseKind::kSlowloris) {
          run_trickle(0);
        } else {
          run_burst(0);
        }
      });
}

std::uint32_t AbusiveClient::open_stream_id() {
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  return id;
}

Bytes AbusiveClient::burst_bytes(std::size_t round) {
  Bytes wire;
  if (round == 0) {
    // Even attackers must complete the preface to get past frame parsing.
    wire.assign(kClientPreface.begin(), kClientPreface.end());
    serialize_frame(Frame{SettingsFrame{}}, wire);
    ++frames_sent_;
  }
  auto append = [this, &wire](const Frame& frame) {
    serialize_frame(frame, wire);
    ++frames_sent_;
  };
  switch (kind_) {
    case AbuseKind::kRapidReset: {
      for (std::size_t i = 0; i + 1 < options_.frames_per_burst; i += 2) {
        const std::uint32_t id = open_stream_id();
        HeadersFrame headers;
        headers.stream_id = id;
        headers.end_stream = true;
        headers.header_block = encoder_.encode(
            {{":method", "GET"},
             {":scheme", "https"},
             {":authority", kAuthority},
             {":path", "/reset/" + std::to_string(round) + "/" +
                           std::to_string(i)}});
        append(Frame{std::move(headers)});
        RstStreamFrame rst;
        rst.stream_id = id;
        rst.error = ErrorCode::kCancel;
        append(Frame{rst});
      }
      break;
    }
    case AbuseKind::kHeaderBomb: {
      // One request whose cookie header dwarfs any sane header budget;
      // split across CONTINUATION frames like a real oversized block.
      const std::uint32_t id = open_stream_id();
      std::string bomb(kBombBytes, 'x');
      // Seed-dependent sprinkle keeps blocks distinct across clients.
      bomb[bomb.size() / 2] =
          static_cast<char>('a' + (origin::util::fnv1a64_mix(seed_, round) %
                                   26));
      Bytes block = encoder_.encode({{":method", "GET"},
                                     {":scheme", "https"},
                                     {":authority", kAuthority},
                                     {":path", "/bomb"},
                                     {"cookie", bomb}});
      // Chunks must fit the default SETTINGS_MAX_FRAME_SIZE (16384): the
      // point is to blow the header-byte budget, not trip frame parsing.
      constexpr std::size_t kChunk = 16000;
      std::size_t offset = 0;
      bool first = true;
      while (offset < block.size()) {
        const std::size_t len = std::min(kChunk, block.size() - offset);
        const bool last = offset + len == block.size();
        auto begin = block.begin() + static_cast<std::ptrdiff_t>(offset);
        auto end = begin + static_cast<std::ptrdiff_t>(len);
        if (first) {
          HeadersFrame headers;
          headers.stream_id = id;
          headers.end_headers = last;
          headers.header_block.assign(begin, end);
          append(Frame{std::move(headers)});
          first = false;
        } else {
          ContinuationFrame continuation;
          continuation.stream_id = id;
          continuation.end_headers = last;
          continuation.header_block.assign(begin, end);
          append(Frame{std::move(continuation)});
        }
        offset += len;
      }
      break;
    }
    case AbuseKind::kPingFlood: {
      for (std::size_t i = 0; i < options_.frames_per_burst; ++i) {
        PingFrame ping;
        ping.opaque = origin::util::fnv1a64_mix(seed_, (round << 16) | i);
        append(Frame{ping});
      }
      break;
    }
    case AbuseKind::kSettingsFlood: {
      for (std::size_t i = 0; i < options_.frames_per_burst; ++i) {
        SettingsFrame settings;
        append(Frame{settings});
      }
      break;
    }
    case AbuseKind::kSlowloris:
      break;  // trickles bytes, never frames
  }
  return wire;
}

void AbusiveClient::run_burst(std::size_t round) {
  if (closed_ || !endpoint_.open()) return;
  if (round >= kBursts) {
    // Budget spent. Linger before hanging up: closing immediately would
    // drop our own in-flight bytes (netsim discards deliveries to a torn-
    // down connection), and the server's shed GOAWAY needs time to land.
    network_.simulator().schedule(kLinger, [this]() {
      if (closed_ || !endpoint_.open()) return;
      endpoint_.close("abuse: schedule complete");
    });
    return;
  }
  endpoint_.send(burst_bytes(round));
  network_.simulator().schedule(options_.burst_interval,
                                [this, round]() { run_burst(round + 1); });
}

void AbusiveClient::run_trickle(std::size_t sent) {
  if (closed_ || !endpoint_.open()) return;
  if (sent >= kTrickleBytes) return;  // stall forever from here on
  Bytes byte;
  byte.push_back(static_cast<std::uint8_t>(kClientPreface[sent]));
  endpoint_.send(std::move(byte));
  network_.simulator().schedule(kTrickleInterval,
                                [this, sent]() { run_trickle(sent + 1); });
}

}  // namespace origin::h2
