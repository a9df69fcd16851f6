#include "h2/frame.h"

#include <algorithm>
#include <limits>

#include "util/hot_path.h"

namespace origin::h2 {

namespace {

using origin::util::ByteReader;
using origin::util::Bytes;
using origin::util::ByteWriter;
using origin::util::make_error;
using origin::util::Result;

constexpr std::uint32_t kStreamIdMask = 0x7fffffffu;
constexpr std::size_t kFrameHeaderSize = 9;

void write_header(ByteWriter& w, std::size_t length, FrameType type,
                  std::uint8_t flags, std::uint32_t stream_id) {
  w.u24(static_cast<std::uint32_t>(length));
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(flags);
  w.u32(stream_id & kStreamIdMask);
}

// Payload octets each frame type puts on the wire after its 9-octet
// header.
std::size_t payload_length(const DataFrame& f) {
  return f.data.size() + (f.pad_length > 0 ? 1u + f.pad_length : 0u);
}
std::size_t payload_length(const HeadersFrame& f) {
  return f.header_block.size();
}
std::size_t payload_length(const PriorityFrame&) { return 5; }
std::size_t payload_length(const RstStreamFrame&) { return 4; }
std::size_t payload_length(const SettingsFrame& f) {
  return f.settings.size() * 6;
}
std::size_t payload_length(const PushPromiseFrame& f) {
  return 4 + f.header_block.size();
}
std::size_t payload_length(const PingFrame&) { return 8; }
std::size_t payload_length(const GoAwayFrame& f) {
  return 8 + f.debug_data.size();
}
std::size_t payload_length(const WindowUpdateFrame&) { return 4; }
std::size_t payload_length(const ContinuationFrame& f) {
  return f.header_block.size();
}
std::size_t payload_length(const AltSvcFrame& f) {
  return 2 + f.origin.size() + f.field_value.size();
}
std::size_t payload_length(const OriginFrame& f) {
  std::size_t length = 0;
  for (const auto& o : f.origins) length += 2 + o.size();
  return length;
}
std::size_t payload_length(const UnknownFrame& f) { return f.payload.size(); }

Result<Frame> parse_payload(std::uint8_t type_byte, std::uint8_t flags,
                            std::uint32_t stream_id,
                            std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  switch (static_cast<FrameType>(type_byte)) {
    case FrameType::kData: {
      DataFrame f;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      if (stream_id == 0) return make_error("h2: DATA on stream 0");
      std::size_t data_len = payload.size();
      if (flags & kFlagPadded) {
        f.pad_length = r.u8();
        if (!r.ok() || f.pad_length + 1u > payload.size()) {
          return make_error("h2: DATA padding exceeds payload");
        }
        data_len = payload.size() - 1 - f.pad_length;
      }
      auto data = r.raw(data_len);
      f.data.assign(data.begin(), data.end());
      return Frame{std::move(f)};
    }
    case FrameType::kHeaders: {
      HeadersFrame f;
      f.stream_id = stream_id;
      f.end_stream = flags & kFlagEndStream;
      f.end_headers = flags & kFlagEndHeaders;
      if (stream_id == 0) return make_error("h2: HEADERS on stream 0");
      std::size_t block_len = payload.size();
      std::uint8_t pad = 0;
      if (flags & kFlagPadded) {
        pad = r.u8();
        block_len -= 1;
      }
      if (flags & kFlagPriority) {
        r.u32();  // dependency (ignored: RFC 9113 deprecates priority signal)
        r.u8();   // weight
        block_len -= 5;
      }
      if (!r.ok() || block_len > payload.size() || pad > block_len) {
        return make_error("h2: HEADERS padding/priority exceeds payload");
      }
      auto block = r.raw(block_len - pad);
      if (!r.ok()) return make_error("h2: HEADERS truncated");
      f.header_block.assign(block.begin(), block.end());
      return Frame{std::move(f)};
    }
    case FrameType::kPriority: {
      if (payload.size() != 5) return make_error("h2: PRIORITY size != 5");
      if (stream_id == 0) return make_error("h2: PRIORITY on stream 0");
      PriorityFrame f;
      f.stream_id = stream_id;
      std::uint32_t dep = r.u32();
      f.exclusive = dep & ~kStreamIdMask;
      f.dependency = dep & kStreamIdMask;
      f.weight = static_cast<std::uint8_t>(r.u8() + 1);
      return Frame{f};
    }
    case FrameType::kRstStream: {
      if (payload.size() != 4) return make_error("h2: RST_STREAM size != 4");
      if (stream_id == 0) return make_error("h2: RST_STREAM on stream 0");
      RstStreamFrame f;
      f.stream_id = stream_id;
      f.error = static_cast<ErrorCode>(r.u32());
      return Frame{f};
    }
    case FrameType::kSettings: {
      if (stream_id != 0) return make_error("h2: SETTINGS on nonzero stream");
      SettingsFrame f;
      f.ack = flags & kFlagAck;
      if (f.ack && !payload.empty()) {
        return make_error("h2: SETTINGS ack with payload");
      }
      if (payload.size() % 6 != 0) {
        return make_error("h2: SETTINGS size not multiple of 6");
      }
      while (r.remaining() >= 6) {
        auto id = static_cast<SettingId>(r.u16());
        std::uint32_t value = r.u32();
        f.settings.emplace_back(id, value);
      }
      return Frame{std::move(f)};
    }
    case FrameType::kPushPromise: {
      if (stream_id == 0) return make_error("h2: PUSH_PROMISE on stream 0");
      PushPromiseFrame f;
      f.stream_id = stream_id;
      f.end_headers = flags & kFlagEndHeaders;
      std::size_t block_len = payload.size();
      std::uint8_t pad = 0;
      if (flags & kFlagPadded) {
        pad = r.u8();
        block_len -= 1;
      }
      f.promised_stream_id = r.u32() & kStreamIdMask;
      block_len -= 4;
      if (!r.ok() || block_len > payload.size() || pad > block_len) {
        return make_error("h2: PUSH_PROMISE malformed");
      }
      auto block = r.raw(block_len - pad);
      f.header_block.assign(block.begin(), block.end());
      return Frame{std::move(f)};
    }
    case FrameType::kPing: {
      if (payload.size() != 8) return make_error("h2: PING size != 8");
      if (stream_id != 0) return make_error("h2: PING on nonzero stream");
      PingFrame f;
      f.ack = flags & kFlagAck;
      f.opaque = r.u64();
      return Frame{f};
    }
    case FrameType::kGoAway: {
      if (stream_id != 0) return make_error("h2: GOAWAY on nonzero stream");
      if (payload.size() < 8) return make_error("h2: GOAWAY too short");
      GoAwayFrame f;
      f.last_stream_id = r.u32() & kStreamIdMask;
      f.error = static_cast<ErrorCode>(r.u32());
      f.debug_data = r.str(r.remaining());
      return Frame{std::move(f)};
    }
    case FrameType::kWindowUpdate: {
      if (payload.size() != 4) return make_error("h2: WINDOW_UPDATE size != 4");
      WindowUpdateFrame f;
      f.stream_id = stream_id;
      f.increment = r.u32() & kStreamIdMask;
      if (f.increment == 0) {
        return make_error("h2: WINDOW_UPDATE increment 0");
      }
      return Frame{f};
    }
    case FrameType::kContinuation: {
      if (stream_id == 0) return make_error("h2: CONTINUATION on stream 0");
      ContinuationFrame f;
      f.stream_id = stream_id;
      f.end_headers = flags & kFlagEndHeaders;
      f.header_block.assign(payload.begin(), payload.end());
      return Frame{std::move(f)};
    }
    case FrameType::kAltSvc: {
      // RFC 7838 §4: Origin-Len (2), Origin, Alt-Svc-Field-Value.
      AltSvcFrame f;
      f.stream_id = stream_id;
      std::uint16_t origin_len = r.u16();
      f.origin = r.str(origin_len);
      if (!r.ok()) return make_error("h2: ALTSVC truncated origin");
      f.field_value = r.str(r.remaining());
      // §4: ALTSVC on stream 0 with empty origin, or nonzero stream with
      // non-empty origin, is invalid and MUST be ignored — we surface it as
      // a frame and let the connection layer decide.
      return Frame{std::move(f)};
    }
    case FrameType::kOrigin: {
      // RFC 8336 §2.1: only valid on stream 0. On any other stream the
      // frame MUST be ignored — surface it as an opaque unknown frame so
      // the connection's ignore path handles it.
      if (stream_id != 0) {
        UnknownFrame f;
        f.type = type_byte;
        f.flags = flags;
        f.stream_id = stream_id;
        f.payload.assign(payload.begin(), payload.end());
        return Frame{std::move(f)};
      }
      OriginFrame f;
      while (r.remaining() >= 2) {
        std::uint16_t len = r.u16();
        // analyze:allow(hot-transitive): ORIGIN is once-per-connection
        // control traffic, not per-request serving work
        std::string entry = r.str(len);
        if (!r.ok()) return make_error("h2: ORIGIN truncated entry");
        f.origins.push_back(std::move(entry));
      }
      if (r.remaining() != 0) return make_error("h2: ORIGIN trailing bytes");
      return Frame{std::move(f)};
    }
    default: {
      UnknownFrame f;
      f.type = type_byte;
      f.flags = flags;
      f.stream_id = stream_id;
      f.payload.assign(payload.begin(), payload.end());
      return Frame{std::move(f)};
    }
  }
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoAway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
    case FrameType::kAltSvc: return "ALTSVC";
    case FrameType::kOrigin: return "ORIGIN";
  }
  return "UNKNOWN";
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNoError: return "NO_ERROR";
    case ErrorCode::kProtocolError: return "PROTOCOL_ERROR";
    case ErrorCode::kInternalError: return "INTERNAL_ERROR";
    case ErrorCode::kFlowControlError: return "FLOW_CONTROL_ERROR";
    case ErrorCode::kSettingsTimeout: return "SETTINGS_TIMEOUT";
    case ErrorCode::kStreamClosed: return "STREAM_CLOSED";
    case ErrorCode::kFrameSizeError: return "FRAME_SIZE_ERROR";
    case ErrorCode::kRefusedStream: return "REFUSED_STREAM";
    case ErrorCode::kCancel: return "CANCEL";
    case ErrorCode::kCompressionError: return "COMPRESSION_ERROR";
    case ErrorCode::kConnectError: return "CONNECT_ERROR";
    case ErrorCode::kEnhanceYourCalm: return "ENHANCE_YOUR_CALM";
    case ErrorCode::kInadequateSecurity: return "INADEQUATE_SECURITY";
    case ErrorCode::kHttp11Required: return "HTTP_1_1_REQUIRED";
  }
  return "UNKNOWN_ERROR";
}

FrameType frame_type_of(const Frame& frame) {
  return std::visit(
      [](const auto& f) -> FrameType {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, DataFrame>) return FrameType::kData;
        else if constexpr (std::is_same_v<T, HeadersFrame>) return FrameType::kHeaders;
        else if constexpr (std::is_same_v<T, PriorityFrame>) return FrameType::kPriority;
        else if constexpr (std::is_same_v<T, RstStreamFrame>) return FrameType::kRstStream;
        else if constexpr (std::is_same_v<T, SettingsFrame>) return FrameType::kSettings;
        else if constexpr (std::is_same_v<T, PushPromiseFrame>) return FrameType::kPushPromise;
        else if constexpr (std::is_same_v<T, PingFrame>) return FrameType::kPing;
        else if constexpr (std::is_same_v<T, GoAwayFrame>) return FrameType::kGoAway;
        else if constexpr (std::is_same_v<T, WindowUpdateFrame>) return FrameType::kWindowUpdate;
        else if constexpr (std::is_same_v<T, ContinuationFrame>) return FrameType::kContinuation;
        else if constexpr (std::is_same_v<T, AltSvcFrame>) return FrameType::kAltSvc;
        else if constexpr (std::is_same_v<T, OriginFrame>) return FrameType::kOrigin;
        else return static_cast<FrameType>(f.type);
      },
      frame);
}

std::uint32_t stream_id_of(const Frame& frame) {
  return std::visit(
      [](const auto& f) -> std::uint32_t {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, SettingsFrame> ||
                      std::is_same_v<T, PingFrame> ||
                      std::is_same_v<T, GoAwayFrame> ||
                      std::is_same_v<T, OriginFrame>) {
          return 0;
        } else {
          return f.stream_id;
        }
      },
      frame);
}

ORIGIN_HOT void serialize_frame(const Frame& frame, Bytes& out) {
  std::visit(
      [&out](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        const std::size_t length = payload_length(f);
        // The exact wire size into an empty buffer, geometric growth into
        // one that already holds frames: a run of appends between two
        // drains reallocates O(log n) times, never per byte.
        const std::size_t need = out.size() + kFrameHeaderSize + length;
        if (need > out.capacity()) {
          out.reserve(out.empty() ? need : std::max(need, 2 * out.capacity()));
        }
        ByteWriter w(std::move(out));
        if constexpr (std::is_same_v<T, DataFrame>) {
          std::uint8_t flags = 0;
          if (f.end_stream) flags |= kFlagEndStream;
          if (f.pad_length > 0) flags |= kFlagPadded;
          write_header(w, length, FrameType::kData, flags, f.stream_id);
          if (f.pad_length > 0) w.u8(f.pad_length);
          w.raw(f.data);
          for (int i = 0; i < f.pad_length; ++i) w.u8(0);
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          std::uint8_t flags = 0;
          if (f.end_stream) flags |= kFlagEndStream;
          if (f.end_headers) flags |= kFlagEndHeaders;
          write_header(w, length, FrameType::kHeaders, flags, f.stream_id);
          w.raw(f.header_block);
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          write_header(w, length, FrameType::kPriority, 0, f.stream_id);
          w.u32(f.dependency | (f.exclusive ? 0x80000000u : 0));
          w.u8(static_cast<std::uint8_t>(f.weight - 1));
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          write_header(w, length, FrameType::kRstStream, 0, f.stream_id);
          w.u32(static_cast<std::uint32_t>(f.error));
        } else if constexpr (std::is_same_v<T, SettingsFrame>) {
          write_header(w, length, FrameType::kSettings, f.ack ? kFlagAck : 0,
                       0);
          for (const auto& [id, value] : f.settings) {
            w.u16(static_cast<std::uint16_t>(id));
            w.u32(value);
          }
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          write_header(w, length, FrameType::kPushPromise,
                       f.end_headers ? kFlagEndHeaders : 0, f.stream_id);
          w.u32(f.promised_stream_id);
          w.raw(f.header_block);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          write_header(w, length, FrameType::kPing, f.ack ? kFlagAck : 0, 0);
          w.u64(f.opaque);
        } else if constexpr (std::is_same_v<T, GoAwayFrame>) {
          write_header(w, length, FrameType::kGoAway, 0, 0);
          w.u32(f.last_stream_id);
          w.u32(static_cast<std::uint32_t>(f.error));
          w.raw(f.debug_data);
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          write_header(w, length, FrameType::kWindowUpdate, 0, f.stream_id);
          w.u32(f.increment);
        } else if constexpr (std::is_same_v<T, ContinuationFrame>) {
          write_header(w, length, FrameType::kContinuation,
                       f.end_headers ? kFlagEndHeaders : 0, f.stream_id);
          w.raw(f.header_block);
        } else if constexpr (std::is_same_v<T, AltSvcFrame>) {
          write_header(w, length, FrameType::kAltSvc, 0, f.stream_id);
          w.u16(static_cast<std::uint16_t>(f.origin.size()));
          w.raw(f.origin);
          w.raw(f.field_value);
        } else if constexpr (std::is_same_v<T, OriginFrame>) {
          write_header(w, length, FrameType::kOrigin, 0, 0);
          for (const auto& o : f.origins) {
            w.u16(static_cast<std::uint16_t>(o.size()));
            w.raw(o);
          }
        } else {  // UnknownFrame
          write_header(w, length, static_cast<FrameType>(f.type), f.flags,
                       f.stream_id);
          w.raw(f.payload);
        }
        out = w.take();
      },
      frame);
}

Bytes serialize_frame(const Frame& frame) {
  Bytes out;
  serialize_frame(frame, out);
  return out;
}

origin::util::Status FrameParser::feed(std::span<const std::uint8_t> bytes,
                                       std::vector<Frame>& frames) {
  frames.clear();
  // Complete frames parse straight from `bytes`; only a buffered partial
  // frame makes the parser copy the chunk behind it.
  std::span<const std::uint8_t> input = bytes;
  if (!buffer_.empty()) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    input = buffer_;
  }
  std::size_t consumed = 0;
  while (input.size() - consumed >= kFrameHeaderSize) {
    std::span<const std::uint8_t> view = input.subspan(consumed);
    ByteReader header(view.subspan(0, kFrameHeaderSize));
    std::uint32_t length = header.u24();
    std::uint8_t type = header.u8();
    std::uint8_t flags = header.u8();
    std::uint32_t stream_id = header.u32() & kStreamIdMask;
    if (length > max_frame_size_) {
      buffer_.clear();
      frames.clear();
      return make_error("h2: frame exceeds SETTINGS_MAX_FRAME_SIZE");
    }
    if (view.size() < kFrameHeaderSize + length) break;  // wait for more
    auto frame = parse_payload(type, flags, stream_id,
                               view.subspan(kFrameHeaderSize, length));
    if (!frame.ok()) {
      buffer_.clear();
      frames.clear();
      return frame.error();
    }
    frames.push_back(std::move(frame).value());
    consumed += kFrameHeaderSize + length;
  }
  if (buffer_.empty()) {
    buffer_.assign(input.begin() + static_cast<std::ptrdiff_t>(consumed),
                   input.end());
  } else {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return {};
}

Result<std::vector<Frame>> FrameParser::feed(
    std::span<const std::uint8_t> bytes) {
  std::vector<Frame> frames;
  if (auto status = feed(bytes, frames); !status.ok()) return status.error();
  return frames;
}

}  // namespace origin::h2
