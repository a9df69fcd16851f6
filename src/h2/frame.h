// HTTP/2 frame model and wire codec (RFC 9113 §4, §6), including the
// extension frames this study depends on: ORIGIN (RFC 8336) and ALTSVC
// (RFC 7838).
//
// Every frame on the wire is a 9-octet header (24-bit length, 8-bit type,
// 8-bit flags, 31-bit stream id) followed by the payload. Unknown frame
// types MUST be ignored by compliant endpoints (RFC 9113 §4.1) — the §6.7
// middlebox incident in the paper is exactly a violation of that rule, so
// the codec deliberately preserves unknown frames as UnknownFrame rather
// than erroring.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace origin::h2 {

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoAway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
  kAltSvc = 0xa,   // RFC 7838
  kOrigin = 0xc,   // RFC 8336
};

const char* frame_type_name(FrameType type);

// Frame flags (per-type meaning, RFC 9113 §6).
inline constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
inline constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS, PING
inline constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, CONTINUATION
inline constexpr std::uint8_t kFlagPadded = 0x8;      // DATA, HEADERS
inline constexpr std::uint8_t kFlagPriority = 0x20;   // HEADERS

enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

const char* error_code_name(ErrorCode code);

// RFC 9113 §6.5.2 setting identifiers.
enum class SettingId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

struct DataFrame {
  std::uint32_t stream_id = 0;
  origin::util::Bytes data;
  bool end_stream = false;
  std::uint8_t pad_length = 0;
};

struct HeadersFrame {
  std::uint32_t stream_id = 0;
  origin::util::Bytes header_block;  // HPACK-coded fragment
  bool end_stream = false;
  bool end_headers = true;
};

struct PriorityFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t dependency = 0;
  std::uint8_t weight = 16;  // wire value + 1
  bool exclusive = false;
};

struct RstStreamFrame {
  std::uint32_t stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
};

struct SettingsFrame {
  bool ack = false;
  std::vector<std::pair<SettingId, std::uint32_t>> settings;
};

struct PushPromiseFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t promised_stream_id = 0;
  origin::util::Bytes header_block;
  bool end_headers = true;
};

struct PingFrame {
  bool ack = false;
  std::uint64_t opaque = 0;
};

struct GoAwayFrame {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::string debug_data;
};

struct WindowUpdateFrame {
  std::uint32_t stream_id = 0;  // 0 = connection-level
  std::uint32_t increment = 0;
};

struct ContinuationFrame {
  std::uint32_t stream_id = 0;
  origin::util::Bytes header_block;
  bool end_headers = true;
};

struct AltSvcFrame {
  std::uint32_t stream_id = 0;
  std::string origin;       // empty when sent on a request stream
  std::string field_value;  // Alt-Svc header syntax
};

// RFC 8336: sent by servers on stream 0; the payload is a sequence of
// Origin-Entry = (2-octet length, ASCII-serialized origin). Receipt replaces
// the client's origin set for the connection.
struct OriginFrame {
  std::vector<std::string> origins;
};

struct UnknownFrame {
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  origin::util::Bytes payload;
};

using Frame =
    std::variant<DataFrame, HeadersFrame, PriorityFrame, RstStreamFrame,
                 SettingsFrame, PushPromiseFrame, PingFrame, GoAwayFrame,
                 WindowUpdateFrame, ContinuationFrame, AltSvcFrame,
                 OriginFrame, UnknownFrame>;

FrameType frame_type_of(const Frame& frame);
std::uint32_t stream_id_of(const Frame& frame);

// Appends one frame, including its 9-octet header, to `out` in place. An
// empty `out` is sized to exactly this frame; a non-empty one grows
// geometrically, so a connection's output buffer reallocates rarely.
void serialize_frame(const Frame& frame, origin::util::Bytes& out);
// The same bytes in a buffer of their own.
origin::util::Bytes serialize_frame(const Frame& frame);

// Incremental frame parser: feed bytes in any chunking; complete frames are
// returned in order. Enforces the local SETTINGS_MAX_FRAME_SIZE. Parse
// failures are connection-fatal per RFC 9113 and surface as errors.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_size = 16384)
      : max_frame_size_(max_frame_size) {}

  void set_max_frame_size(std::uint32_t size) { max_frame_size_ = size; }

  // Replaces the contents of `frames` with every complete frame in the
  // buffered tail plus `bytes`, in order. Complete frames parse straight
  // from `bytes`; only an incomplete tail is copied into the parser. On
  // error `frames` is left empty and the buffer is discarded.
  [[nodiscard]] origin::util::Status feed(std::span<const std::uint8_t> bytes,
                                          std::vector<Frame>& frames);
  // The same frames in a vector of their own.
  [[nodiscard]] origin::util::Result<std::vector<Frame>> feed(
      std::span<const std::uint8_t> bytes);

  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  origin::util::Bytes buffer_;
  std::uint32_t max_frame_size_;
};

// The client connection preface (RFC 9113 §3.4).
inline constexpr std::string_view kClientPreface =
    "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

}  // namespace origin::h2
