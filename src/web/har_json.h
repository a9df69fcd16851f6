// HAR 1.2 serialization of page loads.
//
// The paper's pipeline stored each page load as an HTTP Archive file from
// Chrome devtools; the §4 model consumed those files. This module writes
// our PageLoad structures as standards-shaped HAR JSON (log/entries with
// startedDateTime, timings {blocked, dns, connect, ssl, send, wait,
// receive}, request/response skeletons plus an `_origin` extension block
// for the reproduction-specific fields) and reads them back, so corpora
// can be exported for external tooling and reimported losslessly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/result.h"
#include "web/har.h"

namespace origin::web {

// Appends the HAR JSON document for one page load to `*out`, streamed
// through util::JsonWriter without building a Json tree. Keys come in
// alphabetical order at every level, so the text is exactly what
// Json::parse(text)->dump(indent) reproduces.
void write_har(const PageLoad& load, int indent, std::string* out);
std::string to_har_string(const PageLoad& load, int indent = 2);

// The corpus fingerprint of one page: FNV-1a-64 over to_har_string(load)
// (indent 2), chained from `seed`. The text is never rendered: each run of
// fixed layout between two values folds in one step from a compile-time
// table (har_json.cc), and only the values take the FNV byte loop. The
// digest allocates nothing.
std::uint64_t har_digest(const PageLoad& load, std::uint64_t seed);

// Parses a HAR document produced by write_har back into a PageLoad.
// Millisecond fields round to the nearest microsecond and saturate at
// ±10^17 us, so importing an exported page gives back every value the
// export writes exactly (times below 10^15 us).
[[nodiscard]] origin::util::Result<PageLoad> from_har_json(const origin::util::Json& har);
[[nodiscard]] origin::util::Result<PageLoad> from_har_string(std::string_view text);

}  // namespace origin::web
