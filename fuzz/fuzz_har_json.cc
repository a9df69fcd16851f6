// Fuzz driver: HAR JSON reader (src/web/har_json.cc, src/util/json.cc).
//
// Properties exercised on every input:
//   1. Totality — Json::parse and from_har_string never crash or throw on
//      arbitrary text; malformed documents surface as util::Result errors.
//   2. Dump/parse closure — any document that parses also re-parses from
//      its own dump() output, compact and pretty-printed.
//   3. HAR reimport closure — any text that imports as a PageLoad exports
//      via to_har_string and imports again.
//   4. One formatter — an exported HAR is a Json::dump fixed point,
//      compact and pretty-printed: the streamed export and the tree dump
//      agree on key order, number format and string escapes.
//   5. Folded digest — har_digest, which folds the HAR's fixed layout from
//      a table of gaps and only its values byte by byte, equals FNV-1a-64
//      over the exported text, at a seed taken from the input bytes so the
//      state's low byte varies. The seed every_row.har reaches every row
//      of that table.
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/check.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/har_json.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text =
      origin::util::as_string_view(std::span<const std::uint8_t>(data, size));

  auto doc = origin::util::Json::parse(text);
  if (doc.ok()) {
    for (int indent : {0, 2}) {
      auto again = origin::util::Json::parse(doc.value().dump(indent));
      ORIGIN_CHECK(again.ok(), "har fuzz: dump() output failed to re-parse");
    }
  }

  auto load = origin::web::from_har_string(text);
  if (load.ok()) {
    auto reimported =
        origin::web::from_har_string(origin::web::to_har_string(load.value()));
    ORIGIN_CHECK(reimported.ok(), "har fuzz: exported HAR failed to reimport");
    ORIGIN_CHECK(
        reimported.value().entries.size() == load.value().entries.size(),
        "har fuzz: reimport changed entry count");
    for (int indent : {0, 2}) {
      const std::string exported =
          origin::web::to_har_string(load.value(), indent);
      auto parsed = origin::util::Json::parse(exported);
      ORIGIN_CHECK(parsed.ok() && parsed.value().dump(indent) == exported,
                   "har fuzz: exported HAR is not a dump() fixed point");
    }
    const std::uint64_t seed = origin::util::fnv1a64(text);
    ORIGIN_CHECK(origin::web::har_digest(load.value(), seed) ==
                     origin::util::fnv1a64(
                         origin::web::to_har_string(load.value()), seed),
                 "har fuzz: folded digest differs from FNV of the text");
  }
  return 0;
}
