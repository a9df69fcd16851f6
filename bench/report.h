// The one report path for the engineering benches.
//
// A bench builds its BENCH_<name>.json document, runs its own in-run checks
// (golden equality, digests, exact pins on the work it timed), and hands
// both to publish(). A passing run gets a host stamp and is written to the
// working directory; a failing run writes nothing. Nothing here reads a
// committed copy, so a bench run from the repo root is how a committed
// record is refreshed, and a run anywhere else leaves the tree alone.
// Wall-clock numbers are recorded, never gated: throughput is compared in
// the repository benchmark's back-to-back parent/change pairs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>

#include "util/json.h"
#include "util/result.h"

namespace origin::bench {

inline bool write_text(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
  if (out) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

inline util::Result<util::Json> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::make_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return util::Json::parse(buffer.str());
}

// Which machine and build produced a report; no check reads it.
inline util::Json host_stamp() {
  util::Json::Object host;
  host["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  host["compiler"] = ORIGIN_COMPILER;
  host["build_type"] = ORIGIN_BUILD_TYPE;
  return util::Json(std::move(host));
}

// One exact value of the work a bench did, and the value it must equal.
struct Pin {
  std::string field;
  util::Json fresh;
  util::Json pinned;
};

// Prints a FAIL line naming each field whose fresh value differs from its
// pinned one; returns whether every pin held.
inline bool pins_hold(std::initializer_list<Pin> pins) {
  bool held = true;
  for (const Pin& pin : pins) {
    const std::string fresh = pin.fresh.dump();
    const std::string pinned = pin.pinned.dump();
    if (fresh == pinned) continue;
    std::fprintf(stderr, "FAIL: %s: pinned %s, got %s\n", pin.field.c_str(),
                 pinned.c_str(), fresh.c_str());
    held = false;
  }
  return held;
}

// Pins taken from a bench's default run hold only at its default --sites
// and --seed (`at_default`); at any other size they are not checked.
inline bool default_run_pins_hold(bool at_default,
                                  std::initializer_list<Pin> pins) {
  if (!at_default) {
    std::printf("pins not checked: they hold at the default --sites and "
                "--seed only\n");
    return true;
  }
  const bool held = pins_hold(pins);
  std::printf("pins of the default run: %s\n", held ? "hold" : "MOVED");
  return held;
}

// Returns the bench's exit status: 0 when `passed` (the bench's own in-run
// checks) and BENCH_<name>.json was written to the working directory.
inline int publish(util::Json doc, bool passed, const std::string& name) {
  if (!passed) return 1;  // its FAIL lines say why; nothing is written
  const std::string file = "BENCH_" + name + ".json";
  doc["host"] = host_stamp();
  if (!write_text(file, doc.dump(2) + "\n")) return 1;
  std::printf("wrote %s\n", file.c_str());
  return 0;
}

}  // namespace origin::bench
