// Crash-consistent file IO for the storage layer (DESIGN.md §15).
//
// Every artifact the pipeline persists (OCS1 shard snapshots, the OCM1 run
// manifest) goes through this module — enforced by origin_analyze's
// `durable-write-only` rule, which forbids raw std::ofstream/fopen writes
// in src/dataset. The discipline:
//
//   durable_write_file: write to `<path>.tmp`, fsync the temp, rename(2)
//   onto the final path, fsync the parent directory. rename is the commit
//   point — a crash at any instant leaves either the old file (or nothing)
//   or the complete new file, never a torn final file. Torn *temp* files
//   are possible and expected; sweep_stale_temps() deletes them at startup
//   and the resume logic never reads a `.tmp`.
//
//   DurableLog: append-only journal handle. Each append is a single
//   write(2) followed by fsync, so a crash can only tear the final record —
//   which the manifest reader detects by per-record CRC and drops.
//
// Crash points seeded here (util/crash.h): `durable.mid_write` (half the
// payload written, temp torn), `durable.pre_rename` (temp complete and
// synced, commit not yet done), `durable.post_rename` (committed, caller's
// follow-up bookkeeping not yet run).
//
// All functions are total: failures come back as Status/Result, never
// exceptions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace origin::util {

// Suffix of in-flight temp files; anything ending in this in a spill
// directory is garbage from a crashed run.
inline constexpr std::string_view kDurableTempSuffix = ".tmp";

// Atomically replaces `path` with `bytes` (write-temp → fsync → rename →
// fsync-dir). Creates parent directories as needed.
[[nodiscard]] Status durable_write_file(const std::string& path,
                                        std::span<const std::uint8_t> bytes);
[[nodiscard]] Status durable_write_file(const std::string& path,
                                        std::string_view text);

// Whole-file read (total; missing file is an error, not a crash).
[[nodiscard]] Result<Bytes> read_file(const std::string& path);

// Removes one file; an error names the path.
[[nodiscard]] Status remove_file(const std::string& path);

// Deletes every `*.tmp` directly inside `dir` (startup hygiene after a
// crashed run). Returns the number of temp files removed; a missing
// directory is zero, not an error.
[[nodiscard]] Result<std::size_t> sweep_stale_temps(const std::string& dir);

// Append-only journal with per-append durability. Not thread-safe: owned
// by the serial shard-commit loop.
class DurableLog {
 public:
  DurableLog() = default;
  DurableLog(DurableLog&& other) noexcept;
  DurableLog& operator=(DurableLog&& other) noexcept;
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;
  ~DurableLog();

  // Opens `path` for appending, creating it (and parents) if absent.
  [[nodiscard]] static Result<DurableLog> open(const std::string& path);

  // Appends `bytes` and fsyncs. A crash mid-append tears at most this one
  // record off the tail; nothing previously synced is at risk.
  [[nodiscard]] Status append(std::span<const std::uint8_t> bytes);

  void close();
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace origin::util
