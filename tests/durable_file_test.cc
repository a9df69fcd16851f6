// Crash-consistent file IO (DESIGN.md §15): rename-is-commit semantics,
// torn-temp sweeping, the fsynced append-only journal, and the CRC-64/XZ
// primitive everything above it trusts.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "util/crash.h"
#include "util/durable_file.h"
#include "util/hash.h"

namespace origin {
namespace {

class DurableFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Each ctest case is its own process and may run concurrently in the
    // same working directory; a shared literal name would let one case's
    // SetUp sweep a sibling's live directory mid-run.
    dir_ = "durable_file_test_dir_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    util::crash::disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// CRC-64/XZ against published reference vectors; chaining must compose.
TEST_F(DurableFileTest, Crc64ReferenceVectors) {
  EXPECT_EQ(util::crc64("123456789"), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(util::crc64(""), 0u);
  EXPECT_EQ(util::crc64("a"), 0x330284772E652B05ULL);
  EXPECT_EQ(util::crc64("abc"), 0x2CD8094A1A277627ULL);
  // Incremental == one-shot: crc(a+b) == crc(b, seed=crc(a)).
  const std::uint64_t one_shot = util::crc64("123456789");
  const std::uint64_t chained = util::crc64("6789", util::crc64("12345"));
  EXPECT_EQ(chained, one_shot);
  // Sensitivity: one flipped bit changes the digest.
  EXPECT_NE(util::crc64("123456788"), one_shot);
}

// The span overload folds eight bytes per step; it must equal the
// one-byte-at-a-time definition for every block/tail split and alignment,
// and chain like it.
TEST_F(DurableFileTest, Crc64SlicedMatchesByteLoop) {
  std::vector<std::uint8_t> buffer(64 + 8);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::uint8_t& byte : buffer) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<std::uint8_t>(state >> 56);
  }
  auto byte_loop = [](std::span<const std::uint8_t> data, std::uint64_t seed) {
    std::uint64_t crc = ~seed;
    for (const std::uint8_t byte : data) crc = util::crc64_update(crc, byte);
    return ~crc;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, length);
      EXPECT_EQ(util::crc64(data), byte_loop(data, 0))
          << "offset " << offset << " length " << length;
      EXPECT_EQ(util::crc64(data, 0x0123456789ABCDEFULL),
                byte_loop(data, 0x0123456789ABCDEFULL))
          << "offset " << offset << " length " << length;
      for (std::size_t split = 0; split <= length; ++split) {
        EXPECT_EQ(util::crc64(data.subspan(split),
                              util::crc64(data.first(split))),
                  util::crc64(data))
            << "offset " << offset << " length " << length << " split "
            << split;
      }
    }
  }
  const std::string_view digits = "123456789";
  const std::vector<std::uint8_t> check(digits.begin(), digits.end());
  EXPECT_EQ(util::crc64(check), 0x995DC9BBDF1939FAULL);
}

TEST_F(DurableFileTest, WriteReadRoundTrip) {
  const std::string file = path("data.bin");
  ASSERT_TRUE(util::durable_write_file(file, std::string_view("hello")).ok());
  auto bytes = util::read_file(file);
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  EXPECT_EQ(util::as_string_view(bytes.value()), "hello");

  // Overwrite is atomic replacement, not append.
  ASSERT_TRUE(util::durable_write_file(file, std::string_view("x")).ok());
  auto replaced = util::read_file(file);
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(util::as_string_view(replaced.value()), "x");

  // No temp file survives a successful commit.
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

TEST_F(DurableFileTest, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(util::read_file(path("missing.bin")).ok());
  EXPECT_FALSE(util::remove_file(path("missing.bin")).ok());
  // Writing under a path whose parent is a *file* cannot succeed.
  ASSERT_TRUE(util::durable_write_file(path("f"), std::string_view("x")).ok());
  EXPECT_FALSE(
      util::durable_write_file(path("f/child"), std::string_view("x")).ok());
}

// Soft crash at mid-write: the temp is torn, the final path untouched; the
// sweep then removes the garbage.
TEST_F(DurableFileTest, MidWriteCrashLeavesOnlyATornTemp) {
  const std::string file = path("shard.bin");
  ASSERT_TRUE(util::durable_write_file(file, std::string_view("old")).ok());

  util::crash::arm("durable.mid_write", 1, /*soft=*/true);
  const std::string payload(1024, 'n');
  EXPECT_FALSE(util::durable_write_file(file, std::string_view(payload)).ok());
  EXPECT_FALSE(util::crash::armed());

  // Commit never happened: the old bytes are intact, the temp is torn.
  auto bytes = util::read_file(file);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(util::as_string_view(bytes.value()), "old");
  ASSERT_TRUE(std::filesystem::exists(file + ".tmp"));
  EXPECT_LT(std::filesystem::file_size(file + ".tmp"), payload.size());

  auto swept = util::sweep_stale_temps(dir_);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 1u);
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

// Soft crash at pre-rename: the temp is complete but uncommitted — readers
// of the final path still see the old bytes, and the sweep removes it.
TEST_F(DurableFileTest, PreRenameCrashNeverExposesNewBytes) {
  const std::string file = path("shard.bin");
  ASSERT_TRUE(util::durable_write_file(file, std::string_view("old")).ok());

  util::crash::arm("durable.pre_rename", 1, /*soft=*/true);
  EXPECT_FALSE(util::durable_write_file(file, std::string_view("new")).ok());

  auto bytes = util::read_file(file);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(util::as_string_view(bytes.value()), "old");
  EXPECT_TRUE(std::filesystem::exists(file + ".tmp"));
  auto swept = util::sweep_stale_temps(dir_);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 1u);
}

// Soft crash at post-rename: the commit already happened — the new bytes
// are durable even though the caller saw an error (its follow-up
// bookkeeping did not run).
TEST_F(DurableFileTest, PostRenameCrashCommitsTheBytes) {
  const std::string file = path("shard.bin");
  util::crash::arm("durable.post_rename", 1, /*soft=*/true);
  EXPECT_FALSE(util::durable_write_file(file, std::string_view("new")).ok());

  auto bytes = util::read_file(file);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(util::as_string_view(bytes.value()), "new");
  EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));
}

// The k-th hit fires, not the first: count selects the crash site.
TEST_F(DurableFileTest, CrashPointCountSelectsTheKthHit) {
  util::crash::arm("durable.pre_rename", 3, /*soft=*/true);
  EXPECT_TRUE(util::durable_write_file(path("a"), std::string_view("1")).ok());
  EXPECT_TRUE(util::durable_write_file(path("b"), std::string_view("2")).ok());
  EXPECT_FALSE(util::durable_write_file(path("c"), std::string_view("3")).ok());
  // One-shot: once fired it disarms; later writes succeed.
  EXPECT_TRUE(util::durable_write_file(path("d"), std::string_view("4")).ok());
}

// Non-matching point names never fire.
TEST_F(DurableFileTest, CrashPointMatchesByName) {
  util::crash::arm("some.other.point", 1, /*soft=*/true);
  EXPECT_TRUE(util::durable_write_file(path("a"), std::string_view("1")).ok());
  EXPECT_TRUE(util::crash::armed());
  util::crash::disarm();
  EXPECT_FALSE(util::crash::armed());
}

TEST_F(DurableFileTest, SweepIgnoresRealFilesAndMissingDirs) {
  ASSERT_TRUE(util::durable_write_file(path("keep.ocs"),
                                       std::string_view("data")).ok());
  ASSERT_TRUE(util::durable_write_file(path("keep.tmp.not"),
                                       std::string_view("data")).ok());
  auto swept = util::sweep_stale_temps(dir_);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path("keep.ocs")));

  auto missing = util::sweep_stale_temps(path("no/such/dir"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value(), 0u);
}

TEST_F(DurableFileTest, DurableLogAppendsSurviveReopen) {
  const std::string file = path("journal.ocm");
  {
    auto log = util::DurableLog::open(file);
    ASSERT_TRUE(log.ok()) << log.error().message;
    ASSERT_TRUE(log.value().append(util::from_string("aaa")).ok());
    ASSERT_TRUE(log.value().append(util::from_string("bb")).ok());
  }
  {
    // Reopen appends, never truncates.
    auto log = util::DurableLog::open(file);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().append(util::from_string("c")).ok());
    EXPECT_EQ(log.value().path(), file);
    EXPECT_TRUE(log.value().is_open());
    log.value().close();
    EXPECT_FALSE(log.value().is_open());
    EXPECT_FALSE(log.value().append(util::from_string("x")).ok());
  }
  auto bytes = util::read_file(file);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(util::as_string_view(bytes.value()), "aaabbc");
}

TEST_F(DurableFileTest, DurableLogMoveTransfersOwnership) {
  auto log = util::DurableLog::open(path("journal.ocm"));
  ASSERT_TRUE(log.ok());
  util::DurableLog moved = std::move(log).value();
  EXPECT_TRUE(moved.is_open());
  util::DurableLog assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.is_open());
  EXPECT_TRUE(assigned.is_open());
  ASSERT_TRUE(assigned.append(util::from_string("z")).ok());
}

}  // namespace
}  // namespace origin
