// The bench report path (bench/report.h): every row of the gate table
// fails a run exactly past its tolerance, a missing or unparsable committed
// copy is no baseline, a smaller run gates without refreshing, a failing run
// never refreshes, and every extractor reads the real committed baselines.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "report.h"
#include "util/json.h"

namespace origin {
namespace {

namespace fs = std::filesystem;

std::string num(double value) { return util::Json(value).dump(); }

std::string model(double pages_per_sec) {
  return R"({"fused_batch": {"pages_per_sec": )" + num(pages_per_sec) + "}}";
}

std::string corpus(double eligible_sites, double sites_per_sec) {
  return R"({"eligible_sites": )" + num(eligible_sites) +
         R"(, "streamed": {"sites_per_sec": )" + num(sites_per_sec) + "}}";
}

std::string crash(double sites, double overhead_pct) {
  return R"({"sites": )" + num(sites) + R"(, "max_recovery_overhead_pct": )" +
         num(overhead_pct) + "}";
}

util::Json parse(const std::string& text) {
  auto parsed = util::Json::parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : util::Json();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bench_report_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "work");
    fs::create_directories(root_ / "committed");
    saved_cwd_ = fs::current_path();
    fs::current_path(root_ / "work");
  }
  void TearDown() override {
    fs::current_path(saved_cwd_);
    fs::remove_all(root_);
  }

  static std::string file(const bench::Gate& gate) {
    return std::string("BENCH_") + gate.name + ".json";
  }
  fs::path committed(const bench::Gate& gate) const {
    return root_ / "committed" / file(gate);
  }
  void commit(const bench::Gate& gate, const std::string& text) const {
    std::ofstream(committed(gate)) << text;
  }
  int publish(const bench::Gate& gate, const std::string& fresh,
              bool passed = true) const {
    return bench::publish(parse(fresh), passed, gate,
                          (root_ / "committed").string());
  }
  // Publishes against a committed copy holding `before`; returns the exit
  // status and whether the committed copy was refreshed.
  std::pair<int, bool> run(const bench::Gate& gate, const std::string& before,
                           const std::string& fresh, bool passed = true) {
    commit(gate, before);
    const int status = publish(gate, fresh, passed);
    return {status, slurp(committed(gate)) != before};
  }

  fs::path root_;
  fs::path saved_cwd_;
};

TEST_F(BenchReportTest, HigherIsBetterFailsJustPastTenPercent) {
  using bench::kModelGate;
  EXPECT_EQ(run(kModelGate, model(1000), model(900)), std::pair(0, true));
  EXPECT_EQ(run(kModelGate, model(1000), model(899.99)), std::pair(1, false));
  EXPECT_EQ(run(kModelGate, model(1000), model(5000)), std::pair(0, true));
}

TEST_F(BenchReportTest, CrashGateAllowsTenPointsOfOverhead) {
  using bench::kCrashGate;
  EXPECT_EQ(run(kCrashGate, crash(100, 20), crash(100, 30)),
            std::pair(0, true));
  EXPECT_EQ(run(kCrashGate, crash(100, 20), crash(100, 30.01)),
            std::pair(1, false));
  // Additive, not relative: 2 -> 11 is +450% and still passes.
  EXPECT_EQ(run(kCrashGate, crash(100, 2), crash(100, 11)),
            std::pair(0, true));
}

TEST_F(BenchReportTest, MissingCommittedFileIsNoBaseline) {
  ASSERT_FALSE(fs::exists(committed(bench::kCrashGate)));
  EXPECT_EQ(publish(bench::kCrashGate, crash(100, 1e9)), 0);
  EXPECT_EQ(slurp(committed(bench::kCrashGate)),
            slurp(file(bench::kCrashGate)));
}

TEST_F(BenchReportTest, UnparsableCommittedFileIsNoBaseline) {
  EXPECT_EQ(run(bench::kModelGate, "{\"fused_batch\": ", model(1)),
            std::pair(0, true));
  EXPECT_EQ(slurp(committed(bench::kModelGate)),
            slurp(file(bench::kModelGate)));
}

TEST_F(BenchReportTest, SmallerRunGatesButDoesNotRefresh) {
  using bench::kCorpusGate;
  using bench::kCrashGate;
  EXPECT_EQ(run(kCorpusGate, corpus(100, 10), corpus(50, 10)),
            std::pair(0, false));
  EXPECT_EQ(run(kCorpusGate, corpus(100, 10), corpus(50, 8.99)),
            std::pair(1, false));
  EXPECT_EQ(run(kCorpusGate, corpus(100, 10), corpus(100, 10)),
            std::pair(0, true));
  EXPECT_EQ(run(kCrashGate, crash(100, 20), crash(99, 20)),
            std::pair(0, false));
  EXPECT_EQ(run(kCrashGate, crash(100, 20), crash(99, 31)),
            std::pair(1, false));
  EXPECT_EQ(run(kCrashGate, crash(100, 20), crash(200, 20)),
            std::pair(0, true));
}

TEST_F(BenchReportTest, FailingRunNeverMirrors) {
  using bench::kPipelineGate;
  EXPECT_EQ(publish(kPipelineGate, R"({"deterministic": false})", false), 1);
  EXPECT_TRUE(fs::exists(file(kPipelineGate)));
  EXPECT_FALSE(fs::exists(committed(kPipelineGate)));
  EXPECT_EQ(run(kPipelineGate, "{}", R"({"deterministic": false})", false),
            std::pair(1, false));
  EXPECT_EQ(run(kPipelineGate, "{}", R"({"deterministic": true})"),
            std::pair(0, true));
  EXPECT_EQ(run(bench::kModelGate, model(1), model(2), false),
            std::pair(1, false));
}

TEST_F(BenchReportTest, ReportCarriesTheHostStamp) {
  ASSERT_EQ(publish(bench::kPipelineGate, "{}"), 0);
  const util::Json report = parse(slurp(file(bench::kPipelineGate)));
  EXPECT_GT(report["host"]["nproc"].double_or(0), 0);
  EXPECT_FALSE(report["host"]["compiler"].string_or("").empty());
  EXPECT_TRUE(report["host"]["build_type"].is_string());
}

// Every gated row reads the number the per-bench readers it replaced read
// from the committed baselines, so no gate silently switches itself off.
// Refreshing a committed baseline moves these numbers with it.
TEST_F(BenchReportTest, ExtractorsReadTheCommittedBaselines) {
  auto baseline = [](const bench::Gate& gate) {
    auto read = bench::read_json(std::string(ORIGIN_REPO_ROOT) + "/" +
                                 file(gate));
    EXPECT_TRUE(read.ok()) << file(gate);
    return read.ok() ? *read : util::Json();
  };
  auto metric = [&](const bench::Gate& gate) {
    return gate.metric(baseline(gate)).value_or(-1);
  };
  EXPECT_NEAR(metric(bench::kModelGate), 42'839.69, 0.005);
  EXPECT_NEAR(metric(bench::kCorpusGate), 4'398.54, 0.005);
  EXPECT_EQ(baseline(bench::kCorpusGate)["eligible_sites"].double_or(0),
            31'538);
  EXPECT_NEAR(metric(bench::kCrashGate), 20.945, 0.0005);
  EXPECT_EQ(baseline(bench::kCrashGate)["sites"].double_or(0), 100'000);
}

}  // namespace
}  // namespace origin
