// The bench report path (bench/report.h): a failing run writes nothing, so
// a bench run from the repo root cannot touch the committed record there,
// and a passing run replaces it with a host-stamped report.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "report.h"
#include "util/json.h"

namespace origin {
namespace {

namespace fs = std::filesystem;

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
    fs::create_directories(root_);
    saved_cwd_ = fs::current_path();
    fs::current_path(root_);
  }
  void TearDown() override {
    fs::current_path(saved_cwd_);
    fs::remove_all(root_);
  }

  fs::path root_;
  fs::path saved_cwd_;
};

// The working directory already holds a BENCH_<name>.json, as the repo
// root does.
TEST_F(BenchReportTest, FailingRunWritesNothing) {
  const std::string committed = "{\"deterministic\": true}\n";
  std::ofstream("BENCH_pipeline.json") << committed;
  EXPECT_EQ(bench::publish(parse(R"({"deterministic": false})"), false,
                           "pipeline"),
            1);
  EXPECT_EQ(slurp("BENCH_pipeline.json"), committed);
  EXPECT_EQ(bench::publish(parse("{}"), false, "model"), 1);
  EXPECT_FALSE(fs::exists("BENCH_model.json"));

  EXPECT_EQ(bench::publish(parse(R"({"deterministic": true, "pages": 2})"),
                           true, "pipeline"),
            0);
  const util::Json report = parse(slurp("BENCH_pipeline.json"));
  EXPECT_EQ(report["pages"].double_or(0), 2);
  EXPECT_NE(slurp("BENCH_pipeline.json"), committed);
}

TEST_F(BenchReportTest, ReportCarriesTheHostStamp) {
  ASSERT_EQ(bench::publish(parse("{}"), true, "pipeline"), 0);
  const util::Json report = parse(slurp("BENCH_pipeline.json"));
  EXPECT_GT(report["host"]["nproc"].double_or(0), 0);
  EXPECT_FALSE(report["host"]["compiler"].string_or("").empty());
  EXPECT_TRUE(report["host"]["build_type"].is_string());
}

}  // namespace
}  // namespace origin
