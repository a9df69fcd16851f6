// The benchmark's own checks: the traced corpus pipeline is the pipeline
// it claims to time, and the wire workload is deterministic whether or
// not its bytes are captured.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "corpus_workload.h"
#include "trace.h"
#include "wire_workload.h"

namespace perfbench {
namespace {

CorpusConfig small_corpus(std::size_t threads, const std::string& spill) {
  CorpusConfig config;
  config.seed = 7;
  config.sites = 300;
  config.threads = threads;
  config.sites_per_shard = 48;
  config.spill_dir = spill;
  return config;
}

std::string fresh_dir(const std::string& name) {
  std::filesystem::remove_all(name);
  std::filesystem::create_directories(name);
  return name;
}

class TracedCorpus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TracedCorpus, WritePathMatchesStreamingCorpusRun) {
  const CorpusConfig config =
      small_corpus(GetParam(), fresh_dir("perfbench_test_stream"));
  auto corpus = build_corpus(config);
  auto streamed = run_streaming(*corpus, streaming_options(config), nullptr);
  ASSERT_TRUE(streamed.ok()) << streamed.error().message;

  CorpusConfig traced_config = config;
  traced_config.spill_dir = fresh_dir("perfbench_test_traced");
  Tracer tracer;
  auto traced = run_traced(*corpus, traced_config, nullptr, nullptr, tracer);
  ASSERT_TRUE(traced.ok()) << traced.error().message;

  std::string why;
  EXPECT_TRUE(same_output(traced->output, streamed->output, &why)) << why;
  EXPECT_EQ(traced->output.stats.snapshot_bytes,
            streamed->output.stats.snapshot_bytes);
  EXPECT_GT(tracer.count("browser.page_load_busy"), 0u);
  EXPECT_GT(tracer.count("web.har_digest"), 0u);

  auto reference = reference_output(*corpus, config, false);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  EXPECT_TRUE(same_output(*reference, streamed->output, &why)) << why;
}

TEST_P(TracedCorpus, ReadPathMatchesResumedRun) {
  const CorpusConfig config =
      small_corpus(GetParam(), fresh_dir("perfbench_test_replay"));
  auto corpus = build_corpus(config);
  origin::dataset::StreamingOptions options = streaming_options(config);
  options.keep_shards = true;
  auto primed = run_streaming(*corpus, options, nullptr);
  ASSERT_TRUE(primed.ok()) << primed.error().message;

  options.resume = true;
  auto observer = make_observer(*corpus, config);
  auto resumed = run_streaming(*corpus, options, observer.get());
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->recovery.shards_reused, resumed->output.stats.shards);
  EXPECT_EQ(resumed->recovery.shards_regenerated, 0u);

  auto traced_observer = make_observer(*corpus, config);
  Tracer tracer;
  auto traced = run_traced(*corpus, config, &primed->shards,
                           traced_observer.get(), tracer);
  ASSERT_TRUE(traced.ok()) << traced.error().message;
  std::string why;
  EXPECT_TRUE(same_output(traced->output, resumed->output, &why)) << why;
  EXPECT_EQ(tracer.count("browser.page_load_busy"), 0u);

  auto reference = reference_output(*corpus, config, true);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  EXPECT_TRUE(same_output(*reference, resumed->output, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Threads, TracedCorpus, ::testing::Values(1u, 4u));

WireSetup small_wire_setup() {
  WireConfig config;
  config.seed = 7;
  config.corpus_sites = 600;
  config.worlds = 4;
  config.pages_per_world = 4;
  WireSetup setup;
  std::string error;
  EXPECT_TRUE(build_wire_setup(config, nullptr, &setup, &error)) << error;
  return setup;
}

TEST(WireOrigin, SameSeedGivesIdenticalLoadsAndLedgers) {
  WireSetup first = small_wire_setup();
  WireSetup second = small_wire_setup();
  ASSERT_EQ(first.worlds.size(), second.worlds.size());
  for (std::size_t w = 0; w < first.worlds.size(); ++w) {
    const WorldOutput a = run_world(first.corpus->env(), first.worlds[w], {});
    const WorldOutput b =
        run_world(second.corpus->env(), second.worlds[w], {});
    EXPECT_TRUE(a.same_outcome(b)) << "world " << w;
    EXPECT_EQ(a.sim_events, b.sim_events);
    for (const LoadCounts& load : a.loads) {
      EXPECT_TRUE(load.complete);
      EXPECT_TRUE(load.success);
    }
    EXPECT_GT(a.origin_frames_sent, 0u);
  }
}

TEST(WireOrigin, CaptureMiddleboxChangesNoOutput) {
  WireSetup setup = small_wire_setup();
  for (const auto& pages : setup.worlds) {
    const WorldOutput plain = run_world(setup.corpus->env(), pages, {});
    WireTraceCounts counts;
    Tracer tracer;
    WorldRunOptions options;
    options.tracer = &tracer;
    options.trace = &counts;
    const WorldOutput captured = run_world(setup.corpus->env(), pages, options);
    EXPECT_TRUE(captured.same_outcome(plain));
    EXPECT_EQ(captured.sim_events, plain.sim_events);
    EXPECT_EQ(counts.decode_errors, 0u);
    EXPECT_GT(counts.frames, 0u);
    EXPECT_GT(counts.header_blocks, 0u);
    EXPECT_EQ(counts.handler_calls,
              plain.server_requests - plain.responses_421);
    EXPECT_EQ(tracer.count("netsim.run"), 1u);
  }
}

}  // namespace
}  // namespace perfbench
