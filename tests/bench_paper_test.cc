// The paper run (bench/paper.h) pinned as text: every table, figure and
// ablation at 2,000 sites, seed 42 (28,991 bytes), hashed whole, so any
// drift in a printed number or line fails here, as does a failed in-run
// check of the fault or overload ablation. A mismatch prints the text.
//
// A change that moves the pin on purpose regenerates bench_output.txt
// (`build/bench/bench_paper > bench_output.txt`, Release) and the Repro
// column of EXPERIMENTS.md in the same change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "paper.h"
#include "util/fnv.h"

namespace origin {
namespace {

TEST(BenchPaper, OutputDigestIsPinned) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* out = open_memstream(&buffer, &size);
  ASSERT_NE(out, nullptr);
  bench::Args args;
  args.sites = 2'000;
  args.seed = 42;
  const bool checks_held = bench::print_paper(args, out);
  ASSERT_EQ(std::fclose(out), 0);
  const std::string text(buffer, size);
  std::free(buffer);

  EXPECT_TRUE(checks_held);
  EXPECT_EQ(util::fnv1a64(text), 0x27e83b1b9a0247a5ULL) << text;
}

}  // namespace
}  // namespace origin
