// util::ThreadPool: correctness under contention, exception propagation,
// and the nested-region guard; util::Lane: inline fallback, ordering,
// error and join contracts. Run under the TSan preset
// (-DORIGIN_SANITIZE=thread) these tests double as the data-race gate for
// both primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace origin {
namespace {

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_GE(util::configured_thread_count(), 1u);
  EXPECT_EQ(util::resolve_thread_count(1), 1u);
  EXPECT_EQ(util::resolve_thread_count(7), 7u);
  EXPECT_EQ(util::resolve_thread_count(0), util::configured_thread_count());
}

TEST(ThreadPool, SerialPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> out(100, 0);
  pool.parallel_for_index(out.size(), [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_index(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ContendedStealBalancesSkewedWork) {
  // Heavily skewed per-index cost: a few indices dominate, so finishing in
  // reasonable time requires thieves to drain the other queues. Correctness
  // is still exact per-index output.
  util::ThreadPool pool(8);
  constexpr std::size_t kN = 2'000;
  std::vector<std::uint64_t> out(kN, 0);
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_index(kN, [&](std::size_t i) {
    std::uint64_t acc = i;
    const std::size_t spins = (i % 97 == 0) ? 200'000 : 50;
    for (std::size_t s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
    out[i] = acc;
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kN);
  // Recompute serially: parallel result must match exactly.
  for (std::size_t i = 0; i < kN; i += 191) {
    std::uint64_t acc = i;
    const std::size_t spins = (i % 97 == 0) ? 200'000 : 50;
    for (std::size_t s = 0; s < spins; ++s) acc = acc * 6364136223846793005ULL + 1;
    EXPECT_EQ(out[i], acc) << "index " << i;
  }
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_index(64, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  util::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstBodyException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_index(500,
                              [&](std::size_t i) {
                                if (i == 137) {
                                  throw std::runtime_error("body failed");
                                }
                              }),
      std::runtime_error);
  // The pool survives a failed job: the next job runs normally.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for_index(100, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPool, SerialPathPropagatesExceptionsToo) {
  util::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for_index(
                   10,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("inline failure");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForIsRejected) {
  util::ThreadPool outer(4);
  util::ThreadPool inner(2);
  std::atomic<int> nested_rejections{0};
  outer.parallel_for_index(16, [&](std::size_t) {
    try {
      inner.parallel_for_index(4, [](std::size_t) {});
    } catch (const std::logic_error&) {
      nested_rejections.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(nested_rejections.load(), 16);
}

TEST(ThreadPool, NestedRejectionAppliesOnSerialPoolsToo) {
  // The serial inline path is still a parallel region for nesting purposes:
  // determinism contracts must not depend on the configured thread count.
  util::ThreadPool outer(1);
  util::ThreadPool inner(1);
  int nested_rejections = 0;
  outer.parallel_for_index(3, [&](std::size_t) {
    try {
      inner.parallel_for_index(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      ++nested_rejections;
    }
  });
  EXPECT_EQ(nested_rejections, 3);
}

TEST(ThreadPool, LaneOfOneRunsInlineOnTheCaller) {
  util::Lane lane(1);
  std::thread::id ran_on;
  bool ran = false;
  lane.run([&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  EXPECT_TRUE(ran);  // before run() returned, without a wait()
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Inline, the task's exception leaves run() itself.
  EXPECT_THROW(lane.run([] { throw std::runtime_error("inline failure"); }),
               std::runtime_error);
  EXPECT_NO_THROW(lane.wait());
}

TEST(ThreadPool, LaneRunsOnAnotherThreadAndReturnsWhileItIsBlocked) {
  util::Lane lane(4);
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  std::thread::id ran_on;
  lane.run([&] {
    ran_on = std::this_thread::get_id();
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    finished.store(true, std::memory_order_release);
  });
  // run() returned while the task still waits for the flag.
  EXPECT_FALSE(finished.load(std::memory_order_acquire));
  release.store(true, std::memory_order_release);
  lane.wait();
  EXPECT_TRUE(finished.load(std::memory_order_acquire));
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, LaneRunWaitsForThePreviousTask) {
  // Both tasks append to one unsynchronized vector: run() must join the
  // first before starting the second, even when the first is the slower.
  util::Lane lane(4);
  std::vector<int> order;
  lane.run([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    order.push_back(1);
  });
  lane.run([&] { order.push_back(2); });
  for (int i = 3; i <= 50; ++i) lane.run([&order, i] { order.push_back(i); });
  lane.wait();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, LaneRethrowsATaskExceptionOnceAndStaysUsable) {
  util::Lane lane(2);
  lane.run([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(lane.wait(), std::runtime_error);
  EXPECT_NO_THROW(lane.wait());  // rethrown once

  // A failure joined by the next run() surfaces there; that task never
  // starts, and the lane runs the one after it normally.
  bool skipped = false;
  lane.run([] { throw std::runtime_error("task failed again"); });
  EXPECT_THROW(lane.run([&] { skipped = true; }), std::runtime_error);
  lane.wait();
  EXPECT_FALSE(skipped);

  bool ran = false;
  lane.run([&] { ran = true; });
  lane.wait();
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, LaneDestructorJoinsARunningTask) {
  std::atomic<bool> finished{false};
  {
    util::Lane lane(2);
    lane.run([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.store(true, std::memory_order_release);
    });
  }
  EXPECT_TRUE(finished.load(std::memory_order_acquire));
}

TEST(ThreadPool, LaneTaskMayFanOutOnAPool) {
  // A lane thread is outside any parallel region, so the nesting guard
  // does not reject a task's parallel_for_index.
  util::ThreadPool pool(4);
  util::Lane lane(2);
  std::atomic<std::size_t> sum{0};
  lane.run([&] {
    pool.parallel_for_index(100, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_NO_THROW(lane.wait());
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

}  // namespace
}  // namespace origin
