// ThreadPool / BufferPool semantics: the determinism contract the parallel
// checkpoint pipeline rests on — every index runs exactly once, joins are
// ordered, errors surface deterministically, nesting cannot deadlock, and
// worker count never changes results.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/threadpool.hpp"

namespace ckpt::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ThreadPool, WorkerCountIsClampedToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).worker_count(), 1u);
  EXPECT_EQ(ThreadPool(1).worker_count(), 1u);
  EXPECT_EQ(ThreadPool(5).worker_count(), 5u);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, OrderedJoinGivesIdenticalResultsAcrossWorkerCounts) {
  auto compute = [](unsigned workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(1000);
    pool.run(out.size(), [&](std::size_t i) { out[i] = i * i + 17 * i; });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(8));
}

TEST(ThreadPool, LowestIndexExceptionWinsRegardlessOfScheduling) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.run(64, [&](std::size_t i) {
        if (i == 7 || i == 55) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7");
    }
  }
}

TEST(ThreadPool, AllIndicesStillRunWhenOneThrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.run(hits.size(),
                        [&](std::size_t i) {
                          hits[i].fetch_add(1);
                          if (i == 3) throw std::runtime_error("x");
                        }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedRunFromATaskExecutesInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t) {
    pool.run(16, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::uint64_t total = 0;
  for (int job = 0; job < 100; ++job) {
    std::vector<std::uint64_t> out(17);
    pool.run(out.size(), [&](std::size_t i) { out[i] = i; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 100u * (16u * 17u / 2u));
}

TEST(ThreadPool, ParallelForFallsBackToInlineWithoutAPool) {
  std::vector<int> out(10, 0);
  parallel_for(nullptr, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(BufferPool, RetainsCapacityAcrossAcquireRelease) {
  BufferPool pool;
  std::vector<std::byte> buffer = pool.acquire();
  buffer.resize(1 << 20);
  const std::size_t capacity = buffer.capacity();
  pool.release(std::move(buffer));
  EXPECT_EQ(pool.pooled(), 1u);

  std::vector<std::byte> again = pool.acquire();
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), capacity);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BufferPool, DropsZeroCapacityAndBoundsRetention) {
  BufferPool pool;
  pool.release({});  // nothing worth keeping
  EXPECT_EQ(pool.pooled(), 0u);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> buffer(16);
    pool.release(std::move(buffer));
  }
  EXPECT_LE(pool.pooled(), 64u);
}

}  // namespace
}  // namespace ckpt::util
