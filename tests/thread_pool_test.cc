// Unit tests for the worker pool behind sqleqd's request execution.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace sqleq {
namespace {

TEST(ThreadPool, PoolIsReusableAcrossCalls) {
  // Rounds of tasks, each awaited before the next is submitted. The counter
  // outlives the pool, whose destructor joins the workers.
  std::atomic<size_t> done{0};
  ThreadPool pool(4);
  for (size_t round = 1; round <= 50; ++round) {
    for (int i = 0; i < 17; ++i) {
      pool.Submit([&done] {
        done.fetch_add(1);
        done.notify_one();
      });
    }
    for (size_t seen = done.load(); seen < round * 17; seen = done.load()) {
      done.wait(seen);
    }
  }
  EXPECT_EQ(done.load(), 50u * 17u);
}

TEST(ThreadPool, SubmittedTasksRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor completes pending tasks before joining
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });  // inline, no data race possible
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace sqleq
