#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <latch>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace dml {
namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversExactRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(0, touched.size(),
                    [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(41, 42, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long long> partial(10000, 0);
  pool.parallel_for(0, partial.size(), [&](std::size_t i) {
    partial[i] = static_cast<long long>(i);
  });
  const long long total =
      std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, 9999LL * 10000 / 2);
}

TEST(ThreadPool, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [](std::size_t i) {
                          if (i == 357) throw std::runtime_error("chunk fail");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsOneOfTheThrownExceptions) {
  // Several chunks throw; the caller must see exactly one of the thrown
  // exceptions (the lowest-index chunk among those that threw), with its
  // payload intact.
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 4000, [](std::size_t i) {
      if (i % 1000 == 1) {
        throw std::runtime_error("fail at " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("fail at ", 0), 0u) << e.what();
  }
}

TEST(ThreadPool, ParallelForUsableAfterException) {
  // An exception must leave the pool (and its queue) healthy.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   0, 100, [](std::size_t) { throw std::logic_error("x"); }),
               std::logic_error);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Both workers of a 2-thread pool sit inside a parallel_for nested two
  // deep, so every helper chunk they queue waits behind busy workers.
  // The callers run what nobody picks up, and every call completes with
  // each index covered exactly once.
  constexpr std::size_t kTasks = 2, kOuter = 6, kInner = 40;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> touched(kTasks * kOuter * kInner);
  std::latch both_running(kTasks);
  std::vector<std::future<void>> futures;
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.submit([&, t] {
      both_running.arrive_and_wait();
      pool.parallel_for(0, kOuter, [&](std::size_t i) {
        pool.parallel_for(0, kInner, [&](std::size_t j) {
          ++touched[(t * kOuter + i) * kInner + j];
        });
      });
    }));
  }
  for (auto& f : futures) f.get();
  for (const auto& count : touched) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedExceptionReachesTheOuterCaller) {
  // A chunk two levels down inside a pool task throws: the exception
  // climbs both parallel_for calls to the task's caller, and the pool
  // keeps serving afterwards.
  ThreadPool pool(2);
  auto future = pool.submit([&] {
    pool.parallel_for(0, 4, [&](std::size_t i) {
      pool.parallel_for(0, 16, [&](std::size_t j) {
        if (i == 2 && j == 5) throw std::runtime_error("nested chunk");
      });
    });
  });
  try {
    future.get();
    FAIL() << "expected the nested exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "nested chunk");
  }
  std::atomic<int> calls{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, WorkersAreNamedByIndex) {
  // Two tasks held until both run occupy both workers; each reads its
  // own thread's name back from /proc.
  ThreadPool pool(2);
  std::latch both_running(2);
  const auto own_name = [&] {
    both_running.arrive_and_wait();
    const long tid = ::syscall(SYS_gettid);
    std::ifstream comm("/proc/self/task/" + std::to_string(tid) + "/comm");
    std::string name;
    std::getline(comm, name);
    return name;
  };
  auto first = pool.submit(own_name);
  auto second = pool.submit(own_name);
  const std::set<std::string> names = {first.get(), second.get()};
  EXPECT_EQ(names, (std::set<std::string>{"dml-pool-0", "dml-pool-1"}));
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace dml
