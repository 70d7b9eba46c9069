#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "common/thread_name.hpp"

namespace dml {

namespace {

/// One parallel_for_ranges call, shared by its caller and helper tasks.
/// Reference-counted because it outlives the call: a helper dequeued
/// after every chunk was claimed still reads `next`.  `fn` points into
/// the caller's frame and is dereferenced only for a claimed chunk; the
/// caller does not return before every claimed chunk is done.
struct RangeJob {
  using Fn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  RangeJob(const Fn& body, std::size_t lo, std::size_t hi,
           std::size_t chunk_size)
      : fn(&body),
        begin(lo),
        end(hi),
        chunk(chunk_size),
        num_chunks((hi - lo + chunk_size - 1) / chunk_size) {}

  /// Claims and runs chunks until none is left.
  void run_chunks() {
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= num_chunks) return;
      run_chunk(index);
    }
  }

  void run_chunk(std::size_t index) {
    std::exception_ptr caught;
    // Chunks not yet started are abandoned after a failure (best
    // effort); a running chunk finishes its range.
    if (!failed.load()) {
      const std::size_t lo = begin + index * chunk;
      try {
        (*fn)(index, lo, std::min(end, lo + chunk));
      } catch (...) {
        failed.store(true);
        caught = std::current_exception();
      }
    }
    common::MutexLock lock(mutex);
    // Keyed by chunk index, so the *first* failing chunk wins
    // deterministically.
    if (caught && index < error_chunk) {
      error_chunk = index;
      error = std::move(caught);
    }
    if (++done == num_chunks) finished.notify_all();
  }

  const Fn* fn;
  const std::size_t begin;
  const std::size_t end;
  const std::size_t chunk;
  const std::size_t num_chunks;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  common::Mutex mutex;
  common::CondVar finished;
  std::size_t done DML_GUARDED_BY(mutex) = 0;
  std::size_t error_chunk DML_GUARDED_BY(mutex) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr error DML_GUARDED_BY(mutex);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      common::name_this_thread("dml-pool-" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    common::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      common::MutexLock lock(mutex_);
      // Explicit loop, not a predicate lambda: thread-safety analysis
      // does not see capabilities inside lambda bodies.
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_ranges(begin, end,
                      [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

void ThreadPool::parallel_for_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t max_chunks = std::min(n, max_parallel_chunks());
  if (max_chunks <= 1) {
    fn(0, begin, end);
    return;
  }
  const auto job = std::make_shared<RangeJob>(
      fn, begin, end, (n + max_chunks - 1) / max_chunks);
  // One helper per chunk beyond the caller's first.  A helper that finds
  // every chunk claimed returns at once, so a busy pool costs only the
  // dequeue: the caller runs whatever nobody else has picked up.
  const std::size_t helpers = job->num_chunks - 1;
  {
    common::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace([job] { job->run_chunks(); });
    }
  }
  for (std::size_t i = 0; i < helpers; ++i) cv_.notify_one();

  job->run_chunks();
  // Every chunk is claimed now, so each one not yet done is running on
  // some thread: waiting here can never wait on a queued chunk.
  common::MutexLock lock(job->mutex);
  while (job->done < job->num_chunks) job->finished.wait(lock);
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dml
