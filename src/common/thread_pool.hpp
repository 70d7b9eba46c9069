// Fixed-size worker pool with a blocking task queue and a parallel_for
// helper.  The paper notes (Table 5, Observation #8) that rule generation
// "can be conducted in parallel while the production system is in
// operation"; retraining builds run on this pool, and inside a build the
// meta-learner trains its base learners side by side and Apriori chunks
// its support counting across the same workers.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace dml {

class ThreadPool {
 public:
  /// `num_threads == 0` selects hardware_concurrency() (at least 1).
  /// Worker i is named "dml-pool-<i>".
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when it completes.  A task must
  /// not block on another task's future: every worker could end up
  /// waiting on a task queued behind it.  (A task may call parallel_for,
  /// which never waits on a queued chunk.)
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) DML_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      common::MutexLock lock(mutex_);
      queue_.emplace([task]() mutable { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the pool (the calling thread also works).  Blocks until all
  /// iterations complete.  fn must be safe to invoke concurrently.
  /// If fn throws, remaining iterations are abandoned (best effort), every
  /// chunk is still joined, and the exception of the lowest-indexed
  /// failing chunk is rethrown on the calling thread.
  ///
  /// Safe from a pool task, at any nesting depth and pool load: the
  /// caller and up to size() helper tasks claim chunks from one counter,
  /// the caller keeps claiming until none is left, and then it waits
  /// only for chunks another thread is already running — never for one
  /// still queued.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Upper bound on the chunk count parallel_for_ranges uses: pool size
  /// + 1, since the caller works too.  Size per-chunk accumulation
  /// buffers with this.
  std::size_t max_parallel_chunks() const { return size() + 1; }

  /// Range form of parallel_for: partitions [begin, end) into at most
  /// max_parallel_chunks() contiguous ranges and runs
  /// fn(chunk_index, lo, hi) once per range — one task dispatch per
  /// chunk rather than per index, so fine-grained loops (Apriori
  /// support counting) can keep per-chunk state without paying a
  /// std::function call per element.  chunk_index values are dense in
  /// [0, max_parallel_chunks()), and each runs exactly once, on one
  /// thread.  Exception propagation and nesting match parallel_for:
  /// every chunk is joined before returning and the lowest-indexed
  /// failing chunk's exception is rethrown.
  void parallel_for_ranges(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Shared process-wide pool sized to the machine.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  common::CondVar cv_;
  std::queue<std::function<void()>> queue_ DML_GUARDED_BY(mutex_);
  bool stopping_ DML_GUARDED_BY(mutex_) = false;
};

}  // namespace dml
