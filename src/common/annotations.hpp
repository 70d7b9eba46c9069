// Clang thread-safety annotations and capability-annotated mutex
// wrappers — the compile-time half of the codebase's race defense.  The
// dynamic half (TSan CI) only checks the interleavings the test suite
// happens to execute; these annotations reject lock-discipline bugs on
// every build, for every path, before anything runs.
//
// Under Clang, `-Wthread-safety` (promoted to an error in the
// static-analysis CI job) verifies that every access to a
// DML_GUARDED_BY member happens with its capability held and that every
// DML_REQUIRES function is called under the right lock.  Under GCC (the
// local toolchain) every macro expands to nothing and the wrappers are
// plain std::mutex / std::condition_variable shims, so the annotations
// cost nothing where they cannot be checked.
//
// Style notes for annotated code:
//  - Guarded members name their capability at the declaration:
//      std::queue<Task> queue_ DML_GUARDED_BY(mutex_);
//  - Private helpers that assume the lock is already held are annotated
//    DML_REQUIRES(mutex_) instead of re-locking.
//  - Condition-variable waits use explicit `while` loops rather than
//    predicate lambdas: the analysis does not propagate capabilities
//    into lambda bodies, so guarded reads must stay in the enclosing
//    function.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define DML_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DML_THREAD_ANNOTATION
#define DML_THREAD_ANNOTATION(x)  // not Clang: annotations vanish
#endif

/// Declares a type to be a capability (lockable).
#define DML_CAPABILITY(x) DML_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires in its constructor and releases
/// in its destructor.
#define DML_SCOPED_CAPABILITY DML_THREAD_ANNOTATION(scoped_lockable)
/// Member is readable/writable only while `x` is held.
#define DML_GUARDED_BY(x) DML_THREAD_ANNOTATION(guarded_by(x))
/// Pointee is guarded by `x` (the pointer itself is not).
#define DML_PT_GUARDED_BY(x) DML_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function must be called with the listed capabilities held.
#define DML_REQUIRES(...) \
  DML_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function must be called with the listed capabilities NOT held
/// (deadlock prevention: it will acquire them itself).
#define DML_EXCLUDES(...) DML_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function acquires the listed capabilities and holds them on return.
#define DML_ACQUIRE(...) \
  DML_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define DML_RELEASE(...) \
  DML_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `value`.
#define DML_TRY_ACQUIRE(value, ...) \
  DML_THREAD_ANNOTATION(try_acquire_capability(value, __VA_ARGS__))
/// Function returns a reference to the given capability.
#define DML_RETURN_CAPABILITY(x) DML_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use needs a comment saying why the analysis
/// cannot see the invariant.
#define DML_NO_THREAD_SAFETY_ANALYSIS \
  DML_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---- dml_lint annotations ----------------------------------------------
// Markers consumed by tools/lint/dml_lint (DESIGN.md §15).  They carry
// project contracts no generic analysis understands: which functions are
// on the serving hot path, which run on a reactor thread, and what the
// cross-class lock acquisition order is.  Under Clang the function
// markers also emit an `annotate` attribute so the AST engine can read
// them without re-lexing; under GCC they vanish (same policy as the
// thread-safety macros above).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(annotate)
#define DML_LINT_ANNOTATION(x) __attribute__((annotate(x)))
#endif
#endif
#ifndef DML_LINT_ANNOTATION
#define DML_LINT_ANNOTATION(x)  // not Clang: annotations vanish
#endif

/// Serving hot path: the function body must not allocate.  dml_lint
/// (check hot-alloc) flags `new`, malloc-family calls, and allocating
/// container mutations lexically inside the marked definition.  Place
/// between the return type and the name of the *definition*:
///   void DML_HOT Predictor::observe_batch(...) { ... }
#define DML_HOT DML_LINT_ANNOTATION("dml::hot")

/// Runs on a net::Reactor event-loop thread: the body must never block.
/// dml_lint (check reactor-blocking) flags CondVar::wait, sleeps,
/// blocking file I/O, and direct engine calls inside the marked
/// definition.  epoll_wait itself lives in Reactor::run, which is the
/// loop, not a callback — it is deliberately unmarked.
#define DML_REACTOR_CONTEXT DML_LINT_ANNOTATION("dml::reactor_context")

/// Escape hatch for an allocation inside a DML_HOT body.  Must carry a
/// non-empty string-literal rationale and sit on its own line directly
/// above the allocating statement it excuses (it covers exactly one
/// following statement line).  The static_assert forces the rationale
/// to be a real string literal on every compiler.
#define DML_ALLOW_ALLOC(reason) static_assert(true, "" reason "")

/// Declared lock-order edges for dml_lint's acquired-before graph
/// (check lock-order).  Arguments are canonical lock names — the unique
/// member name of the Mutex, as a string — so edges can cross classes
/// without the declaration-order gymnastics clang's acquired_before
/// attribute needs.  Attach to the Mutex member declaration:
///   common::Mutex sub_mutex DML_ACQUIRED_BEFORE("out_mutex");
/// Every lexically nested MutexLock pair must be covered by a declared
/// edge, and the declared graph must stay acyclic.
#define DML_ACQUIRED_BEFORE(...)
#define DML_ACQUIRED_AFTER(...)

namespace dml::common {

/// std::mutex with a capability annotation, so members can be declared
/// DML_GUARDED_BY(mutex_) and the analysis can track lock/unlock.
class DML_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DML_ACQUIRE() { mutex_.lock(); }
  void unlock() DML_RELEASE() { mutex_.unlock(); }
  bool try_lock() DML_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mutex_;
};

/// Scoped lock over a Mutex (the annotated replacement for
/// std::scoped_lock / std::unique_lock).  Supports early release —
/// `unlock()` before a notify — and re-acquisition; the destructor
/// releases only if still held.
class DML_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) DML_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  ~MutexLock() DML_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Early release (e.g. unlock before notifying a condition variable).
  void unlock() DML_RELEASE() { lock_.unlock(); }
  /// Re-acquire after unlock().
  void lock() DML_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable bound to MutexLock.  wait() atomically
/// releases the lock while blocked and re-acquires before returning; to
/// the analysis (as to the caller) the capability is held across the
/// call.  Use explicit `while (!predicate) cv.wait(lock);` loops — see
/// the file comment.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dml::common
