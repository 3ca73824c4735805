// Fixed-size worker pool with a parallel index loop.
//
// The evaluation sweeps (computation × strategy × maxCS) are embarrassingly
// parallel and dominate wall-clock time, so the harness shards them across
// hardware threads. The pool is deliberately simple: a mutex-protected deque
// of std::move_only_function-style tasks; no work stealing. Sweep tasks are
// coarse (whole computations), so queue contention is negligible.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ct {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  /// Equivalent to shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw; exceptions escaping a task
  /// terminate the program (there is nowhere sensible to deliver them).
  /// Submitting after shutdown() is a checked error.
  void submit(std::function<void()> task);

  /// Like submit(), but races cleanly with shutdown(): returns true when the
  /// task was accepted (it WILL run before shutdown() returns) and false
  /// once shutdown has begun (the task will never run). Producers that live
  /// on other threads than the pool's owner (the shard router's fan-out)
  /// use this instead of checking stopped() first — that check would be
  /// stale by the time submit() ran.
  bool try_submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Drains outstanding tasks, then joins the workers. Idempotent, safe to
  /// call from any non-worker thread; after it returns no task is running
  /// and further submit() calls fail their check (try_submit() returns
  /// false). Concurrent callers block until the drain completes, so the
  /// post-condition holds for every caller, not just the first. Lets owners
  /// (the query broker) sequence "stop serving, then tear down state the
  /// tasks read".
  void shutdown();

  /// True once shutdown() has begun; submissions are no longer accepted.
  bool stopped() const;

  /// Tasks accepted since construction: the pool's cross-thread handoffs,
  /// an exact work counter for callers that should hand off none.
  std::uint64_t submitted() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::condition_variable cv_joined_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  std::uint64_t submitted_ = 0;
  bool stop_ = false;
  bool join_started_ = false;
  bool join_done_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for i in [0, n) across the pool and blocks until done.
/// Indices are handed out in contiguous blocks to preserve locality.
/// `body` must be safe to invoke concurrently for distinct indices.
void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& body);

/// Convenience overload using a transient pool with hardware concurrency.
void parallel_for_index(std::size_t n,
                        const std::function<void(std::size_t)>& body);

}  // namespace ct
