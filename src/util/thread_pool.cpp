#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"

namespace ct {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::unique_lock lock(mu_);
    stop_ = true;
    if (join_started_) {
      // Another thread won the race to join; waiting here keeps the
      // post-condition ("no task is running when shutdown() returns")
      // true for EVERY caller, not just the winner.
      cv_joined_.wait(lock, [this] { return join_done_; });
      return;
    }
    join_started_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
  {
    std::unique_lock lock(mu_);
    join_done_ = true;
  }
  cv_joined_.notify_all();
}

bool ThreadPool::stopped() const {
  std::unique_lock lock(mu_);
  return stop_;
}

std::uint64_t ThreadPool::submitted() const {
  std::unique_lock lock(mu_);
  return submitted_;
}

void ThreadPool::submit(std::function<void()> task) {
  CT_CHECK(task != nullptr);
  {
    std::unique_lock lock(mu_);
    CT_CHECK_MSG(!stop_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  cv_task_.notify_one();
}

bool ThreadPool::try_submit(std::function<void()> task) {
  CT_CHECK(task != nullptr);
  {
    std::unique_lock lock(mu_);
    // stop_ flips under mu_, and the workers drain the queue before
    // joining, so a task accepted here — even racing shutdown() — is
    // guaranteed to run.
    if (stop_) return false;
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  cv_task_.notify_one();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t shards = std::min(n, pool.size() * 4);
  std::atomic<std::size_t> next{0};
  const std::size_t block = (n + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    pool.submit([&next, block, n, &body] {
      for (;;) {
        const std::size_t begin = next.fetch_add(block);
        if (begin >= n) return;
        const std::size_t end = std::min(n, begin + block);
        for (std::size_t i = begin; i < end; ++i) body(i);
      }
    });
  }
  pool.wait_idle();
}

void parallel_for_index(std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  ThreadPool pool;
  parallel_for_index(pool, n, body);
}

}  // namespace ct
