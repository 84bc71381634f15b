#include "common/thread_pool.h"

#include <algorithm>

namespace vfps {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (num_threads() <= 1 || n == 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Dynamic scheduling: every participant (workers + the calling thread)
  // claims the next unprocessed index from a shared cursor, which
  // load-balances uneven iteration costs (e.g. per-query Fagin depth).
  // The caller always participates, so even if every worker is stuck behind
  // other tasks the loop completes — this is what makes nested ParallelFor
  // deadlock-free.
  std::atomic<size_t> cursor{begin};
  const size_t helpers = std::min(num_threads(), n - 1);
  Latch latch(helpers);
  for (size_t w = 0; w < helpers; ++w) {
    Submit([&cursor, &latch, &fn, end] {
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < end;
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      latch.CountDown();
    });
  }
  for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < end;
       i = cursor.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
  // The caller's stack frame (cursor, latch, fn) stays alive until every
  // helper task has counted down, so the by-reference captures are safe.
  latch.Wait();
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(0, n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace vfps
