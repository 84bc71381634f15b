#ifndef VFPS_COMMON_THREAD_POOL_H_
#define VFPS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vfps {

/// \brief Single-use countdown latch (a C++17-compatible std::latch).
///
/// Thread-safety: CountDown() and Wait() may be called concurrently from any
/// thread. The count must not be decremented below zero. A completed Wait()
/// synchronizes-with every CountDown() that contributed to it, so writes made
/// by the counting threads before CountDown() are visible to the waiter.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Decrement the count; wakes waiters when it reaches zero.
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0) --count_;
    if (count_ == 0) cv_.notify_all();
  }

  /// Block until the count reaches zero.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

/// \brief Fixed-size worker pool used to parallelize the hot loops of the
/// pipeline: per-query encrypted-KNN protocol runs, batched HE operations,
/// per-row similarity assembly, and per-coalition Shapley utilities.
///
/// Thread-safety contract:
///  - Submit(), Wait(), and ParallelFor() are safe to call concurrently from
///    any thread, including from inside a task running on a worker.
///  - ParallelFor() distributes iterations dynamically (workers and the
///    calling thread race on a shared atomic cursor), so uneven per-index
///    costs are load-balanced; the *calling thread always participates*,
///    which makes nested ParallelFor() calls deadlock-free even when every
///    worker is busy: the caller can drain its whole range by itself.
///  - ParallelFor() returns only after fn has completed for every index, and
///    that return synchronizes-with the end of every fn invocation (it is
///    safe to read results produced inside fn without further locking).
///  - Determinism is the *caller's* responsibility: fn(i) runs on an
///    unspecified thread in unspecified order. Callers that need bit-identical
///    results across thread counts must make fn(i) depend only on i (the
///    pattern used by FederatedKnnOracle's per-query tasks).
///  - fn must not throw; the error model is Status/Result captured per index.
///
/// On single-core hosts (or num_threads() == 1) ParallelFor degrades
/// gracefully to a serial loop on the calling thread.
class ThreadPool {
 public:
  /// \param num_threads number of workers; 0 means hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueue a task; it runs on some worker eventually. Thread-safe.
  void Submit(std::function<void()> task);

  /// Block until every task submitted via Submit() has finished. Do not call
  /// from inside a task (it would wait for itself); ParallelFor does not have
  /// this restriction because it uses a private latch instead.
  void Wait();

  /// Run fn(i) for i in [begin, end) across the workers *and* the calling
  /// thread, and return when all iterations are done. See the class comment
  /// for the full contract.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// \brief Run fn(i) for i in [0, n): on `pool` when it has more than one
/// thread and n > 1, inline on the calling thread otherwise (a null pool
/// included). The one pool-or-loop branch of the pipeline; the contract is
/// ThreadPool::ParallelFor's.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace vfps

#endif  // VFPS_COMMON_THREAD_POOL_H_
