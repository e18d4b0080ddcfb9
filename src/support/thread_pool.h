// A small fixed-size thread pool.  The Monte-Carlo harness partitions
// replicas across workers; each worker owns its RNG and statistics, so the
// only shared state is the task queue (mutex + condvar, per C++ Core
// Guidelines CP rules: no data is shared without synchronisation).
#ifndef OPINDYN_SUPPORT_THREAD_POOL_H
#define OPINDYN_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace opindyn {

/// Worker count that "0 threads" means everywhere: all hardware
/// threads, at least one.
std::size_t default_parallelism() noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).  0 means default_parallelism().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_THREAD_POOL_H
