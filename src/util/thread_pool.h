// A fixed-size worker pool over a shared work queue, built on std::jthread.
// Runs sqleqd's requests (service/server.cc); deliberately minimal — tasks
// are void() closures that report failures through captured state, never by
// throwing.
#ifndef SQLEQ_UTIL_THREAD_POOL_H_
#define SQLEQ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sqleq {

class MetricsRegistry;
class Histogram;

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains nothing — pending tasks are completed, then workers exit (jthread
/// joins automatically). A pool of size 0 runs every task inline on the
/// submitting thread, so callers need no serial special case.
class ThreadPool {
 public:
  /// `threads` workers. A non-null `metrics` samples pool.queue_wait_us and
  /// pool.task_us histograms per submitted task.
  explicit ThreadPool(size_t threads, MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop(std::stop_token stop);

  /// Resolved once at construction; null when telemetry is off.
  Histogram* queue_wait_us_ = nullptr;
  Histogram* task_us_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace sqleq

#endif  // SQLEQ_UTIL_THREAD_POOL_H_
