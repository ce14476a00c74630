#include "util/thread_pool.h"

#include <chrono>

#include "util/telemetry.h"

namespace sqleq {

ThreadPool::ThreadPool(size_t threads, MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    queue_wait_us_ = &metrics->histogram(metric::kPoolQueueWaitUs);
    task_us_ = &metrics->histogram(metric::kPoolTaskUs);
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this](std::stop_token stop) { WorkerLoop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // jthread members join on destruction.
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    ScopedTimerUs timer(task_us_);
    task();
    return;
  }
  if (queue_wait_us_ != nullptr) {
    auto enqueued = std::chrono::steady_clock::now();
    auto* queue_wait = queue_wait_us_;
    auto* task_hist = task_us_;
    task = [inner = std::move(task), enqueued, queue_wait, task_hist] {
      auto started = std::chrono::steady_clock::now();
      queue_wait->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(started -
                                                                enqueued)
              .count()));
      ScopedTimerUs timer(task_hist);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(std::stop_token stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, &stop] {
        return stopping_ || stop.stop_requested() || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace sqleq
