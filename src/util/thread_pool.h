// Fixed-size worker pool with futures-based task submission. Built for the
// evaluation engine's fan-out of independent (temperature, task, sample)
// work units, but generic: submit() accepts any nullary callable and returns
// a std::future for its result. Exceptions thrown by a task are captured and
// rethrown from future::get() on the consuming thread, so a worker never
// dies silently. The destructor drains every queued task before joining.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace haven::util {

class ThreadPool {
 public:
  // `workers` = 0 picks default_worker_count(). At least one worker is
  // always started.
  explicit ThreadPool(std::size_t workers = 0);

  // Drains the queue (every submitted task still runs), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  // hardware_concurrency(), or 1 when the runtime cannot report it.
  static std::size_t default_worker_count();

  // Enqueue a nullary callable; the returned future yields its result (or
  // rethrows its exception). Tasks start in submission order, one per free
  // worker. Throws std::runtime_error if called during/after destruction.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace haven::util
