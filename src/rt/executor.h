// Executor: the rt backend's real core pool — N OS worker threads feeding
// from one queue. Implements sim::CoreExecutor, so a CorePool with an
// attached Executor runs its execute() closures as true parallel work while
// the host's protocol coroutines keep running on the engine thread.
//
// Caps (add_cap) bound how many jobs of one kind run at once. A job whose
// cap is full stays queued while later jobs may pass it, and the worker
// that finishes a capped job takes the next runnable one in the same
// critical section, so a queued join task starts without waiting for the
// engine thread.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/core_pool.h"

namespace cj::rt {

class Executor final : public sim::CoreExecutor {
 public:
  explicit Executor(int workers);
  ~Executor() override;  ///< drains nothing: all work must have completed
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void submit(std::function<void(int worker)> fn, int cap) override;
  int add_cap(int max_tasks) override;
  int workers() const override { return static_cast<int>(threads_.size()); }

 private:
  struct Job {
    std::function<void(int)> fn;
    int cap = sim::CorePool::kUncapped;
  };
  struct Cap {
    int max_tasks = 0;
    int running = 0;
  };

  void worker_main(int id);
  /// The oldest queued job whose cap has room, or queue_.end(). Caller
  /// holds mu_.
  std::deque<Job>::iterator next_runnable();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<Cap> caps_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace cj::rt
