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

#include <atomic>
#include <chrono>
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

  /// A rendezvous of an executor's first dispatches — the test seam that
  /// shows what an executor was handed at once, whatever the OS scheduler
  /// does. The first `jobs` jobs an executor dispatches each wait on their
  /// worker, before running, until all `jobs` of them are dispatched: then
  /// they went to distinct workers before any of them finished, and the
  /// executor counts as `met`. If fewer arrive within `timeout`, the held
  /// ones run and the executor counts as `missed`. Later dispatches pass.
  struct Gate {
    int jobs = 1;
    std::chrono::milliseconds timeout{10'000};
    std::atomic<int> met{0};
    std::atomic<int> missed{0};
  };
  /// Executors constructed while `gate` is set (not null) take part in it.
  static void set_gate(Gate* gate);

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
  /// Holds the calling worker at gate_ (see Gate). Caller holds `lk` on mu_.
  void pass_gate(std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<Cap> caps_;
  bool stop_ = false;
  Gate* gate_ = nullptr;   ///< null once this executor's rendezvous is over
  int gate_held_ = 0;
  std::condition_variable gate_cv_;
  std::vector<std::thread> threads_;
};

}  // namespace cj::rt
