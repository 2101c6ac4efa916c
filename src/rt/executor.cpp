#include "rt/executor.h"

#include <utility>

#include "common/assert.h"

namespace cj::rt {

namespace {
std::atomic<Executor::Gate*> g_gate{nullptr};
}  // namespace

void Executor::set_gate(Gate* gate) { g_gate.store(gate); }

Executor::Executor(int workers) : gate_(g_gate.load()) {
  CJ_CHECK_MSG(workers >= 1, "an executor needs at least one worker");
  CJ_CHECK_MSG(gate_ == nullptr || (gate_->jobs >= 1 && gate_->jobs <= workers),
               "a dispatch gate cannot hold more jobs than there are workers");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Work left in the queue at teardown would mean a coroutine is still
  // suspended waiting for its completion — a shutdown-ordering bug.
  CJ_CHECK_MSG(queue_.empty(), "executor destroyed with queued work");
}

void Executor::submit(std::function<void(int worker)> fn, int cap) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    CJ_CHECK_MSG(!stop_, "submit on a stopped executor");
    CJ_CHECK(cap == sim::CorePool::kUncapped ||
             (cap >= 0 && cap < static_cast<int>(caps_.size())));
    queue_.push_back(Job{std::move(fn), cap});
  }
  cv_.notify_one();
}

int Executor::add_cap(int max_tasks) {
  CJ_CHECK_MSG(max_tasks >= 1, "a cap must admit at least one task");
  std::lock_guard<std::mutex> lk(mu_);
  caps_.push_back(Cap{max_tasks, 0});
  return static_cast<int>(caps_.size()) - 1;
}

void Executor::pass_gate(std::unique_lock<std::mutex>& lk) {
  if (gate_ == nullptr) return;
  Gate* gate = gate_;
  if (++gate_held_ == gate->jobs) {
    gate->met.fetch_add(1);
    gate_ = nullptr;
    gate_cv_.notify_all();
    return;
  }
  if (!gate_cv_.wait_for(lk, gate->timeout, [&] { return gate_ != gate; })) {
    gate->missed.fetch_add(1);
    gate_ = nullptr;
    gate_cv_.notify_all();
  }
}

std::deque<Executor::Job>::iterator Executor::next_runnable() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->cap == sim::CorePool::kUncapped) return it;
    const Cap& cap = caps_[static_cast<std::size_t>(it->cap)];
    if (cap.running < cap.max_tasks) return it;
  }
  return queue_.end();
}

void Executor::worker_main(int id) {
  int finished_cap = sim::CorePool::kUncapped;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (finished_cap != sim::CorePool::kUncapped) {
        --caps_[static_cast<std::size_t>(finished_cap)].running;
      }
      auto next = queue_.end();
      cv_.wait(lk, [&] {
        next = next_runnable();
        return stop_ || next != queue_.end();
      });
      if (next == queue_.end()) return;  // stop_ and drained
      job = std::move(*next);
      queue_.erase(next);
      if (job.cap != sim::CorePool::kUncapped) {
        ++caps_[static_cast<std::size_t>(job.cap)].running;
      }
      pass_gate(lk);
    }
    job.fn(id);
    finished_cap = job.cap;
  }
}

}  // namespace cj::rt
