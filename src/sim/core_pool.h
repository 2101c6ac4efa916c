// CorePool: the virtual CPU cores of one simulated host.
//
// Tasks acquire a core, occupy it for a duration, and release it. The
// duration is either measured from real inline execution of the task's
// closure ("virtual time, real work" — DESIGN.md) or given analytically.
//
// The pool keeps a busy-time ledger per tag ("join", "tcp-stack", ...) and
// counts context switches (a core picking up a task with a different tag
// than it last ran); an optional per-switch cost models the cache-pollution
// and scheduler overhead that the paper attributes to kernel TCP handling.
//
// A cap (add_cap) bounds how many tasks of one kind occupy cores at once;
// the cyclo-join runner caps its join tasks at join_threads.
#pragma once

#include <coroutine>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/cputime.h"
#include "common/units.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/when_all.h"

namespace cj::sim {

/// Real-thread execution backend for a CorePool (rt backend). When one is
/// attached, execute() stops simulating core occupancy and instead hands the
/// closure to submit(), which must run `fn(worker)` on one of `workers()`
/// OS threads and may do so concurrently with the engine thread. The worker
/// index takes the place of the virtual core id in traces.
class CoreExecutor {
 public:
  virtual ~CoreExecutor() = default;
  /// `cap` is an id from add_cap(), or CorePool::kUncapped.
  virtual void submit(std::function<void(int worker)> fn, int cap) = 0;
  /// Registers a cap of `max_tasks` concurrently running submissions and
  /// returns its id (ids count up from 0). The executor enforces it: a job
  /// whose cap is full waits in the queue, and the worker that finishes a
  /// capped job picks up the next queued one itself.
  virtual int add_cap(int max_tasks) = 0;
  virtual int workers() const = 0;
};

class CorePool {
 public:
  /// The cap argument of tasks no cap limits.
  static constexpr int kUncapped = -1;

  /// A pool of `cores` identical cores. `context_switch_cost` is billed
  /// whenever a core switches to a task with a different tag. `cpu_scale`
  /// multiplies *measured* execute() durations — it calibrates this
  /// machine's core speed to the simulated host's (e.g. 3.5 to emulate a
  /// 2.33 GHz Xeon from 2008 on a modern core); analytical consume() costs
  /// are taken as-is.
  CorePool(Engine& engine, int cores, SimDuration context_switch_cost = 0,
           double cpu_scale = 1.0)
      : engine_(engine),
        context_switch_cost_(context_switch_cost),
        cpu_scale_(cpu_scale) {
    CJ_CHECK_MSG(cores >= 1, "a host needs at least one core");
    CJ_CHECK_MSG(cpu_scale > 0.0, "cpu_scale must be positive");
    last_tag_.resize(static_cast<std::size_t>(cores));
    for (int i = 0; i < cores; ++i) free_cores_.push_back(i);
  }
  CorePool(const CorePool&) = delete;
  CorePool& operator=(const CorePool&) = delete;

  int cores() const { return static_cast<int>(last_tag_.size()); }

  /// Routes execute() through real worker threads instead of simulated
  /// cores. Requires a wall-clock engine (the completion is post()ed back).
  /// Measured durations are billed raw — wall time already is real time,
  /// so cpu_scale calibration and context-switch billing do not apply.
  void set_executor(CoreExecutor* executor) {
    CJ_CHECK_MSG(executor == nullptr ||
                     engine_.clock_mode() == ClockMode::kWall,
                 "a CoreExecutor needs a wall-clock engine");
    CJ_CHECK_MSG(caps_.empty(), "attach the executor before adding caps");
    executor_ = executor;
  }

  /// Registers a cap: tasks run under its id occupy at most `max_tasks` of
  /// the pool's cores at once and queue FIFO behind it. Returns the id for
  /// execute()/run(). On an executor-backed pool the executor enforces the
  /// cap, so the next queued capped task starts as soon as a worker frees
  /// up, without a round trip through the engine thread.
  int add_cap(int max_tasks) {
    CJ_CHECK_MSG(max_tasks >= 1, "a cap must admit at least one task");
    const int id = static_cast<int>(caps_.size());
    caps_.push_back(
        std::make_unique<Semaphore>(engine_, max_tasks, "core-cap"));
    if (executor_ != nullptr) CJ_CHECK(executor_->add_cap(max_tasks) == id);
    return id;
  }

  /// Runs `work` for real on a core and advances virtual time by its
  /// measured thread-CPU duration. Returns that duration. `cap` is an id
  /// from add_cap() or kUncapped.
  Task<SimDuration> execute(std::function<void()> work, std::string tag,
                            int cap = kUncapped) {
    CJ_CHECK(cap == kUncapped ||
             (cap >= 0 && cap < static_cast<int>(caps_.size())));
    if (executor_ != nullptr) {
      RealRunAwaiter real{this, std::move(work), std::move(tag), cap};
      co_await real;
      bill(real.tag, real.measured);
      co_return real.measured;
    }
    if (cap != kUncapped) {
      co_await caps_[static_cast<std::size_t>(cap)]->acquire();
    }
    const int core = co_await acquire();
    const SimDuration cs = charge_switch(core, tag);
    const auto measured = static_cast<double>(measure_cpu(work));
    const auto cost = static_cast<SimDuration>(measured * cpu_scale_);
    bill(tag, cost + cs);
    trace_occupy(core, tag, cost + cs);
    co_await engine_.sleep(cost + cs);
    trace_release(core);
    release(core);
    if (cap != kUncapped) caps_[static_cast<std::size_t>(cap)]->release();
    co_return cost;
  }

  /// execute() variant that discards the measured duration — convenient
  /// for when_all batches.
  Task<void> run(std::function<void()> work, std::string tag,
                 int cap = kUncapped) {
    co_await execute(std::move(work), std::move(tag), cap);
  }

  /// Runs a staged job: `stages` stages of `tasks` tasks, task (s, t)
  /// being work(s, t). A stage's tasks occupy the cores at once, and stage
  /// s + 1 starts when every task of stage s finished. With an executor
  /// the tasks of a stage run on its workers. A simulated pool runs every
  /// task of the job inline first, back to back, measuring each, and then
  /// occupies its cores for the measured durations stage by stage: the
  /// simulator's one real cache then holds one job's data from stage to
  /// stage, as each simulated host's own cache would, instead of every
  /// concurrent job's stage in turn.
  Task<void> run_stages(std::function<void(std::size_t stage, int task)> work,
                        std::size_t stages, int tasks, std::string tag) {
    CJ_CHECK(tasks >= 1);
    const auto n = static_cast<std::size_t>(tasks);
    std::vector<SimDuration> measured;
    if (executor_ == nullptr) {
      measured.resize(stages * n);
      for (std::size_t s = 0; s < stages; ++s) {
        for (int t = 0; t < tasks; ++t) {
          measured[s * n + static_cast<std::size_t>(t)] =
              measure_cpu([&] { work(s, t); });
        }
      }
    }
    for (std::size_t s = 0; s < stages; ++s) {
      std::vector<Task<void>> batch;
      for (int t = 0; t < tasks; ++t) {
        if (executor_ == nullptr) {
          const auto cost = static_cast<SimDuration>(
              static_cast<double>(measured[s * n + static_cast<std::size_t>(t)]) *
              cpu_scale_);
          batch.push_back(consume(cost, tag));
        } else {
          batch.push_back(run([&work, s, t] { work(s, t); }, tag));
        }
      }
      // A local, not a temporary inside the co_await: GCC 12 destroys
      // temporaries of an awaited expression twice.
      Task<void> stage = when_all(engine_, std::move(batch));
      co_await std::move(stage);
    }
  }

  /// Occupies a core for an analytically-known duration (cost models,
  /// deterministic tests).
  Task<void> consume(SimDuration cost, std::string tag) {
    CJ_CHECK(cost >= 0);
    const int core = co_await acquire();
    const SimDuration cs = charge_switch(core, tag);
    bill(tag, cost + cs);
    trace_occupy(core, tag, cost + cs);
    co_await engine_.sleep(cost + cs);
    trace_release(core);
    release(core);
  }

  /// Bills `cost` to `tag` like consume(), but without waiting for a free
  /// core: work this short (an RDMA doorbell write) interleaves with the
  /// tasks the cores are running instead of queueing behind them. It is
  /// traced on a "cores" track ("cores", "cores1", ... when charges
  /// overlap), not on a core<N> track.
  Task<void> interleave(SimDuration cost, std::string tag) {
    CJ_CHECK(cost >= 0);
    bill(tag, cost);
    obs::Tracer* t = engine_.tracer();
    int lane = -1;
    if (t != nullptr) {
      lane = interleave_lanes_.begin(*t, engine_.now(), trace_host_, tag, cost);
    }
    co_await engine_.sleep(cost);
    if (t != nullptr) interleave_lanes_.end(*t, engine_.now(), trace_host_, lane);
  }

  /// Total core-busy virtual time since construction (or last reset).
  SimDuration busy_total() const { return busy_total_; }

  /// Core-busy virtual time attributed to one tag.
  SimDuration busy_for(const std::string& tag) const {
    auto it = busy_by_tag_.find(tag);
    return it == busy_by_tag_.end() ? 0 : it->second;
  }

  /// All tags with their busy times (reporting).
  const std::map<std::string, SimDuration>& busy_by_tag() const {
    return busy_by_tag_;
  }

  std::uint64_t context_switches() const { return context_switches_; }

  /// Multiplies the measured-work calibration by `factor` (> 1 = slower)
  /// from now on — the fault injector's host-slowdown hook. Analytical
  /// consume() costs are unaffected, matching how `cpu_scale` already
  /// calibrates only measured execute() durations.
  void slow_down(double factor) {
    CJ_CHECK_MSG(factor > 0.0, "slowdown factor must be positive");
    cpu_scale_ *= factor;
  }

  double cpu_scale() const { return cpu_scale_; }

  void set_name(std::string name) { name_ = std::move(name); }

  /// Host id stamped on this pool's trace events (Chrome pid).
  void set_trace_host(int host) { trace_host_ = host; }

  /// Utilization of the pool over a window, given a busy snapshot taken at
  /// the window start: (busy_now - busy_at_start) / (window * cores).
  double utilization(SimDuration busy_at_start, SimDuration window) const {
    if (window <= 0) return 0.0;
    return static_cast<double>(busy_total_ - busy_at_start) /
           (static_cast<double>(window) * cores());
  }

  void reset_ledger() {
    busy_total_ = 0;
    busy_by_tag_.clear();
    context_switches_ = 0;
  }

 private:
  // Awaited at most once; lives in the coroutine frame of execute(), which
  // stays suspended until the worker posts the handle back, so `this` is
  // valid for the whole closure. The trace span is emitted from the worker
  // thread (Tracer is internally locked; engine_.now() only reads the OS
  // clock in wall mode), but billing happens in execute() on the engine
  // thread, keeping the ledger single-threaded.
  struct RealRunAwaiter {
    CorePool* pool;
    std::function<void()> work;
    std::string tag;
    int cap = kUncapped;
    SimDuration measured = 0;

    bool await_ready() { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      pool->executor_->submit([this, h](int worker) {
        obs::Tracer* t = pool->engine_.tracer();
        char entity[16];
        if (t != nullptr) {
          std::snprintf(entity, sizeof entity, "core%d", worker);
          t->begin(pool->engine_.now(), pool->trace_host_, entity, tag);
        }
        measured = static_cast<SimDuration>(measure_cpu(work));
        if (t != nullptr) {
          t->end(pool->engine_.now(), pool->trace_host_, entity);
        }
        pool->engine_.post(h);
      }, cap);
    }
    void await_resume() {}
  };

  struct CoreAwaiter {
    CorePool* pool;
    int core = -1;

    bool await_ready() {
      if (!pool->free_cores_.empty() && pool->waiters_.empty()) {
        core = pool->free_cores_.front();
        pool->free_cores_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      pool->engine_.note_blocked(h, "core-pool", &pool->name_);
      pool->waiters_.push_back({h, &core});
    }
    int await_resume() {
      CJ_CHECK(core >= 0);
      return core;
    }
  };

  CoreAwaiter acquire() { return CoreAwaiter{this}; }

  void release(int core) {
    if (!waiters_.empty()) {
      auto [handle, core_slot] = waiters_.front();
      waiters_.pop_front();
      *core_slot = core;  // hand the core directly to the next waiter
      engine_.note_unblocked(handle);
      engine_.schedule_now(handle);
      return;
    }
    free_cores_.push_back(core);
  }

  SimDuration charge_switch(int core, const std::string& tag) {
    auto& last = last_tag_[static_cast<std::size_t>(core)];
    const bool switched = !last.empty() && last != tag;
    last = tag;
    if (!switched) return 0;
    ++context_switches_;
    return context_switch_cost_;
  }

  void bill(const std::string& tag, SimDuration d) {
    busy_total_ += d;
    busy_by_tag_[tag] += d;
  }

  // Trace spans bracket exactly the sleep(cost + cs) that follows bill(),
  // so summed core-span time in a trace equals the busy ledger to the
  // nanosecond (the overlap-invariant test relies on this).
  void trace_occupy(int core, const std::string& tag, SimDuration dur) {
    obs::Tracer* t = engine_.tracer();
    if (t == nullptr) return;
    char entity[16];
    std::snprintf(entity, sizeof entity, "core%d", core);
    t->begin(engine_.now(), trace_host_, entity, tag, dur);
    t->counter(engine_.now(), trace_host_, "cores_busy", ++busy_now_);
  }

  void trace_release(int core) {
    obs::Tracer* t = engine_.tracer();
    if (t == nullptr) return;
    char entity[16];
    std::snprintf(entity, sizeof entity, "core%d", core);
    t->end(engine_.now(), trace_host_, entity);
    t->counter(engine_.now(), trace_host_, "cores_busy", --busy_now_);
  }

  Engine& engine_;
  CoreExecutor* executor_ = nullptr;
  SimDuration context_switch_cost_;
  std::string name_;
  int trace_host_ = 0;
  int busy_now_ = 0;
  double cpu_scale_ = 1.0;
  std::deque<int> free_cores_;
  std::deque<std::pair<std::coroutine_handle<>, int*>> waiters_;
  /// Per cap: admits at most its max_tasks tasks to the cores (sim path;
  /// the executor enforces the caps on the real path).
  std::vector<std::unique_ptr<Semaphore>> caps_;
  std::vector<std::string> last_tag_;
  obs::SpanLanes interleave_lanes_{"cores"};
  SimDuration busy_total_ = 0;
  std::map<std::string, SimDuration> busy_by_tag_;
  std::uint64_t context_switches_ = 0;
};

}  // namespace cj::sim
