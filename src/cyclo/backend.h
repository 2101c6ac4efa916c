// The backend seam of the cyclo-join runner.
//
// cyclo_join.cpp holds the whole cyclo-join orchestration once — setup,
// replication, the join loop, termination detection, crash recovery and
// reporting — for both execution backends. A RunBackend supplies only the
// four things that really differ between them:
//
//   1. Hosts and links. Sim: one virtual-time sim::Engine plus a Cluster
//      (simulated RDMA/TCP fabric, FaultInjector). Rt: one wall-clock engine,
//      rt::Executor worker pool and OS thread per host, joined by
//      rt::ShmLink wires.
//   2. Barriers. Sim: an event barrier on the one engine. Rt:
//      rt::WallBarrier (Engine::post only works on wall-clock engines).
//   3. Crash control and ring repair. Sim: a watcher coroutine plus
//      Cluster::splice_around. Rt: a watcher thread that reaches the hosts'
//      engines through post() and splices a fresh ShmLink around the gap.
//   4. Shared-state access. The runner guards its cross-host state with one
//      mutex on both backends (uncontended on sim); the backend adds post(),
//      the one way to run code on a host's engine thread.
#pragma once

#include <functional>
#include <future>
#include <memory>

#include "cyclo/cyclo_join.h"
#include "ring/node.h"
#include "sim/core_pool.h"

namespace cj::cyclo::detail {

/// The all-hosts rendezvous points of a run, in phase order.
enum class Rendezvous { kSetupDone, kTransportUp, kReplicated, kJoinDone };

/// The runner's side of crash control, called by the backend's watcher.
class CrashHandler {
 public:
  /// The crash of `host` is due and the join phase is live. Returns false
  /// when the run finished first: the watcher then stands down.
  virtual bool begin_crash(int host) = 0;
  /// `host` is dead and the ring is spliced around it.
  virtual void end_crash(int host) = 0;

 protected:
  ~CrashHandler() = default;
};

class RunBackend {
 public:
  virtual ~RunBackend() = default;

  // ----- 1. hosts and links ----------------------------------------------
  virtual sim::Engine& engine(int host) = 0;
  virtual sim::CorePool& cores(int host) = 0;
  virtual ring::RoundaboutNode& node(int host) = 0;
  /// Payload bytes moved on the ring's data direction, repair links included.
  virtual std::uint64_t wire_bytes() = 0;
  /// Payload bytes moved on the first data link (two or more hosts).
  virtual std::uint64_t first_link_bytes() = 0;
  /// Adds the transport's injected-fault counters to a faulted run's report
  /// and metrics. Only the sim has a lossy transport.
  virtual void add_link_faults(FaultReport&, obs::MetricsRegistry&) {}
  /// Extra wall time `host` spins after a probe that took `elapsed`: how rt
  /// honors per_host_cpu_scale (the sim's CorePool scales virtual time).
  virtual SimDuration probe_stretch(int, SimDuration) const { return 0; }
  /// True when a LiveSampler watches the run; otherwise the runner replays
  /// the flight recorder after it.
  virtual bool live_sampling() const { return false; }

  // ----- 2. barriers -------------------------------------------------------
  virtual sim::Task<void> arrive_and_wait(Rendezvous point, int host) = 0;

  // ----- 3. crash control and ring repair --------------------------------
  /// Runs every spawned process to completion, firing the fault plan's
  /// crashes through `handler`. A crash due after the run finished never
  /// fires and never holds the run open.
  virtual void run(CrashHandler& handler) = 0;
  /// Crashes fire only once the gate opened (the join phase is live) and
  /// stand down once it closed (the termination detector fired).
  virtual void open_crash_gate() = 0;
  virtual void close_crash_gate() {}

  // ----- 4. shared-state access -------------------------------------------
  /// Runs `fn` on `host`'s engine thread: inline on the sim, posted on rt.
  virtual void post(int host, std::function<void()> fn) = 0;
  /// post() and block until `fn` ran. Crash watcher only: on rt, calling it
  /// from an engine thread would deadlock.
  void call(int host, std::function<void()> fn) {
    std::promise<void> done;
    std::future<void> ran = done.get_future();
    post(host, [&fn, &done] {
      fn();
      done.set_value();
    });
    ran.get();
  }
};

std::unique_ptr<RunBackend> make_sim_backend(const ClusterConfig& cfg,
                                             obs::FlightRecorder* flight,
                                             obs::Tracer* tracer);
/// `epoch` is time zero of every host's wall clock.
std::unique_ptr<RunBackend> make_rt_backend(
    const ClusterConfig& cfg, bool resilient,
    sim::Engine::WallClock::time_point epoch, obs::FlightRecorder* flight,
    obs::Tracer* tracer);

}  // namespace cj::cyclo::detail
