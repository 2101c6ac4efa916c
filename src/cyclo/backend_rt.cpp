// The rt backend: the cyclo-join cluster as real concurrency, one OS thread
// and wall-clock engine per host (see backend.h, docs/RUNTIME.md). A
// wall-clock engine's only thread-safe entry point is post(); every
// cross-thread edge here funnels through it.
#include <array>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "cyclo/backend.h"
#include "rt/barrier.h"
#include "rt/executor.h"
#include "rt/wire.h"

namespace cj::cyclo::detail {

namespace {

/// A parked run (no events, no posts) this long is a protocol deadlock.
constexpr SimDuration kIdleAbort = 120 * kSecond;

/// ack_timeout is *wall* time on this backend, and the sim default (5 ms)
/// is below ordinary scheduler jitter. The adaptive ack-timeout policy runs
/// with this floor until enough RTT samples arrive, then follows a multiple
/// of the observed p99 (down on fast machines, up on loaded ones).
constexpr SimDuration kMinAckTimeout = 200 * kMillisecond;

// Ring-repair coroutines. They must stay *function* coroutines: a capturing
// lambda coroutine keeps its captures in the lambda object, which dies with
// the posted closure while the splice is still suspended. Function
// parameters are copied into the coroutine frame and survive.
sim::Task<void> splice_in_task(ring::RoundaboutNode* node, ring::Wire* wire,
                               std::shared_ptr<std::promise<int>> credits) {
  credits->set_value(co_await node->splice_in(wire));
}

sim::Task<void> splice_out_task(ring::RoundaboutNode* node, ring::Wire* wire,
                                int credits,
                                std::shared_ptr<std::promise<void>> done) {
  co_await node->splice_out(wire, credits);
  done->set_value();
}

class RtBackend final : public RunBackend {
 public:
  RtBackend(const ClusterConfig& cfg, bool resilient,
            sim::Engine::WallClock::time_point epoch,
            obs::FlightRecorder* flight, obs::Tracer* tracer)
      : cfg_(cfg),
        n_(cfg.num_hosts),
        tracer_(tracer),
        epoch_(epoch),
        barriers_{std::make_unique<rt::WallBarrier>(n_),
                  std::make_unique<rt::WallBarrier>(n_),
                  std::make_unique<rt::WallBarrier>(n_),
                  std::make_unique<rt::WallBarrier>(n_)} {
    // The rt backend has no fault-injecting transport: messages cross a
    // mutex, not a lossy link. Crashes (fail-stop + ring repair) are the
    // supported — and the interesting — fault class.
    CJ_CHECK_MSG(
        cfg_.fault.link.drop_prob == 0.0 && cfg_.fault.link.corrupt_prob == 0.0,
        "the rt backend supports crash faults only (no link faults)");
    CJ_CHECK_MSG(cfg_.fault.slowdowns.empty(),
                 "the rt backend supports crash faults only (no slowdowns)");
    for (int i = 0; i < n_; ++i) {
      auto h = std::make_unique<Host>();
      h->engine = std::make_unique<sim::Engine>(sim::ClockMode::kWall, epoch_);
      h->engine->set_idle_abort(kIdleAbort);
      h->engine->set_flight(flight);
      h->engine->set_tracer(tracer);
      h->executor = std::make_unique<rt::Executor>(cfg_.cores_per_host);
      // cpu_scale / context-switch billing do not apply: wall time already
      // is real time (CorePool::set_executor docs). per_host_cpu_scale > 1
      // IS honored — see probe_stretch.
      h->cores = std::make_unique<sim::CorePool>(*h->engine, cfg_.cores_per_host);
      h->cores->set_trace_host(i);
      h->cores->set_executor(h->executor.get());
      hosts_.push_back(std::move(h));
    }
    // links_[i] is the edge i -> succ(i): endpoint a is host i's out wire,
    // endpoint b the successor's in wire.
    for (int i = 0; n_ > 1 && i < n_; ++i) {
      links_.push_back(make_link(i, (i + 1) % n_));
    }

    ring::NodeConfig node_cfg = cfg_.node;
    // Shared-memory wires keep the posted-buffer contract, so credits are
    // as mandatory as over RDMA regardless of the configured transport.
    node_cfg.use_credits = true;
    node_cfg.resilience.enabled = resilient;
    node_cfg.resilience.num_hosts = n_;
    node_cfg.resilience.adaptive.enabled = true;
    if (node_cfg.resilience.adaptive.floor == 0) {
      node_cfg.resilience.adaptive.floor = kMinAckTimeout;
    }
    for (int i = 0; i < n_; ++i) {
      node_cfg.resilience.host_id = i;
      node_cfg.trace_host = i;
      ring::Wire* in =
          n_ > 1 ? &links_[static_cast<std::size_t>((i + n_ - 1) % n_)]->b()
                 : nullptr;
      ring::Wire* out =
          n_ > 1 ? &links_[static_cast<std::size_t>(i)]->a() : nullptr;
      host(i).node = std::make_unique<ring::RoundaboutNode>(
          engine(i), cores(i), in, out, node_cfg);
    }
  }

  sim::Engine& engine(int i) override { return *host(i).engine; }
  sim::CorePool& cores(int i) override { return *host(i).cores; }
  ring::RoundaboutNode& node(int i) override { return *host(i).node; }
  std::uint64_t wire_bytes() override {
    std::uint64_t bytes = 0;
    for (const auto& link : links_) bytes += link->bytes_sent(0);
    for (const auto& link : repair_links_) bytes += link->bytes_sent(0);
    return bytes;
  }
  std::uint64_t first_link_bytes() override { return links_[0]->bytes_sent(0); }

  // Honors per_host_cpu_scale on real hardware: a scale s > 1 stretches
  // each probe to s x its measured wall time, so a "slow host" exists on
  // the rt backend too (abl_straggler runs the same config on both
  // backends).
  SimDuration probe_stretch(int i, SimDuration elapsed) const override {
    const auto& scales = cfg_.per_host_cpu_scale;
    const auto h = static_cast<std::size_t>(i);
    const double scale = h < scales.size() ? scales[h] : 1.0;
    return scale > 1.0 ? static_cast<SimDuration>(
                             (scale - 1.0) * static_cast<double>(elapsed))
                       : 0;
  }

  bool live_sampling() const override { return cfg_.sampler.enabled; }

  sim::Task<void> arrive_and_wait(Rendezvous point, int i) override {
    co_await barriers_[static_cast<std::size_t>(point)]->arrive_and_wait(
        engine(i));
  }

  void run(CrashHandler& handler) override {
    std::vector<std::thread> watchers;
    for (const sim::HostCrashSpec& crash : cfg_.fault.crashes) {
      watchers.emplace_back([this, &handler, crash] { watch(handler, crash); });
    }
    std::vector<std::thread> threads;
    for (int i = 0; i < n_; ++i) {
      threads.emplace_back([this, i] {
        engine(i).run();
        engine(i).check_all_complete();
      });
    }
    for (std::thread& t : threads) t.join();
    close_crash_gate();  // releases a watcher whose crash time never arrived
    for (std::thread& w : watchers) w.join();
  }

  void open_crash_gate() override { raise(join_started_); }
  void close_crash_gate() override { raise(finished_); }

  void post(int i, std::function<void()> fn) override {
    engine(i).post(std::move(fn));
  }

 private:
  struct Host {
    std::unique_ptr<sim::Engine> engine;
    std::unique_ptr<rt::Executor> executor;
    std::unique_ptr<sim::CorePool> cores;
    std::unique_ptr<ring::RoundaboutNode> node;
  };

  Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }

  /// Sets one of the crash gate's flags and wakes the watchers.
  void raise(bool& flag) {
    std::lock_guard<std::mutex> lk(gate_mu_);
    flag = true;
    gate_cv_.notify_all();
  }

  /// A shared-memory link from host `from` to host `to`. Each endpoint's
  /// engine is the one running its consumer coroutines.
  std::unique_ptr<rt::ShmLink> make_link(int from, int to) {
    auto link = std::make_unique<rt::ShmLink>();
    link->a().attach_engine(&engine(from));
    link->b().attach_engine(&engine(to));
    return link;
  }

  /// The crash watcher thread of one crash.
  void watch(CrashHandler& handler, sim::HostCrashSpec spec) {
    {
      std::unique_lock<std::mutex> lk(gate_mu_);
      // spec.at is wall time since the run's epoch on this backend.
      gate_cv_.wait_until(lk, epoch_ + std::chrono::nanoseconds(spec.at),
                          [this] { return finished_; });
      // A crash during setup degenerates to a shorter ring from the start;
      // the interesting (and supported) case is a crash of a live ring.
      gate_cv_.wait(lk, [this] { return join_started_ || finished_; });
      if (finished_) return;
    }
    if (!handler.begin_crash(spec.host)) return;
    // Fail-stop on the victim's own engine thread: wires break, entities
    // unwind, the victim's join loop sees a stop chunk.
    call(spec.host, [this, spec] { node(spec.host).die(); });
    splice_around(spec.host);
    handler.end_crash(spec.host);
  }

  /// Ring repair after `dead` fail-stopped: a fresh shared-memory link
  /// between the dead host's neighbors, spliced in the same order as
  /// Cluster::splice_around — inbound side first, because the successor
  /// reports how many receive buffers it re-posted, which is exactly the
  /// predecessor's opening credit balance.
  void splice_around(int dead) {
    const int pred = (dead + n_ - 1) % n_;
    const int succ = (dead + 1) % n_;
    repair_links_.push_back(make_link(pred, succ));
    rt::ShmLink* link = repair_links_.back().get();
    if (tracer_ != nullptr) {
      tracer_->instant(engine(pred).now(), obs::kGlobalHost, "fault",
                       "fault.splice", dead);
    }
    auto credits = std::make_shared<std::promise<int>>();
    std::future<int> spliced_in = credits->get_future();
    post(succ, [this, succ, link, credits] {
      engine(succ).spawn(splice_in_task(&node(succ), &link->b(), credits),
                         "repair");
    });
    const int opening_credits = spliced_in.get();
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> spliced_out = done->get_future();
    post(pred, [this, pred, link, opening_credits, done] {
      engine(pred).spawn(
          splice_out_task(&node(pred), &link->a(), opening_credits, done),
          "repair");
    });
    spliced_out.get();
  }

  ClusterConfig cfg_;
  int n_;
  obs::Tracer* tracer_;
  sim::Engine::WallClock::time_point epoch_;
  std::array<std::unique_ptr<rt::WallBarrier>, 4> barriers_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<rt::ShmLink>> links_;
  std::vector<std::unique_ptr<rt::ShmLink>> repair_links_;

  // Crash gate, shared with the watcher threads.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool join_started_ = false;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<RunBackend> make_rt_backend(
    const ClusterConfig& cfg, bool resilient,
    sim::Engine::WallClock::time_point epoch, obs::FlightRecorder* flight,
    obs::Tracer* tracer) {
  return std::make_unique<RtBackend>(cfg, resilient, epoch, flight, tracer);
}

}  // namespace cj::cyclo::detail
