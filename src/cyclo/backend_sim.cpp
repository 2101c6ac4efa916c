// The sim backend: the whole ring on one deterministic virtual-time engine
// (see backend.h for the seam this implements).
#include <array>
#include <string>

#include "cyclo/backend.h"
#include "cyclo/cluster.h"
#include "sim/sync.h"

namespace cj::cyclo::detail {

namespace {

/// One-shot all-hosts rendezvous on one engine.
class Barrier {
 public:
  Barrier(sim::Engine& engine, int parties) : remaining_(parties), event_(engine) {}

  sim::Task<void> arrive_and_wait() {
    if (--remaining_ == 0) event_.set();
    co_await event_.wait();
  }

 private:
  int remaining_;
  sim::Event event_;
};

class SimBackend final : public RunBackend {
 public:
  SimBackend(const ClusterConfig& cfg, obs::FlightRecorder* flight,
             obs::Tracer* tracer)
      : cfg_(cfg),
        cluster_(engine_, cfg),
        barriers_{Barrier(engine_, cfg.num_hosts), Barrier(engine_, cfg.num_hosts),
                  Barrier(engine_, cfg.num_hosts), Barrier(engine_, cfg.num_hosts)} {
    engine_.set_flight(flight);
    engine_.set_tracer(tracer);
  }

  sim::Engine& engine(int) override { return engine_; }
  sim::CorePool& cores(int host) override { return cluster_.cores(host); }
  ring::RoundaboutNode& node(int host) override { return cluster_.node(host); }
  std::uint64_t wire_bytes() override {
    return cluster_.fabric().total_data_bytes();
  }
  std::uint64_t first_link_bytes() override {
    return cluster_.fabric().data_link(0).bytes_transferred();
  }

  void add_link_faults(FaultReport& fault,
                       obs::MetricsRegistry& metrics) override {
    fault.messages_dropped = cluster_.injector()->counters().messages_dropped;
    fault.messages_corrupted =
        cluster_.injector()->counters().messages_corrupted;
    // Fault plans require the RDMA transport, so devices exist.
    for (int i = 0; i < cluster_.num_hosts(); ++i) {
      fault.retransmissions += cluster_.device(i).total_retransmissions();
      fault.rnr_retries += cluster_.device(i).total_rnr_retries();
    }
    for (const auto& [name, value] :
         {std::pair{"messages_dropped", fault.messages_dropped},
          {"messages_corrupted", fault.messages_corrupted},
          {"retransmissions", fault.retransmissions},
          {"rnr_retries", fault.rnr_retries}}) {
      metrics.add_counter(name, static_cast<std::int64_t>(value));
    }
  }

  sim::Task<void> arrive_and_wait(Rendezvous point, int) override {
    co_await barriers_[static_cast<std::size_t>(point)].arrive_and_wait();
  }

  void run(CrashHandler& handler) override {
    // Plans carry at most one crash. It fires only if the run is still going
    // at its time: the watcher is spawned then, instead of sleeping from the
    // start and holding the event queue open until the crash time.
    if (!cfg_.fault.crashes.empty()) {
      const sim::HostCrashSpec& crash = cfg_.fault.crashes.front();
      if (!engine_.run_until(crash.at)) {
        engine_.spawn(crash_watcher(handler, crash.host),
                      "crash-watcher" + std::to_string(crash.host));
      }
    }
    engine_.run();
    engine_.check_all_complete();
  }

  void open_crash_gate() override { join_started_.set(); }
  void post(int, std::function<void()> fn) override { fn(); }

 private:
  sim::Task<void> crash_watcher(CrashHandler& handler, int host) {
    // A crash during setup degenerates to a shorter ring from the start;
    // the interesting (and supported) case is a crash of a live ring.
    co_await join_started_.wait();
    if (!handler.begin_crash(host)) co_return;
    cluster_.node(host).die();
    cluster_.injector()->mark_crashed(host);
    co_await cluster_.splice_around(host);
    handler.end_crash(host);
  }

  ClusterConfig cfg_;
  sim::Engine engine_;
  Cluster cluster_;
  std::array<Barrier, 4> barriers_;
  sim::Event join_started_{engine_, "join-phase-started"};
};

}  // namespace

std::unique_ptr<RunBackend> make_sim_backend(const ClusterConfig& cfg,
                                             obs::FlightRecorder* flight,
                                             obs::Tracer* tracer) {
  return std::make_unique<SimBackend>(cfg, flight, tracer);
}

}  // namespace cj::cyclo::detail
