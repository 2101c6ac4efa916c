// Live telemetry for the wall-clock backend, plus the straggler detector
// shared with post-run (sim) analysis.
//
// StragglerDetector is pure logic: feed it per-host chunk residencies
// (time between recv and forward/retire, the signal that isolates a slow
// host — revolution times don't, because every chunk passes through the
// straggler and inflates every origin's RTT equally) and it flags hosts
// whose rolling window sits z_threshold sigmas above the others.
//
// LiveSampler runs it live on --backend=rt: a background thread snapshots
// the MetricsRegistry on an interval into a bounded in-memory time-series,
// incrementally scans the flight recorder's lanes for fresh residency
// records, and on a flag bumps `obs.straggler_flags` (+ per-host counter)
// and drops a tracer instant. The sim backend gets identical detection by
// replaying the recorder through the same detector after the run
// (replay_stragglers), so `abl_straggler` reports the same columns on both
// backends.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace cj::obs {

class Tracer;
class LiveSampler;

struct SamplerConfig {
  bool enabled = true;  // the runner starts a LiveSampler on rt when true
  std::chrono::milliseconds interval{25};
  std::size_t max_points = 4096;  // time-series ring bound
  // Straggler detection.
  int window = 64;          // per-host rolling residency window
  int min_samples = 8;      // per-host observations before judging
  double z_threshold = 3.0; // flag when z > threshold vs the other hosts
  // Invoked after every sample, from the sampler thread (live dashboards:
  // cyclotop renders its screen here). Must be thread-safe; null = none.
  std::function<void(const LiveSampler&)> on_sample;
};

class StragglerDetector {
 public:
  StragglerDetector(int num_hosts, const SamplerConfig& config);

  // Record one residency observation; returns true when this observation
  // flags `host` as a straggler (leave-one-out z-score over per-host
  // rolling means, sigma floored at 10% of the global mean so a perfectly
  // uniform ring can't divide by ~zero).
  bool observe(int host, double residency_us);

  std::uint64_t flags(int host) const;
  std::uint64_t total_flags() const;
  double last_z(int host) const;
  double mean_residency_us(int host) const;
  // Host with the most flags; -1 when nothing has been flagged.
  int hottest() const;
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

 private:
  struct HostWindow {
    std::deque<double> values;
    double sum = 0.0;
    std::uint64_t flags = 0;
    double last_z = 0.0;
  };
  SamplerConfig config_;
  std::vector<HostWindow> hosts_;
  std::uint64_t total_flags_ = 0;
};

// Replay a finished run's recorder through a detector (sim backend: same
// code path as live detection, applied post-run). Feeds kForward/kRetire
// residencies in timestamp order; bumps `obs.straggler_flags` counters on
// `metrics` and emits `straggler` instants on `tracer` when non-null.
// Returns the number of flags raised.
std::uint64_t replay_stragglers(const FlightRecorder& recorder,
                                StragglerDetector& detector,
                                MetricsRegistry* metrics, Tracer* tracer);

class LiveSampler {
 public:
  struct Point {
    std::int64_t ts_ns = 0;  // engine time of the sample
    MetricsSnapshot metrics;
  };

  // All pointers outlive the sampler; `now_ns` supplies engine time (rt
  // engines share a wall epoch, so any host's now() works). `recorder`
  // and `tracer` may be null (metrics-only sampling).
  LiveSampler(const SamplerConfig& config, MetricsRegistry* metrics,
              const FlightRecorder* recorder, Tracer* tracer, int num_hosts,
              std::function<std::int64_t()> now_ns);
  ~LiveSampler();

  LiveSampler(const LiveSampler&) = delete;
  LiveSampler& operator=(const LiveSampler&) = delete;

  void start();
  void stop();  // joins the thread; final sample + scan included

  // Safe after stop(), or concurrently (locked copies).
  std::vector<Point> series() const;
  Point latest() const;  // default-constructed when no sample yet
  std::uint64_t samples_taken() const;
  const StragglerDetector& detector() const { return detector_; }

 private:
  void run();
  void sample_once();

  SamplerConfig config_;
  MetricsRegistry* metrics_;
  const FlightRecorder* recorder_;
  Tracer* tracer_;
  std::function<std::int64_t()> now_ns_;
  StragglerDetector detector_;
  std::vector<std::uint64_t> cursors_;
  std::vector<FlightRecord> scratch_;

  mutable std::mutex mu_;  // guards series_ + detector_ against readers
  std::deque<Point> series_;
  std::uint64_t samples_ = 0;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
};

}  // namespace cj::obs
