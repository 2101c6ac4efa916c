// cyclotop: live ring health for a cyclo-join on the rt backend — `top`
// for the Data Roundabout.
//
//   cmake -B build && cmake --build build -j
//   ./build/examples/cyclotop                # live view of a demo join
//   ./build/examples/cyclotop --slowdown=3   # watch host 0 get flagged
//   ./build/examples/cyclotop --once         # one page, no ANSI (CI smoke)
//
// On rt the runner's LiveSampler snapshots the always-on flight recorder and
// the metrics registry on an interval; cyclotop hooks its on_sample
// callback and redraws a per-host table — rolling mean chunk residency,
// straggler z-score, flag count — while the join is actually running on
// this machine's cores. After the run it prints the final metrics as a
// Prometheus text exposition page (the same page a scrape endpoint would
// serve). Schema: docs/OBSERVABILITY.md.
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/units.h"
#include "cyclo/cyclo_join.h"
#include "obs/export.h"
#include "obs/journey.h"
#include "obs/sampler.h"
#include "rel/generator.h"

namespace {

// One redraw, called from the sampler thread every interval.
void render(const cj::obs::LiveSampler& sampler, int hosts, bool ansi) {
  const auto point = sampler.latest();
  const auto& det = sampler.detector();
  std::string screen;
  if (ansi) screen += "\x1b[2J\x1b[H";  // clear + home
  char line[160];
  std::snprintf(line, sizeof(line),
                "cyclotop — t=%.2fs  sample #%llu  straggler flags %llu\n\n",
                static_cast<double>(point.ts_ns) / 1e9,
                static_cast<unsigned long long>(sampler.samples_taken()),
                static_cast<unsigned long long>(det.total_flags()));
  screen += line;
  std::snprintf(line, sizeof(line), "%6s  %16s  %8s  %8s  %s\n", "host",
                "residency[us]", "z", "flags", "state");
  screen += line;
  for (int h = 0; h < hosts; ++h) {
    const bool hot = det.hottest() == h && det.flags(h) > 0;
    std::snprintf(line, sizeof(line), "%6d  %16.1f  %8.2f  %8llu  %s\n", h,
                  det.mean_residency_us(h), det.last_z(h),
                  static_cast<unsigned long long>(det.flags(h)),
                  hot ? "STRAGGLER" : "ok");
    screen += line;
  }
  std::fputs(screen.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cj;
  auto parsed = Flags::parse(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }
  Flags flags = std::move(parsed).value();
  const bool once = flags.get_bool("once", false);
  const std::int64_t rows = flags.get_int("rows", once ? 60'000 : 400'000);
  const int hosts = static_cast<int>(flags.get_int("hosts", 4));
  const double slowdown = flags.get_double("slowdown", 1.0);
  const std::int64_t interval_ms = flags.get_int("interval_ms", 250);

  rel::Relation r = rel::generate(
      {.rows = static_cast<std::uint64_t>(rows), .seed = 1}, "R", 1);
  rel::Relation s = rel::generate(
      {.rows = static_cast<std::uint64_t>(rows), .seed = 2}, "S", 2);

  cyclo::ClusterConfig cluster;
  cluster.backend = cyclo::Backend::kRt;
  cluster.num_hosts = hosts;
  cluster.cores_per_host = 2;
  cluster.node.buffer_bytes = 64 * 1024;  // many chunks → live signal
  // Frames on the wire: journeys stitch, revolutions count. Wide ack
  // timeout: this run wants tracing, not recovery — a --slowdown straggler
  // must not trip re-injection.
  cluster.fault.force_resilient = true;
  cluster.node.resilience.ack_timeout = 60 * kSecond;
  cluster.sampler.interval = std::chrono::milliseconds(interval_ms);
  if (slowdown > 1.0) {
    cluster.per_host_cpu_scale.assign(static_cast<std::size_t>(hosts), 1.0);
    cluster.per_host_cpu_scale[0] = slowdown;
  }
  if (!once) {
    cluster.sampler.on_sample = [hosts](const obs::LiveSampler& sampler) {
      render(sampler, hosts, /*ansi=*/true);
    };
  }

  cyclo::CycloJoin join(cluster, {.algorithm = cyclo::Algorithm::kHashJoin});
  const cyclo::RunReport report = join.run(r, s);

  // ----- final page ------------------------------------------------------
  std::printf("\nR ⋈ S on %d rt hosts: %llu matches in %s wall time\n", hosts,
              static_cast<unsigned long long>(report.matches),
              human_duration(report.total_wall).c_str());
  if (report.flight != nullptr) {
    const auto journeys = obs::reconstruct_journeys(*report.flight);
    const obs::JourneySummary summary =
        obs::summarize_journeys(journeys, hosts);
    std::printf("chunk journeys: %zu stitched, %zu retired, max %d hops\n",
                summary.journeys, summary.retired, summary.max_hops);
  }
  std::printf("\n%s",
              obs::prometheus_text(report.metrics).c_str());
  return 0;
}
