// End-to-end benchmark binary: one process runs one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--spans_out <file>]
//
// Untraced run (--trace 0): generates the inputs and the oracle, sets the
// program up kSetupReps times (each set-up ends when its first, cold op
// completes; setup_s is their median), then runs warm ops back to back for
// --seconds (and at least kMinOps ops) and prints the end-to-end metrics.
//
// Traced run (--trace 1): replays host 0's fragments through the join
// kernels while they are still cold, sets up once, alternates untraced and
// traced ops for --seconds, replays the remaining layers, writes the span
// file and prints the per-layer metrics.
//
// Every op is checked against the oracle. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; earlier lines are
// human-readable context. Exit code 0 only when every check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "layers.h"
#include "speed_probe.h"
#include "workloads.h"

namespace {

using namespace cj;
using namespace cj::perfbench;

/// Ops per untraced run: with at least 40 samples the 75th percentile has
/// ten samples beyond it, so latency_p75_s is the reported tail.
constexpr int kMinOps = 40;
/// Cold set-ups per untraced run; setup_s is their median. The first
/// set-up of a process can take twice as long as the rest on rt.
constexpr int kSetupReps = 5;
/// Traced ops per traced run (each paired with an untraced one).
constexpr int kMinTracedOps = 8;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json.
constexpr Metric kLayerMetrics[] = {
    {"join.radix_s", "s"},          {"join.build_s", "s"},
    {"join.build_cold_s", "s"},     {"join.probe_s", "s"},
    {"join.sort_s", "s"},           {"join.merge_s", "s"},
    {"join.matches", "count"},      {"cyclo.setup_s", "s"},
    {"cyclo.join_s", "s"},          {"cyclo.sync_s", "s"},
    {"cyclo.host_skew", "ratio"},   {"cyclo.busy_join_s", "s"},
    {"cyclo.busy_setup_s", "s"},    {"cyclo.outside_s", "s"},
    {"ring.rotation_mb", "MB"},     {"ring.chunks_rotated", "count"},
    {"ring.revolution_p50_s", "s"}, {"ring.redistribute_mb", "MB"},
    {"ring.redistribute_s", "s"},   {"rt.cpu_per_busy", "ratio"},
    {"sim.wall_per_virtual", "ratio"}, {"plan.plan_s", "s"},
    {"plan.est_error", "ratio"},    {"rel.split_s", "s"},
    {"rel.collect_stats_s", "s"},   {"serve.queries_per_wave", "count"},
    {"serve.bytes_ratio", "ratio"}, {"serve.query_latency_p50_s", "s"},
    {"serve.queue_wait_p50_s", "s"}, {"serve.service_p50_s", "s"},
    {"serve.share_gold", "ratio"},  {"obs.flight_records_per_op", "count"},
    {"obs.trace_overhead", "ratio"},
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

class JsonLine {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics_.empty() ? "" : ",", name, value, unit);
    metrics_ += buf;
    std::printf("  %-28s %14.6g %s\n", name, value, unit);
  }

  void print(int attempted, int failed) const {
    std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n",
                failed == 0 ? "true" : "false", attempted, failed, metrics_.c_str());
  }

 private:
  std::string metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::parse(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "flag error: %s\n", parsed.status().to_string().c_str());
    return 2;
  }
  Flags flags = std::move(parsed).value();
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  const bool smoke = flags.get_bool("smoke", false);
  const std::string spans_out = flags.get_string("spans_out", "");
  for (const std::string& unused : flags.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unused.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(name, smoke);
  if (workload == nullptr || seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1>; workloads:");
    for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  const cyclo::ClusterConfig& cluster = workload->cluster();
  const bool rt = cluster.backend == cyclo::Backend::kRt;
  std::printf("workload %s seed %" PRIu64 " backend %s: %d hosts x %d cores%s\n",
              name.c_str(), seed, rt ? "rt" : "sim", cluster.num_hosts,
              cluster.cores_per_host, smoke ? " (smoke size)" : "");
  if (rt) {
    // One engine thread plus cores_per_host workers per host: more threads
    // than cores turns the measurement into a scheduler benchmark.
    const int threads = cluster.num_hosts * (1 + cluster.cores_per_host);
    const int cpus = usable_cpus();
    std::printf("rt threads %d (hosts x (1 + cores_per_host)), usable cpus %d\n",
                threads, cpus);
    if (threads > cpus) {
      std::fprintf(stderr, "refusing to run: %d rt threads exceed %d usable cpus\n",
                   threads, cpus);
      return 3;
    }
  }

  double t0 = wall_s();
  workload->prepare(seed);
  std::printf("inputs + oracle: %.3f s (untimed)\n", wall_s() - t0);

  int attempted = 0;
  int failed = 0;
  const auto check = [&](const OpOutcome& out) {
    ++attempted;
    if (!out.correct) ++failed;
  };

  Trace trace;
  if (traced) {
    // Before any op: the first build of the process is the cold one.
    trace.op = 0;
    const Workload::KernelPair pair = workload->kernel_pair();
    replay_join_kernels(trace, *pair.rotating, *pair.stationary, cluster.num_hosts,
                        pair.band, pair.sort_merge);
  }

  // A speed probe before the first and after every timed set-up or op,
  // outside their timing; each is normalized by the mean of its two probes.
  const int probe_threads =
      rt ? cluster.num_hosts * (1 + cluster.cores_per_host) : 1;
  SpeedProbe probe(probe_threads);
  std::vector<double> probes{probe.run()};
  const auto slowdown_since_last_probe = [&] {
    probes.push_back(probe.run());
    return (probes[probes.size() - 2] + probes.back()) / 2 /
           probe.reference_seconds();
  };

  std::vector<double> setup_s, setup_norm;
  for (int rep = 0; rep < (traced ? 1 : kSetupReps); ++rep) {
    t0 = wall_s();
    workload->setup();
    const OpOutcome out = workload->op(nullptr);
    setup_s.push_back(wall_s() - t0);
    setup_norm.push_back(setup_s.back() / slowdown_since_last_probe());
    check(out);
  }

  // Per untraced op: raw wall, and wall / CPU / makespan normalized.
  std::vector<double> latency, latency_norm, traced_norm, cpu_norm, makespan,
      makespan_norm, wire;
  const int min_ops = smoke ? 1 : (traced ? 2 * kMinTracedOps : kMinOps);
  const double loop0 = wall_s();
  int ops = 0;
  while (wall_s() - loop0 < seconds || ops < min_ops) {
    // The traced run alternates untraced and traced ops, so both sides of
    // obs.trace_overhead see the same machine state.
    const bool trace_this = traced && ops % 2 == 1;
    if (trace_this) ++trace.op;
    const double cpu0 = process_cpu_s();
    t0 = wall_s();
    const OpOutcome out = workload->op(trace_this ? &trace : nullptr);
    const double wall = wall_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    const double slowdown = slowdown_since_last_probe();
    check(out);
    ++ops;
    if (trace_this) {
      traced_norm.push_back(wall / slowdown);
      continue;
    }
    latency.push_back(wall);
    latency_norm.push_back(wall / slowdown);
    cpu_norm.push_back(cpu / slowdown);
    makespan.push_back(out.makespan_s);
    makespan_norm.push_back(out.makespan_s / slowdown);
    wire.push_back(static_cast<double>(out.wire_bytes));
  }
  const double loop_s = wall_s() - loop0;

  JsonLine result;
  if (!traced) {
    const auto sum = [](const std::vector<double>& v) {
      double total = 0;
      for (const double x : v) total += x;
      return total;
    };
    const double n = static_cast<double>(latency.size());
    std::printf("%d warm ops in %.3f s; tail = p75 of %zu samples; "
                "%d cold set-ups\n",
                ops, loop_s, latency.size(), kSetupReps);
    std::printf("speed probe (%d threads): median %.6f s over %zu probes, "
                "reference %.3f s\n",
                probe_threads, median(probes), probes.size(),
                probe.reference_seconds());
    std::printf("raw: latency_p50_s %.6f makespan_s %.6f setup_s %.6f\n",
                median(latency), median(makespan), median(setup_s));
    std::printf("times below are normalized to the reference machine speed:\n");
    result.add("latency_p50_s", median(latency_norm), "s");
    result.add("latency_p75_s", quantile(latency_norm, 0.75), "s");
    result.add("throughput_ops_s", n / sum(latency_norm), "1/s");
    result.add("cpu_s_per_op", sum(cpu_norm) / n, "s");
    result.add("makespan_s", median(makespan_norm), "s");
    result.add("wire_mb_per_op", median(wire) / 1e6, "MB");
    result.add("setup_s", median(setup_norm), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    ++trace.op;
    const Workload::Checks checks = workload->replay(trace);
    attempted += checks.attempted;
    failed += checks.failed;
    trace.add("obs.trace_overhead", median(traced_norm) / median(latency_norm) - 1.0);
    std::printf("%zu traced + %zu untraced ops in %.3f s\n", traced_norm.size(),
                latency.size(), loop_s);
    for (const Metric& m : kLayerMetrics) {
      const auto it = trace.samples().find(m.name);
      // A layer the workload's ops never enter reports 0.
      result.add(m.name, it == trace.samples().end() ? 0.0 : median(it->second), m.unit);
    }
    std::printf("span self time by name:\n");
    for (const auto& [span, self] : trace.spans.self_seconds_by_name()) {
      std::printf("  %-40s %10.6f s\n", span.c_str(), self);
    }
    if (!spans_out.empty()) {
      char header[256];
      std::snprintf(header, sizeof header,
                    "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"smoke\":%s}",
                    name.c_str(), seed, smoke ? "true" : "false");
      if (!trace.spans.write_json(spans_out, header)) {
        std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", trace.spans.spans().size(),
                  spans_out.c_str());
    }
  }
  result.print(attempted, failed);
  return failed == 0 ? 0 : 1;
}
