// The benchmark's workloads and the traced run's layer sink.
//
// A workload owns its generated inputs and its oracle, builds fresh
// program state on setup(), and runs one op per op() call. The program
// only ever receives relations: inputs come from rel::generate under the
// run's seed, and the oracle is computed once, outside any timed region.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cyclo/cyclo_join.h"
#include "spans.h"

namespace cj::perfbench {

/// Steady-clock seconds and process CPU (user + sys) seconds.
double wall_s();
double process_cpu_s();

/// What the benchmark checks and reports about one op.
struct OpOutcome {
  bool correct = false;
  /// RunReport::setup_wall + join_wall summed over the op's cyclo runs
  /// (virtual seconds on sim, engine wall seconds on rt); for the serve
  /// workload the serve-clock advance, i.e. the waves' summed total_wall.
  double makespan_s = 0;
  /// Ring payload the op moved: rotation plus keyed redistribution.
  std::uint64_t wire_bytes = 0;
};

/// Layer samples of the traced run. Every named sample list reduces to its
/// median when the per-layer metrics are printed.
class Trace {
 public:
  SpanRecorder spans;
  /// Op id the next spans belong to.
  int op = -1;

  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

  /// Accumulates one public cyclo call (run / run_shared / run_fragments)
  /// of the current op: its RunReport plus the wall and process CPU the
  /// benchmark measured around the call.
  void add_cyclo_call(const cyclo::RunReport& report, double wall, double cpu);
  /// Turns the accumulated calls into one sample per cyclo.* / ring.* /
  /// rt.* / sim.* / obs.* layer metric and resets the accumulator.
  void finish_cyclo_op();

 private:
  struct CycloOp {
    int calls = 0;
    double wall = 0, cpu = 0, total = 0;
    double setup = 0, join = 0, sync = 0, skew = 0;
    double busy_join = 0, busy_setup = 0, busy_all = 0;
    double rotation_bytes = 0, chunks = 0, flight_records = 0;
    std::vector<double> revolution_p50;
  };
  CycloOp cur_;
  std::map<std::string, std::vector<double>> samples_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const cyclo::ClusterConfig& cluster() const = 0;
  /// Generates the inputs from `seed` and computes the oracle (untimed).
  virtual void prepare(std::uint64_t seed) = 0;
  /// Drops any previous program state and builds it afresh (the part of
  /// setup_s before the first op).
  virtual void setup() = 0;
  /// Runs one op and checks it against the oracle. With a trace, records
  /// spans around the public calls and the op's layer samples.
  virtual OpOutcome op(Trace* trace) = 0;

  /// The relation pair whose host-0 fragments the traced run replays
  /// through the join kernels, with the band and algorithm of the op.
  struct KernelPair {
    const rel::Relation* rotating = nullptr;
    const rel::Relation* stationary = nullptr;
    std::uint32_t band = 0;
    bool sort_merge = false;
  };
  virtual KernelPair kernel_pair() const = 0;

  /// Oracle checks a replay made, and how many of them failed.
  struct Checks {
    int attempted = 0;
    int failed = 0;
  };
  /// Traced run only, after the ops: replays the rel, plan and ring layers
  /// on the workload's inputs and, where the op's API returns no
  /// RunReport (plan, serve), the op's cyclo calls.
  virtual Checks replay(Trace& trace) = 0;
};

/// Names of every workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The named workload at full or smoke (tiny, seconds-long) size; null for
/// an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, bool smoke);

}  // namespace cj::perfbench
