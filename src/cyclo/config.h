// Configuration of a cyclo-join run: the simulated cluster, the transport,
// and the local join algorithm.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "join/radix.h"
#include "net/link.h"
#include "obs/flight.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "rdma/verbs.h"
#include "rel/relation.h"
#include "ring/node.h"
#include "ring/rdma_wire.h"
#include "sim/fault.h"
#include "tcpsim/tcp.h"

namespace cj::cyclo {

enum class Transport { kRdma, kTcp };

/// Execution backend. kSim runs the cluster on the deterministic
/// single-threaded DES engine (virtual time, simulated transports). kRt
/// executes the same protocol as real concurrency: one OS thread plus a
/// wall-clock engine per host, real worker threads for the join kernels,
/// and shared-memory wires between neighbors (docs/RUNTIME.md). The
/// roundabout protocol itself is backend-agnostic; results are identical.
enum class Backend { kSim, kRt };

enum class Algorithm { kHashJoin, kSortMergeJoin, kNestedLoops };

struct ClusterConfig {
  /// Execution backend; see Backend. The rt backend ignores the simulated
  /// transport/link knobs below and supports crash-only fault plans.
  Backend backend = Backend::kSim;
  /// Ring size (number of hosts). The paper's testbed has up to six.
  int num_hosts = 6;
  /// Cores per host (the paper's blades are quad-core Xeons).
  int cores_per_host = 4;
  /// Calibrates this machine's measured CPU costs to the simulated host's
  /// core speed (see sim::CorePool). >1 slows the virtual host down.
  double cpu_scale = 1.0;
  /// Optional per-host overrides (heterogeneous clusters / stragglers);
  /// host i runs at cpu_scale * per_host_cpu_scale[i]. Empty = uniform.
  /// Paper Sec. V-D: the ring buffers keep one slow host from immediately
  /// stalling the rest of the ring. The rt backend honors values > 1 by
  /// stretching each probe to scale x its measured wall time on a real
  /// core (cpu_scale itself stays sim-only: wall time is already real).
  std::vector<double> per_host_cpu_scale;
  /// Billed whenever a core switches between different work tags — models
  /// the scheduler + cache-pollution overhead the paper attributes to
  /// kernel TCP (Sec. V-G). Zero for pure-RDMA experiments.
  SimDuration context_switch_cost = 0;

  net::LinkSpec link;
  Transport transport = Transport::kRdma;
  rdma::DeviceAttr rdma_attr;
  ring::RdmaWireConfig rdma_wire;
  tcpsim::TcpModelConfig tcp;
  ring::NodeConfig node;

  /// Fault schedule for this run. A non-empty plan switches the ring into
  /// resilient mode (framed messages, retire board, ring repair) and
  /// requires the RDMA transport; an empty plan leaves every code path
  /// byte-identical to a build without fault injection. Knobs for the
  /// resilient protocol itself (ack timeout, re-injection limit) live in
  /// node.resilience; its enabled/host_id/num_hosts fields are derived.
  sim::FaultPlan fault;

  /// Tracing knobs. When enabled, the runner installs an obs::Tracer on
  /// the engine for the run and attaches it to RunReport::trace.
  obs::TraceConfig trace;

  /// Kernel profiling knobs. When enabled, measured kernel regions record
  /// hardware-counter (or fallback cpu_ns) deltas per (host, phase) into
  /// RunReport::profile. Counter reads run inside measured closures, so a
  /// profiled run's virtual timings are perturbed — use for attribution,
  /// not for golden figures (docs/OBSERVABILITY.md).
  obs::prof::ProfileConfig profile;

  /// Flight-recorder sizing + black-box triggers. Unlike the tracer the
  /// recorder is *always on*: the runner installs one unconditionally
  /// (bounded memory, lock-free emits) and attach it to RunReport::flight.
  obs::FlightConfig flight;

  /// Live telemetry (rt backend): a background LiveSampler snapshots the
  /// metrics registry and runs the straggler detector while the ring spins.
  /// The sim backend replays the recorder through the same detector after
  /// the run, so both backends report the same straggler columns.
  obs::SamplerConfig sampler;
};

struct JoinSpec {
  Algorithm algorithm = Algorithm::kHashJoin;
  /// Concurrent join tasks per host during the join phase (the paper
  /// sweeps 1..4 "join threads" in Fig. 12).
  int join_threads = 4;
  /// Band half-width for sort-merge band joins (0 = equi-join).
  std::uint32_t band = 0;
  /// Predicate for the nested-loops fallback (must be set for kNestedLoops).
  std::function<bool(const rel::Tuple&, const rel::Tuple&)> predicate;
  /// Radix tuning for the hash join.
  join::RadixConfig radix;
  /// Materialize output tuples (tests/examples) instead of count+checksum.
  bool materialize = false;
};

}  // namespace cj::cyclo
