// Cyclo-join: distributed join processing on the Data Roundabout
// (paper Sec. IV). This is the library's top-level public API.
//
// One call to CycloJoin::run() simulates a full distributed execution:
//
//   1. distribute  — R and S are split evenly over the ring's hosts. Host i
//                    gets a view of its contiguous slice of the caller's
//                    relations, not a copy: the inputs outlive the
//                    (synchronous) run, and setup is the only reader,
//   2. setup       — each host prepares its stationary fragment S_i (hash
//                    tables / sort) and reorganizes its rotating fragment
//                    R_i into wire-ready chunks, once (Sec. IV-D). The large
//                    setup buffers come from the process-wide page pool
//                    (join/page_pool.h), so a repeated run re-faults none,
//   3. rotate+join — R chunks make one full revolution; every host joins
//                    every chunk against its S_i on its (virtual) cores
//                    while the roundabout moves data underneath,
//   4. collect     — per-host partial results R ⋈ S_i remain distributed;
//                    the report aggregates counts, checksums and timings.
//
// All join computation is executed for real (results are exact and
// checksummed); time, cores, NICs and wires are simulated — see DESIGN.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "cyclo/config.h"
#include "join/join_result.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "rel/relation.h"

namespace cj::cyclo {

/// Per-host measurements of one run.
struct HostStats {
  SimDuration setup = 0;       ///< setup-phase makespan on this host
  SimDuration join_phase = 0;  ///< join-phase makespan (includes sync)
  SimDuration sync = 0;        ///< join entity starved for data (Fig. 11)
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  std::uint64_t chunks_processed = 0;
  std::uint64_t bytes_sent = 0;
  /// Core-busy fraction during the join phase (Table I).
  double cpu_load_join = 0.0;
  /// Busy time by tag over the whole run ("join", "setup", "tcp-rx", ...).
  std::map<std::string, SimDuration> busy_by_tag;

  // ----- resilient-mode counters (all zero in fault-free runs) ---------
  std::uint64_t chunks_reinjected = 0;   ///< ack-timeout re-injections
  std::uint64_t chunks_recovered = 0;    ///< re-injected and later acked
  std::uint64_t corrupt_discards = 0;    ///< frames failing their checksum
  std::uint64_t stale_query_discards = 0;  ///< frames from another serving wave
  std::uint64_t duplicates_skipped = 0;  ///< re-injected copies not re-joined
  std::uint64_t send_failures = 0;       ///< sends lost to a dead neighbor
};

/// What the fault framework did to the run, and what it cost.
struct FaultReport {
  /// True when a host crashed: the result covers the surviving hosts only,
  /// i.e. exactly (R \ R_dead) joined with (S \ S_dead).
  bool degraded = false;
  std::vector<int> crashed_hosts;
  /// Rows of R / S resident on crashed hosts, excluded from the result.
  std::uint64_t lost_r_rows = 0;
  std::uint64_t lost_s_rows = 0;
  // ----- replication / exact recovery (resilience.replicate) -----------
  /// True when a crash was fully recovered from the ring-neighbor replica:
  /// the result is the exact R ⋈ S (degraded stays false, lost rows zero).
  bool recovered = false;
  /// Surviving successor that adopted the dead host's partition (-1: none).
  int adopter = -1;
  /// Replica payload bytes streamed during the replication phase (sum over
  /// hosts, first sends only).
  std::uint64_t replica_bytes = 0;
  /// Dead host's unretired chunks the adopter re-injected / re-registered
  /// from its replica log.
  std::uint64_t chunks_adopted = 0;
  /// Replica records re-sent after an ack timeout.
  std::uint64_t replicas_resent = 0;
  /// Crash-to-adoption-complete latency (replica promotion + replay setup).
  SimDuration recovery_time = 0;
  // Transient-fault accounting (sums over hosts / links).
  std::uint64_t messages_dropped = 0;    ///< injected link drops
  std::uint64_t messages_corrupted = 0;  ///< injected payload corruptions
  std::uint64_t retransmissions = 0;     ///< RDMA-level retransmits
  std::uint64_t rnr_retries = 0;         ///< receiver-not-ready backoffs
  std::uint64_t chunks_reinjected = 0;
  std::uint64_t chunks_recovered = 0;
  std::uint64_t corrupt_discards = 0;
  std::uint64_t duplicates_skipped = 0;
};

/// Per-host size of a materialized distributed output partition.
struct OutputFragment {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;  ///< materialized output bytes (rows × out-tuple)
};

/// Aggregated result + measurements of one cyclo-join run.
struct RunReport {
  // Global makespans (max over hosts; all hosts phase-start together).
  SimDuration setup_wall = 0;
  SimDuration join_wall = 0;
  SimDuration total_wall = 0;  ///< includes transport drain/teardown

  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;

  std::vector<HostStats> hosts;

  /// Payload bytes moved over the ring's data direction.
  std::uint64_t bytes_on_wire = 0;
  /// Observed throughput of the first data link during the join phase.
  double link_throughput_bps = 0.0;
  /// Mean per-host CPU load during the join phase (Table I's number).
  double cpu_load_join = 0.0;

  /// Materialized output (only when JoinSpec::materialize), per host.
  std::vector<join::JoinResult> host_results;

  /// Stable per-host output-partition sizes (one entry per host; empty
  /// unless JoinSpec::materialize). The supported way for benches and
  /// examples to size the distributed result without iterating
  /// host_results[i].output() ad hoc.
  std::vector<OutputFragment> output_fragments() const;

  /// Fault accounting; default-constructed (all zeros) in fault-free runs.
  FaultReport fault;

  /// The run's recorded trace (null unless ClusterConfig::trace.enabled).
  /// Export with trace->chrome_json() or trace->binary().
  std::shared_ptr<obs::Tracer> trace;
  /// The always-on flight recorder's bounded hop-record window (never null
  /// after a run). Stitch with obs::reconstruct_journeys, serialize with
  /// obs::blackbox_dump, or replay through obs::StragglerDetector.
  std::shared_ptr<obs::FlightRecorder> flight;
  /// Run metrics (counters/gauges/histograms) — always populated; see
  /// docs/OBSERVABILITY.md for the name catalog.
  obs::MetricsSnapshot metrics;
  /// Per-(host, phase) kernel profile (empty unless
  /// ClusterConfig::profile.enabled). Serialize with profile.to_json().
  obs::prof::KernelProfile profile;
};

/// One query riding a shared rotation (Data Cyclotron mode): its own
/// stationary relation and predicate parameters. The algorithm and
/// thread budget come from the shared JoinSpec.
struct SharedQuery {
  const rel::Relation* stationary = nullptr;
  /// Band half-width (sort-merge algorithm only; 0 = equi).
  std::uint32_t band = 0;
  /// Predicate (nested-loops algorithm only).
  std::function<bool(const rel::Tuple&, const rel::Tuple&)> predicate;
  /// Billing tag for this query's join work: core-busy time lands in the
  /// `busy.<tag>` counter (the serving layer uses "q<id>"). Empty = the
  /// default shared "join" tag, preserving solo-run accounting.
  std::string tag;
};

struct QueryResult {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

/// Pre-placed per-host inputs for one round of a multi-round plan
/// (src/plan): host i already holds rotating[i] and stationary[i] — e.g.
/// the distributed output partitions of a previous round, rebalanced by
/// ring::redistribute_by_key. Both vectors must have exactly the cluster's
/// num_hosts fragments (empty fragments are fine).
struct FragmentInputs {
  std::vector<rel::Relation> rotating;
  std::vector<rel::Relation> stationary;
};

/// Report of a shared-rotation run: the usual transport/phase measurements
/// plus one result per query.
struct SharedRunReport : RunReport {
  std::vector<QueryResult> queries;
};

/// Configured cyclo-join executor. Reusable across runs.
class CycloJoin {
 public:
  CycloJoin(ClusterConfig cluster, JoinSpec spec);

  /// Computes r ⋈ s with r rotating and s stationary. Inputs are split
  /// evenly across hosts (the paper assumes an even distribution of S);
  /// each host reads its slice in place. r and s may be the same relation.
  RunReport run(const rel::Relation& r, const rel::Relation& s);

  /// Data Cyclotron mode (the paper's ongoing-work direction, Sec. VII):
  /// ONE revolution of `rotating` serves every query concurrently — each
  /// host joins every passing chunk against all stationary fragments it
  /// hosts. Network traffic is paid once, not once per query. All queries
  /// use the spec's algorithm; band/predicate are per query.
  /// Materialization is not supported in shared mode.
  SharedRunReport run_shared(const rel::Relation& rotating,
                             const std::vector<SharedQuery>& queries);

  /// Runs ONE round on pre-placed per-host fragments instead of splitting
  /// whole relations: the distribute step is skipped and host i's inputs
  /// are exactly inputs.rotating[i] / inputs.stationary[i]. The run owns
  /// them and frees each host's fragments once its setup is done. This is the
  /// multi-round entry point PlanExecutor (src/plan) uses so intermediates
  /// never gather at a coordinator. Band/predicate come from the JoinSpec
  /// (single-query rounds only); both backends are supported.
  RunReport run_fragments(FragmentInputs inputs);

  const ClusterConfig& cluster_config() const { return cluster_; }
  const JoinSpec& spec() const { return spec_; }

 private:
  ClusterConfig cluster_;
  JoinSpec spec_;
};

}  // namespace cj::cyclo
