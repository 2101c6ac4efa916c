// The cyclo-join runner: the whole orchestration of one run, written once
// for both execution backends. What differs between the deterministic sim
// and the wall-clock rt backend sits behind the seam in cyclo/backend.h.
//
// The file has two layers. The plan/work layer validates and distributes a
// run and builds the kernel closures: plain data plus std::function
// closures with no engine affinity — a single implementation of it is what
// makes the two backends result-identical (tests/rt_test.cpp). The Runner
// drives that plan over a backend's hosts.
//
// Threading. On rt every host's coroutines run on that host's engine thread
// and the crash watcher runs on its own thread; on sim all of it runs on the
// one engine. Per-host state (plan, stats, adoption state, node) is touched
// only from its host's engine, with the barriers providing happens-before
// edges at phase boundaries. State shared across hosts (retire board, crash
// set, termination flags) lives behind mu_ on both backends.
//
// Termination (resilient mode). A host's outstanding_unacked() is private
// to its engine thread, so each host keeps an "injector done and all local
// chunks acked" flag, recomputed on its own thread at every ack, at
// injector completion and at the end of each recovery task. The detector
// combines those flags with the shared retire board under mu_.
#include "cyclo/cyclo_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "common/assert.h"
#include "cyclo/backend.h"
#include "cyclo/chunk.h"
#include "join/hash_join.h"
#include "join/join_result.h"
#include "join/nested_loops.h"
#include "join/sort_merge.h"
#include "join/staged.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/sampler.h"
#include "ring/frame.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/when_all.h"

namespace cj::cyclo {

namespace {

using detail::Rendezvous;

// ===== the plan/work layer =================================================

/// One query's state on one host: its stationary fragment (prepared) and
/// its partial result. With a single query this is classic cyclo-join;
/// with several, one rotation feeds them all (Data Cyclotron mode).
struct QueryState {
  /// The stationary fragment S_i, read in place: host i's slice of the
  /// caller's relation, or s_own's tuples in a run_fragments round. Valid
  /// through setup; nested loops also joins straight against it.
  std::span<const rel::Tuple> s_view;
  /// run_fragments only: the fragment this run owns (freed after setup
  /// unless nested loops still reads it).
  rel::Relation s_own;

  // The prepared form, per algorithm (nested loops needs none).
  std::optional<join::HashJoinStationary> hash;
  join::PoolArray<rel::Tuple> s_sorted;
  join::PoolArray<std::uint32_t> s_keys;  ///< s_sorted's key column

  std::uint32_t band = 0;
  const std::function<bool(const rel::Tuple&, const rel::Tuple&)>* predicate =
      nullptr;
  /// Core-busy billing tag (SharedQuery::tag; empty = the shared "join"
  /// tag). Chunk work items keep pointers into this string — HostPlan's
  /// query vector is sized once at plan time and never reallocates.
  std::string tag;

  join::JoinResult result{false};
  /// Resilient mode only: partial results keyed by the rotating chunk's
  /// origin host. A crash retracts R_dead by dropping its bucket — the
  /// reported result is exactly (R \ R_dead) ⋈ (S \ S_dead).
  std::vector<join::JoinResult> per_origin;
};

/// One host's share of the plan: its rotating fragment, its per-query
/// stationary fragments, and (after setup) its wire-ready chunk slab.
struct HostPlan {
  /// The rotating fragment R_i, read in place like QueryState::s_view;
  /// valid through setup.
  std::span<const rel::Tuple> r_view;
  rel::Relation r_own;  ///< run_fragments only; freed after setup
  std::vector<QueryState> queries;
  ChunkSlab slab;  // filled by the rotating-side setup job
};

/// The validated, distributed run: what every backend executes.
struct RunPlan {
  bool resilient = false;
  /// Ring-neighbor replication (exact-result crash recovery) is active:
  /// resilient mode plus the resilience.replicate knob.
  bool replicate = false;
  int radix_bits = 0;
  std::vector<HostPlan> hosts;
  /// Row counts per host at distribution time (degraded-loss accounting;
  /// the fragments are not read after setup).
  std::vector<std::uint64_t> r_rows;
  std::vector<std::uint64_t> s_rows;

  std::uint64_t global_chunks() const {
    std::uint64_t global = 0;
    for (const HostPlan& host : hosts) global += host.slab.num_chunks();
    return global;
  }
};

/// Host i's share of an even distribution over n hosts: rows
/// [i*rows/n, (i+1)*rows/n), the fragments rel::split_even would copy out.
std::span<const rel::Tuple> even_slice(std::span<const rel::Tuple> all, int i,
                                       int n) {
  const std::size_t rows = all.size();
  const std::size_t begin =
      rows * static_cast<std::size_t>(i) / static_cast<std::size_t>(n);
  const std::size_t end =
      rows * (static_cast<std::size_t>(i) + 1) / static_cast<std::size_t>(n);
  return all.subspan(begin, end - begin);
}

/// Validates the (cluster, spec, queries) combination and distributes the
/// rotating and stationary relations evenly over the hosts. Distribution is
/// by view: host i reads its slice of `r` and of each query's stationary
/// relation in place, so those relations must outlive the run (run and
/// run_shared are synchronous). `queries` must outlive the plan: QueryState
/// keeps pointers to the predicates.
///
/// When `frags` is non-null the distribute step is skipped entirely: host
/// i's inputs are moved out of frags->rotating[i] / frags->stationary[i]
/// (pre-placed fragments of a multi-round plan, see CycloJoin::
/// run_fragments) and owned by the plan, `r` is ignored, and the single
/// query's `stationary` pointer may be null. Everything downstream — setup
/// closures, chunking, replication, the resilient protocol — is identical.
RunPlan plan_run(const ClusterConfig& cluster, const JoinSpec& spec,
                 const rel::Relation& r,
                 const std::vector<SharedQuery>& queries,
                 FragmentInputs* frags = nullptr) {
  const int n = cluster.num_hosts;
  CJ_CHECK_MSG(!queries.empty(), "a run needs at least one query");
  if (frags != nullptr) {
    CJ_CHECK_MSG(queries.size() == 1,
                 "fragment-input runs are single-query rounds");
    CJ_CHECK_MSG(frags->rotating.size() == static_cast<std::size_t>(n) &&
                     frags->stationary.size() == static_cast<std::size_t>(n),
                 "fragment inputs need exactly one fragment per host");
  }
  if (spec.algorithm == Algorithm::kNestedLoops) {
    for (const auto& q : queries) {
      CJ_CHECK_MSG(static_cast<bool>(q.predicate),
                   "nested-loops cyclo-join needs a predicate");
    }
  }
  CJ_CHECK_MSG(!spec.materialize || queries.size() == 1,
               "materialization is only supported for single-query runs");

  RunPlan plan;
  plan.resilient = !cluster.fault.empty() && n > 1;
  plan.replicate = plan.resilient && cluster.node.resilience.replicate;
  // Materialization is safe in resilient mode: every add_match happens on
  // the deduplicated join path (re-injected copies carry the duplicate
  // flag and adopted joins consult the per-origin seen-sets), so the
  // materialized multiset equals exactly what the count/checksum cover —
  // exact under crash+replication, survivors-only in degraded runs. The
  // multi-round plan executor (src/plan) relies on this to keep a crashed
  // round's distributed output partitions usable downstream.
  if (!cluster.fault.crashes.empty()) {
    CJ_CHECK_MSG(cluster.fault.crashes.size() == 1,
                 "the fault framework supports at most one host crash");
    const sim::HostCrashSpec& crash = cluster.fault.crashes.front();
    CJ_CHECK_MSG(crash.host >= 0 && crash.host < n, "crash host out of range");
    CJ_CHECK_MSG(n >= 3, "surviving a crash needs at least three hosts");
  }

  // plan.hosts is sized once: the views into r_own/s_own stay valid.
  plan.hosts.resize(static_cast<std::size_t>(n));
  plan.s_rows.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    HostPlan& host = plan.hosts[static_cast<std::size_t>(i)];
    if (frags != nullptr) {
      host.r_own = std::move(frags->rotating[static_cast<std::size_t>(i)]);
      host.r_view = host.r_own.tuples();
    } else {
      host.r_view = even_slice(r.tuples(), i, n);
    }
    plan.r_rows.push_back(host.r_view.size());
    host.queries.resize(queries.size());
  }
  std::size_t max_s_rows = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    CJ_CHECK(frags != nullptr || queries[q].stationary != nullptr);
    for (int i = 0; i < n; ++i) {
      QueryState& state = plan.hosts[static_cast<std::size_t>(i)].queries[q];
      if (frags != nullptr) {
        state.s_own = std::move(frags->stationary[static_cast<std::size_t>(i)]);
        state.s_view = state.s_own.tuples();
      } else {
        state.s_view = even_slice(queries[q].stationary->tuples(), i, n);
      }
      state.band = queries[q].band;
      state.predicate = &queries[q].predicate;
      state.tag = queries[q].tag;
      state.result = join::JoinResult(spec.materialize);
      if (plan.resilient) {
        state.per_origin.reserve(static_cast<std::size_t>(n));
        for (int o = 0; o < n; ++o) {
          state.per_origin.emplace_back(spec.materialize);
        }
      }
      plan.s_rows[static_cast<std::size_t>(i)] += state.s_view.size();
      max_s_rows = std::max(max_s_rows, state.s_view.size());
    }
  }
  // Radix bits are a global agreement (every R chunk must be partitioned
  // exactly like every host's — and every query's — S_i).
  plan.radix_bits = join::choose_radix_bits(max_s_rows, spec.radix);
  return plan;
}

// ----- ring-neighbor replication (exact-result crash recovery) ------------
//
// With resilience.replicate on, every host streams its crash-relevant state
// to its ring successor during a dedicated replication phase (between
// transport bring-up and the join phase, so a scheduled crash can never
// interrupt it): the stationary fragment S_i of every query, in pieces, and
// a byte-exact copy of every encoded chunk of its rotating slab. Each
// record rides one kReplica frame (checksummed, acked, re-sent on timeout)
// and is prefixed by this header.

enum class ReplicaKind : std::uint32_t { kStationary = 0, kRotating = 1 };

struct ReplicaHeader {
  ReplicaKind kind = ReplicaKind::kStationary;
  std::uint32_t query = 0;  ///< kStationary: query index (0 otherwise)
  /// kStationary: piece index; kRotating: the chunk's slab index, which is
  /// also its ring sequence number (the injector assigns seqs in slab
  /// order) — the key the adopter uses to match the retire board and the
  /// seen-set against the replica log.
  std::uint32_t seq = 0;
  std::uint32_t count = 0;  ///< kStationary: tuples in this piece
};
static_assert(sizeof(ReplicaHeader) == 16);

/// One host's durable copy of its predecessor's crash-relevant state.
/// Filled by the node's on_replica callback (one-hop kReplica frames,
/// deduplicated at the ring layer); promoted to a live join partition by
/// the adoption step after the predecessor crashes.
struct ReplicaStore {
  int origin = -1;  ///< predecessor that streamed this state
  /// Per query: the predecessor's stationary fragment (piece order is
  /// irrelevant — the adopter re-hashes / re-sorts during promotion).
  std::vector<std::vector<rel::Tuple>> s_tuples;
  /// Byte-exact encoded chunks of the predecessor's rotating slab, keyed
  /// by slab index == ring sequence number.
  std::map<std::uint32_t, std::vector<std::byte>> r_chunks;

  void absorb(int from, std::span<const std::byte> record) {
    CJ_CHECK_MSG(record.size() >= sizeof(ReplicaHeader),
                 "truncated replica record");
    CJ_CHECK_MSG(origin == -1 || origin == from,
                 "replica records from two different predecessors");
    origin = from;
    ReplicaHeader header;
    std::memcpy(&header, record.data(), sizeof(ReplicaHeader));
    const auto body = record.subspan(sizeof(ReplicaHeader));
    if (header.kind == ReplicaKind::kStationary) {
      if (s_tuples.size() <= header.query) s_tuples.resize(header.query + 1);
      CJ_CHECK_MSG(body.size() == header.count * sizeof(rel::Tuple),
                   "stationary replica piece size mismatch");
      auto& dst = s_tuples[header.query];
      const std::size_t old = dst.size();
      dst.resize(old + header.count);
      std::memcpy(dst.data() + old, body.data(), body.size());
    } else {
      CJ_CHECK_MSG(header.kind == ReplicaKind::kRotating,
                   "unknown replica record kind");
      r_chunks[header.seq].assign(body.begin(), body.end());
    }
  }
};

/// Builds every replica record host `host` streams to its successor: the
/// stationary fragments split into `max_record_bytes`-sized pieces, then
/// the rotating slab chunk by chunk. Call after setup (the slab must be
/// written) and before the stationary fragments are released. Each record
/// (header + body) is owned storage: the ring node sends replica payloads
/// by reference, so records must outlive replicas_drained().
std::vector<std::vector<std::byte>> build_replica_records(
    const HostPlan& host, std::size_t max_record_bytes) {
  CJ_CHECK(max_record_bytes > sizeof(ReplicaHeader) + sizeof(rel::Tuple));
  const std::size_t body_budget = max_record_bytes - sizeof(ReplicaHeader);
  const std::size_t tuples_per_piece = body_budget / sizeof(rel::Tuple);
  std::vector<std::vector<std::byte>> records;
  const auto add = [&records](ReplicaHeader header,
                              std::span<const std::byte> body) {
    std::vector<std::byte>& record = records.emplace_back(
        sizeof(ReplicaHeader) + body.size());
    std::memcpy(record.data(), &header, sizeof(ReplicaHeader));
    std::memcpy(record.data() + sizeof(ReplicaHeader), body.data(),
                body.size());
  };
  for (std::size_t q = 0; q < host.queries.size(); ++q) {
    const auto tuples = host.queries[q].s_view;
    std::uint32_t piece = 0;
    for (std::size_t off = 0; off < tuples.size(); off += tuples_per_piece) {
      const std::size_t n = std::min(tuples_per_piece, tuples.size() - off);
      add({ReplicaKind::kStationary, static_cast<std::uint32_t>(q), piece++,
           static_cast<std::uint32_t>(n)},
          std::as_bytes(tuples.subspan(off, n)));
    }
  }
  for (std::size_t c = 0; c < host.slab.num_chunks(); ++c) {
    const auto chunk = host.slab.chunk(c);
    CJ_CHECK_MSG(chunk.size() <= body_budget,
                 "slab chunk exceeds the replica record budget");
    add({ReplicaKind::kRotating, 0, static_cast<std::uint32_t>(c), 0}, chunk);
  }
  return records;
}

/// The staged job (join/staged.h) that prepares one query's stationary
/// state from its s_view, `tasks` tasks per stage: hash build, or sort and
/// key column, per algorithm (nested loops joins s_view as it is, so its
/// job is empty).
/// s_view must stay valid until the job ran.
std::shared_ptr<join::StagedJob> stationary_job(const JoinSpec& spec,
                                                int radix_bits,
                                                QueryState* state, int tasks) {
  auto job = std::make_shared<join::StagedJob>(tasks);
  switch (spec.algorithm) {
    case Algorithm::kHashJoin:
      join::HashJoinStationary::build(state->s_view, radix_bits, spec.radix,
                                      *job, &state->hash.emplace());
      break;
    case Algorithm::kSortMergeJoin:
      join::sort_into(state->s_view, &state->s_sorted, *job, &state->s_keys);
      break;
    case Algorithm::kNestedLoops:
      break;
  }
  return job;
}

/// Splits [0, n) into `parts` near-even contiguous ranges.
std::vector<std::pair<std::size_t, std::size_t>> split_ranges(
    std::size_t n, int parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto p = static_cast<std::size_t>(std::max(1, parts));
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t begin = n * i / p;
    const std::size_t end = n * (i + 1) / p;
    if (begin != end) out.emplace_back(begin, end);
  }
  return out;
}

/// A contiguous range of one partition's tuples within a chunk: the unit of
/// probe work handed to one join thread. Probes are per-tuple, so a run may
/// be split at any point — this is what keeps all join threads busy even
/// when a chunk holds fewer partitions than the host has cores.
struct ProbeSlice {
  std::uint32_t partition_id;
  std::size_t tuple_offset;  // offset into the chunk's tuple array
  std::size_t count;
};

std::vector<std::vector<ProbeSlice>> split_probe_work(
    std::span<const PartitionRun> runs, int parts) {
  std::uint64_t total = 0;
  for (const auto& run : runs) total += run.count;
  std::vector<std::vector<ProbeSlice>> groups;
  if (total == 0) return groups;

  const std::uint64_t per_group = (total + static_cast<std::uint64_t>(parts) - 1) /
                                  static_cast<std::uint64_t>(parts);
  groups.emplace_back();
  std::uint64_t group_fill = 0;
  std::size_t offset = 0;
  for (const auto& run : runs) {
    std::size_t run_offset = 0;
    while (run_offset < run.count) {
      if (group_fill >= per_group) {
        groups.emplace_back();
        group_fill = 0;
      }
      const std::size_t take = std::min<std::size_t>(
          run.count - run_offset, static_cast<std::size_t>(per_group - group_fill));
      groups.back().push_back(
          ProbeSlice{run.partition_id, offset + run_offset, take});
      group_fill += take;
      run_offset += take;
    }
    offset += run.count;
  }
  return groups;
}

/// Builds host `origin`'s setup-phase jobs, `tasks` tasks per stage: one
/// for the rotating slab (reorganize R_i, then chunk it), then one per
/// query's stationary fragment. The caller runs them side by side on the
/// host's cores (tag "setup"). `host` must stay at a stable address until
/// every job has run.
///
/// Page-pool demand. The rotating job returns its scratch copy (clustered
/// or sorted R_i) to the pool as soon as the slab is written, and every
/// kernel allocates inside its job in the order of its inline version.
/// Where the jobs' work really runs one job after another — one task per
/// stage, or any simulated host (CorePool::run_stages runs a job's tasks
/// back to back) — the scratch copy is back in the pool before the
/// stationary side allocates: the host's demand only grows during setup
/// and peaks when it ends, so every host's peak coincides at the setup
/// barrier whatever the interleaving of hosts, and a repeated run finds a
/// parked block for every buffer. On rt with several cores the jobs run
/// side by side for real, and a host holds one more fragment-sized buffer
/// at its peak.
std::vector<std::shared_ptr<join::StagedJob>> setup_jobs(
    const JoinSpec& spec, int radix_bits, const ChunkWriter& writer, int origin,
    HostPlan* host, int tasks) {
  std::vector<std::shared_ptr<join::StagedJob>> out;
  auto job = std::make_shared<join::StagedJob>(tasks);
  switch (spec.algorithm) {
    case Algorithm::kHashJoin: {
      auto r_parts = std::make_shared<join::PartitionedData>();
      join::radix_cluster(host->r_view, radix_bits, spec.radix.bits_per_pass,
                          *job, r_parts.get());
      writer.from_partitioned(*r_parts, origin, *job, &host->slab);
      job->add_serial([r_parts] { *r_parts = join::PartitionedData(); });
      break;
    }
    case Algorithm::kSortMergeJoin: {
      auto r_sorted = std::make_shared<join::PoolArray<rel::Tuple>>();
      join::sort_into(host->r_view, r_sorted.get(), *job);
      writer.from_sorted(*r_sorted, origin, *job, &host->slab);
      job->add_serial([r_sorted] { *r_sorted = join::PoolArray<rel::Tuple>(); });
      break;
    }
    case Algorithm::kNestedLoops:
      writer.from_raw(host->r_view, origin, *job, &host->slab);
      break;
  }
  out.push_back(std::move(job));
  for (auto& query : host->queries) {
    out.push_back(stationary_job(spec, radix_bits, &query, tasks));
  }
  return out;
}

/// One chunk's join work against every query on one host: per-item
/// closures writing into per-item partial results, merged into the
/// per-query sinks after all items ran. The struct must stay at a stable
/// address while the items run (closures point into `partials`).
struct ChunkJoinWork {
  // deque: references to elements stay valid while later queries append.
  std::deque<join::JoinResult> partials;
  std::vector<join::JoinResult*> sinks;  ///< parallel to partials
  std::vector<std::function<void()>> items;
  /// Parallel to items: the owning query's billing tag (QueryState::tag;
  /// empty = the shared "join" tag).
  std::vector<const std::string*> tags;
  /// When the first item started on a core. Items queue behind the
  /// previous chunk's (look-ahead), so the chunk's probe time counts from
  /// here, not from submission. Written from the cores (worker threads on
  /// rt).
  std::atomic<SimTime> first_start{std::numeric_limits<SimTime>::max()};

  void note_start(SimTime now) {
    SimTime seen = first_start.load();
    while (now < seen && !first_start.compare_exchange_weak(seen, now)) {
    }
  }

  /// Call after every item completed (single-threaded with respect to the
  /// sinks — each host merges only into its own QueryStates).
  void merge_into_sinks() {
    for (std::size_t p = 0; p < partials.size(); ++p) {
      sinks[p]->merge(partials[p]);
    }
  }
};

/// One chunk's join work against a single query's stationary state, written
/// into `sink`: one item per join thread, each over a contiguous range of
/// the chunk. Shared by the regular per-host path (join_chunk) and the
/// adopter's promoted-replica partition.
void build_query_chunk_work(const JoinSpec& spec, int radix_bits,
                            QueryState& query, join::JoinResult* sink,
                            const ChunkView& view, ChunkJoinWork& out) {
  const int parts = spec.join_threads;
  QueryState* state = &query;
  // Each item joins into its own partial (a deque: addresses stay stable).
  const auto add_item = [&](auto join_into) {
    join::JoinResult* partial = &out.partials.emplace_back(spec.materialize);
    out.sinks.push_back(sink);
    out.tags.push_back(&state->tag);
    out.items.push_back(
        [join_into = std::move(join_into), partial] { join_into(*partial); });
  };
  switch (spec.algorithm) {
    case Algorithm::kHashJoin:
      CJ_CHECK_MSG(view.kind == ChunkKind::kPartitioned,
                   "hash cyclo-join received a non-partitioned chunk");
      CJ_CHECK_MSG(view.radix_bits == radix_bits,
                   "chunk partitioned with different radix bits");
      for (auto& slices : split_probe_work(view.runs, parts)) {
        add_item([state, view, slices = std::move(slices)](
                     join::JoinResult& partial) {
          for (const ProbeSlice& slice : slices) {
            state->hash->probe_partition(
                slice.partition_id,
                view.tuples.subspan(slice.tuple_offset, slice.count), partial);
          }
        });
      }
      break;
    case Algorithm::kSortMergeJoin: {
      CJ_CHECK_MSG(view.kind == ChunkKind::kSorted,
                   "sort-merge cyclo-join received an unsorted chunk");
      const std::uint32_t band = state->band;
      const join::KernelConfig kernel = spec.radix.kernel;
      for (const auto& range : split_ranges(view.tuples.size(), parts)) {
        add_item([state, view, range, band, kernel](join::JoinResult& partial) {
          auto r_range =
              view.tuples.subspan(range.first, range.second - range.first);
          auto window = join::matching_window(
              state->s_sorted, r_range.front().key, r_range.back().key, band);
          join::band_merge_join(
              r_range, window,
              state->s_keys.data() + (window.data() - state->s_sorted.data()),
              band, partial, kernel);
        });
      }
      break;
    }
    case Algorithm::kNestedLoops:
      for (const auto& range : split_ranges(view.tuples.size(), parts)) {
        add_item([state, view, range](join::JoinResult& partial) {
          join::nested_loops_join(
              view.tuples.subspan(range.first, range.second - range.first),
              state->s_view, *state->predicate, partial);
        });
      }
      break;
  }
}

// ----- the join entity's look-ahead ------------------------------------------

/// One chunk's way through the join entity: join it, wait until the chunk
/// before it is released, then release it (forward or retire). A function
/// coroutine, so its arguments live in its own frame.
sim::Task<void> chunk_stage(sim::Task<void> join, std::function<void()> release,
                            std::shared_ptr<sim::Event> before,
                            std::shared_ptr<sim::Event> released) {
  co_await std::move(join);
  if (before != nullptr) co_await before->wait();
  if (release) release();
  released->set();
}

/// The join entity's one chunk of look-ahead, shared by every join loop.
/// push() starts a chunk's join at once — its core tasks queue right
/// behind the previous chunk's, so a core that finishes early picks up the
/// next chunk's work — and returns once the previous chunk is released, so
/// at most two chunks are in flight. Chunks are released in push order,
/// each as soon as its own join is done and its predecessor is released; a
/// release never waits for a later arrival (rule 3 of ring/node.h).
class LookAhead {
 public:
  explicit LookAhead(sim::Engine& engine) : engine_(engine) {}

  /// `release` runs on the host's engine; null for a resident chunk.
  sim::Task<void> push(sim::Task<void> join, std::function<void()> release) {
    auto released = std::make_shared<sim::Event>(engine_, "chunk-released");
    std::shared_ptr<sim::Event> before = std::exchange(last_, released);
    engine_.spawn(
        chunk_stage(std::move(join), std::move(release), before, released),
        "chunk");
    if (before != nullptr) co_await before->wait();
  }

  /// Completes once every pushed chunk is released.
  sim::Task<void> drain() {
    if (last_ != nullptr) co_await last_->wait();
  }

 private:
  sim::Engine& engine_;
  std::shared_ptr<sim::Event> last_;  ///< the newest chunk's release
};

// ===== the runner ===========================================================

/// Core-busy tags: setup, untagged join work, and the promotion of and
/// joins against an adopted partition.
const std::string kSetupTag = "setup";
const std::string kJoinTag = "join";
const std::string kAdoptTag = "adopt";

/// Everything one host owns during a run beyond its share of the plan
/// (which lives in RunPlan::hosts at a stable address).
struct HostRun {
  HostPlan* plan = nullptr;

  /// CorePool cap holding join tasks to `join_threads` cores at once (the
  /// rest stay free for the TCP stack).
  int join_cap = sim::CorePool::kUncapped;

  HostStats stats;
  SimTime done_at = 0;
  /// Set once the injector sent its last first copy (resilient mode); the
  /// replay task awaits it so replay seqs extend the slab numbering instead
  /// of colliding with it.
  std::unique_ptr<sim::Event> injector_done;

  // ----- adoption state (resilience.replicate; installed on the dead
  // host's surviving successor only, on that host's engine) --------------
  /// Dead origin this host adopted (-1: none).
  int adopted_origin = -1;
  /// The promoted replica partition: one state per query, `result` as sink.
  std::vector<QueryState> adopted;
  /// Per origin: seqs already joined against the adopted partition. At
  /// install time each surviving origin's entry is pre-marked with the
  /// seen-set snapshot — those chunks' adopted joins arrive as replay
  /// copies, so a stale original duplicate must not double-join.
  std::vector<std::set<std::uint32_t>> adopted_seen;
  /// Set once the adopted partition is built; the join loop parks until
  /// then so no post-adoption arrival misses its adopted join.
  std::unique_ptr<sim::Event> adoption_ready;
};

class Runner final : public detail::CrashHandler {
 public:
  Runner(const ClusterConfig& cfg, const JoinSpec& spec,
         const rel::Relation& r, const std::vector<SharedQuery>& queries,
         FragmentInputs* frags = nullptr)
      : cfg_(cfg),
        spec_(spec),
        n_(cfg.num_hosts),
        queries_(queries),  // owned copy: QueryState keeps pointers into it
        created_(sim::Engine::WallClock::now()),
        plan_(plan_run(cfg_, spec_, r, queries_, frags)) {}

  SharedRunReport execute() {
    // The flight recorder is always on: bounded memory, lock-free emits,
    // installed before any node can run (ring/node.cpp reads it per hop).
    flight_ = std::make_shared<obs::FlightRecorder>(n_, cfg_.flight);
    if (cfg_.trace.enabled) tracer_ = std::make_shared<obs::Tracer>();
    if (cfg_.profile.enabled) {
      profiler_ = std::make_unique<obs::prof::KernelProfiler>();
    }
    backend_ = cfg_.backend == Backend::kRt
                   ? detail::make_rt_backend(cfg_, plan_.resilient, created_,
                                             flight_.get(), tracer_.get())
                   : detail::make_sim_backend(cfg_, flight_.get(), tracer_.get());
    const auto n = static_cast<std::size_t>(n_);
    inject_times_.resize(n);
    retired_board_.resize(n);
    acked_clear_.assign(n, false);
    replicas_.resize(n);
    replica_records_.resize(n);
    for (int i = 0; i < n_; ++i) {
      auto host = std::make_unique<HostRun>();
      host->plan = &plan_.hosts[static_cast<std::size_t>(i)];
      host->join_cap = cores(i).add_cap(spec_.join_threads);
      if (plan_.resilient) {
        host->injector_done =
            std::make_unique<sim::Event>(engine(i), "injector-done");
        // Runs on host i's engine each time one of i's local chunks is
        // acknowledged (must be installed before any node starts).
        node(i).set_on_ack([this, i] { refresh_host(i); });
      }
      if (plan_.replicate) {
        // Runs on host i's engine (the receiver consumes kReplica frames
        // inline), so the store needs no lock.
        node(i).set_on_replica(
            [this, i](int origin, std::span<const std::byte> record) {
              replicas_[static_cast<std::size_t>(i)].absorb(origin, record);
            });
      }
      hosts_.push_back(std::move(host));
      // Roots are spawned before any engine runs (on rt, the engine
      // threads' creation publishes them).
      engine(i).spawn(host_process(i), "host" + std::to_string(i));
    }
    // Live telemetry: a background sampler thread snapshots the metrics
    // registry and runs the straggler detector over fresh recorder records
    // while the ring spins (engines share an epoch, so any host's now()
    // yields coherent sample timestamps).
    if (backend_->live_sampling()) {
      sampler_ = std::make_unique<obs::LiveSampler>(
          cfg_.sampler, &metrics_, flight_.get(), tracer_.get(), n_,
          [this] { return engine(0).now(); });
      sampler_->start();
    }
    backend_->run(*this);
    // Final sample + lane drain happen inside stop(); the detector's
    // verdicts are read (single-threaded again) in fill_metrics.
    if (sampler_ != nullptr) sampler_->stop();
    return build_report();
  }

 private:
  HostRun& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  sim::Engine& engine(int i) { return backend_->engine(i); }
  sim::CorePool& cores(int i) { return backend_->cores(i); }
  ring::RoundaboutNode& node(int i) { return backend_->node(i); }

  sim::Task<void> host_process(int i) {
    HostRun& host = this->host(i);
    sim::Engine& engine = this->engine(i);
    sim::CorePool& cores = this->cores(i);
    ring::RoundaboutNode& node = this->node(i);

    // ---- setup phase -------------------------------------------------
    // Every query's stationary state plus the rotating slab, prepared on
    // all of this host's cores: one staged job per side (join/staged.h),
    // each stage split into one task per core, and the jobs run side by
    // side, like the paper's parallel hash-build/sort setup. Resilient
    // frames travel in-buffer ahead of the payload, so chunks leave them
    // headroom (or a full chunk would overflow the ring buffer); with
    // replication on, chunks additionally ride inside replica records and
    // leave room for the record header too.
    const SimTime setup_start = engine.now();
    if (obs::Tracer* t = engine.tracer()) t->begin(setup_start, i, "phase", "setup");
    {
      const ChunkWriter writer(
          cfg_.node.buffer_bytes - (plan_.resilient ? ring::kFrameBytes : 0) -
          (plan_.replicate ? sizeof(ReplicaHeader) : 0));
      std::vector<sim::Task<void>> jobs;
      for (auto& job : setup_jobs(spec_, plan_.radix_bits, writer, i,
                                  host.plan, cfg_.cores_per_host)) {
        jobs.push_back(run_job(i, std::move(job), kSetupTag, "core"));
      }
      co_await sim::when_all(engine, std::move(jobs));
    }
    flush_profile(engine);
    if (obs::Tracer* t = engine.tracer()) t->end(engine.now(), i, "phase");
    host.stats.setup = engine.now() - setup_start;
    if (plan_.replicate) {
      // Serialize this host's crash-relevant state (S_i pieces + the slab's
      // encoded chunks) while the fragments are still resident; the records
      // stream to the successor once the ring is up.
      replica_records_[static_cast<std::size_t>(i)] = build_replica_records(
          *host.plan, cfg_.node.buffer_bytes - ring::kFrameBytes);
    }
    // Setup read the inputs for the last time: free the fragments a
    // run_fragments round owns (nested loops still joins against S).
    host.plan->r_own = rel::Relation();
    if (spec_.algorithm != Algorithm::kNestedLoops) {
      for (auto& query : host.plan->queries) query.s_own = rel::Relation();
    }

    co_await backend_->arrive_and_wait(Rendezvous::kSetupDone, i);

    // ---- transport bring-up -------------------------------------------
    // Counts are known only now (chunking is data-dependent); the barrier
    // above also publishes every host's slab. With retire acks every host
    // sends and receives exactly G messages (see ring/node.h).
    // Replica records are sent from where they were serialized, so they
    // register up front like the slab (Sec. III-C: never on the data path).
    auto& records = replica_records_[static_cast<std::size_t>(i)];
    {
      std::vector<std::span<std::byte>> slabs;
      ring::NodeCounts counts;
      if (n_ > 1) {
        slabs.push_back(host.plan->slab.slab());
        slabs.insert(slabs.end(), records.begin(), records.end());
        counts = ring::NodeCounts{plan_.global_chunks(), plan_.global_chunks()};
      }
      const Status started = co_await node.start(counts, std::move(slabs));
      CJ_CHECK_MSG(started.is_ok(), started.to_string().c_str());
    }
    co_await backend_->arrive_and_wait(Rendezvous::kTransportUp, i);
    if (plan_.replicate) {
      // ---- replication phase -------------------------------------------
      // Stream the replica of this host's state one hop ahead, then wait
      // until the successor acked every record. The barrier (and the crash
      // gate staying closed until after it) guarantees a crash never
      // interrupts replication: every host's replica is complete before
      // any chunk rotates.
      if (obs::Tracer* t = engine.tracer()) {
        t->begin(engine.now(), i, "phase", "replicate");
      }
      for (const auto& record : records) co_await node.send_replica(record);
      co_await node.replicas_drained();
      co_await backend_->arrive_and_wait(Rendezvous::kReplicated, i);
      // The records stay resident (they are registered memory; freeing them
      // would leave stale regions in the protection domain).
      if (obs::Tracer* t = engine.tracer()) t->end(engine.now(), i, "phase");
    }
    if (plan_.resilient) backend_->open_crash_gate();

    // ---- join phase ----------------------------------------------------
    const SimTime join_start = engine.now();
    const SimDuration busy_at_join_start = cores.busy_total();
    if (obs::Tracer* t = engine.tracer()) t->begin(join_start, i, "phase", "join");

    // A resilient injector runs even with nothing to inject: its end is
    // what the termination detector and the replay task wait for.
    if (plan_.resilient || (n_ > 1 && host.plan->slab.num_chunks() > 0)) {
      engine.spawn(injector(i), "injector" + std::to_string(i));
    }

    // The join entity, with one chunk of look-ahead (LookAhead): local
    // chunks first (they are resident), then arrivals in ring order. Slab
    // order is injection order, so chunk index == wire seq.
    LookAhead pipeline(engine);
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      if (plan_.resilient && node.stopped()) break;  // this host died mid-run
      co_await pipeline.push(
          join_chunk(i, decode_chunk(host.plan->slab.chunk(c)),
                     plan_.resilient ? i : -1, static_cast<std::uint32_t>(c)),
          nullptr);
    }
    if (plan_.resilient) {
      // Dynamic termination: pull chunks until the retire-board detector
      // (or this host's own crash) delivers a stop chunk. An all-empty run
      // produces no acks or retires, so kick the detector once here.
      maybe_finish();
      while (true) {
        ring::InboundChunk inbound = co_await node.next_chunk();
        if (inbound.stop) break;
        if (host.adopted_origin >= 0 && !host.adoption_ready->is_set()) {
          // Adopter with the partition still being promoted: every arrival
          // from here on may need an adopted join too — park until the
          // build finishes (the ring backs up behind this host's buffers
          // briefly; that stall is recovery's latency cost, not a
          // deadlock: promotion runs on cores, not the ring).
          co_await host.adoption_ready->wait();
        }
        const ChunkView view = decode_chunk(inbound.payload);
        const int origin = inbound.origin;
        const std::uint32_t seq = inbound.seq;
        // The adopter joins every chunk once against the adopted partition:
        // replay copies (of chunks it consumed before the install) and
        // post-adoption arrivals not covered by the replay snapshot.
        const bool adopted_join =
            host.adopted_origin >= 0 && origin != host.adopted_origin &&
            host.adopted_seen[static_cast<std::size_t>(origin)]
                .insert(seq)
                .second;
        // A recovery replay copy is joined only at the adopter. It retires
        // at its (live) origin's predecessor but never touches the retire
        // board — the original already accounted there. Degraded mode
        // (home < 0): a dead origin can neither take an ack nor re-inject,
        // so the first surviving host that notices retires its chunk
        // quietly, unjoined.
        const int home = inbound.replay ? origin : retire_home(origin);
        co_await pipeline.push(
            join_arrival(i, view, origin, seq,
                         home >= 0 && !inbound.replay && !inbound.duplicate,
                         home >= 0 && adopted_join),
            [this, i, home, inbound] {
              if (home < 0) {
                this->node(i).retire(inbound, /*send_ack=*/false);
              } else if (surviving_successor(i) != home) {
                this->node(i).forward(inbound);
              } else {
                // Full revolution completed: ack the origin.
                this->node(i).retire(inbound);
                if (!inbound.replay) note_retired(inbound.origin, inbound.seq);
              }
            });
      }
    } else {
      const std::uint64_t arrivals =
          n_ > 1 ? plan_.global_chunks() - host.plan->slab.num_chunks() : 0;
      for (std::uint64_t k = 0; k < arrivals; ++k) {
        ring::InboundChunk inbound = co_await node.next_chunk();
        const ChunkView view = decode_chunk(inbound.payload);
        co_await pipeline.push(
            join_chunk(i, view), [this, i, inbound, origin = view.origin_host] {
              if ((i + 1) % n_ == origin) {
                record_revolution(origin, this->engine(i).now());
                this->node(i).retire(inbound);  // full revolution completed
              } else {
                this->node(i).forward(inbound);
              }
            });
      }
    }
    // A stop chunk can overtake the chunk still joining; it is released
    // (forwarded or retired) as it would have been before the stop.
    co_await pipeline.drain();

    const SimTime join_end = engine.now();
    if (obs::Tracer* t = engine.tracer()) t->end(join_end, i, "phase");
    host.stats.join_phase = join_end - join_start;
    host.stats.sync = node.sync_time();
    host.stats.cpu_load_join =
        cores.utilization(busy_at_join_start, host.stats.join_phase);

    co_await backend_->arrive_and_wait(Rendezvous::kJoinDone, i);
    co_await node.drain();

    host.stats.bytes_sent = node.bytes_sent();
    host.stats.busy_by_tag = cores.busy_by_tag();
    host.stats.chunks_reinjected = node.chunks_reinjected();
    host.stats.chunks_recovered = node.chunks_recovered();
    host.stats.corrupt_discards = node.chunks_discarded_corrupt();
    host.stats.stale_query_discards = node.stale_query_discards();
    host.stats.duplicates_skipped = node.duplicates_skipped();
    host.stats.send_failures = node.send_failures();
    host.done_at = engine.now();
  }

  sim::Task<void> injector(int i) {
    HostRun& host = this->host(i);
    ring::RoundaboutNode& node = this->node(i);
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      if (plan_.resilient && node.stopped()) break;  // this host died
      co_await node.send_local(host.plan->slab.chunk(c));
      // send_local resumes us once the chunk is queued, so this timestamp
      // is the chunk's injection time. The retire side pops the front
      // entry: the ring preserves per-origin order.
      if (!plan_.resilient) {
        std::lock_guard<std::mutex> lk(mu_);
        inject_times_[static_cast<std::size_t>(i)].push_back(engine(i).now());
      }
    }
    if (plan_.resilient) {
      host.injector_done->set();
      refresh_host(i);
    }
  }

  /// A chunk from `origin` just completed its revolution at pred(origin):
  /// sample the revolution makespan (non-resilient runs only — re-injection
  /// makes the pairing ambiguous under faults). Exact on both backends:
  /// every host releases its chunks in arrival order (LookAhead), so an
  /// origin's chunks retire in injection order.
  void record_revolution(int origin, SimTime now) {
    std::lock_guard<std::mutex> lk(mu_);
    auto& pending = inject_times_[static_cast<std::size_t>(origin)];
    if (pending.empty()) return;
    metrics_.record("revolution_ns", now - pending.front());
    pending.pop_front();
  }

  // Wraps a measured closure so that kernel regions inside it attribute
  // their counter deltas to host i. The context is installed on whichever
  // thread runs the kernel; the profiler accumulates under its own lock.
  // When profiling is off the wrapper costs one null test; the counter
  // reads it enables when ON run inside the measured region and perturb
  // the timings (ProfileConfig docs).
  std::function<void()> profiled(int i, std::function<void()> fn,
                                 const char* phase = "core") {
    return [this, i, phase, fn = std::move(fn)] {
      obs::prof::ScopedContext ctx(profiler_.get(), i, phase);
      fn();
    };
  }

  // Runs a staged setup job on host i's cores, billed to `tag`
  // (CorePool::run_stages). A one-task job runs whole as one core task:
  // its stages are sequential anyway, and one dispatch costs less than one
  // per stage.
  sim::Task<void> run_job(int i, std::shared_ptr<join::StagedJob> job,
                          std::string tag, const char* phase) {
    if (job->stages() == 0) co_return;
    // The awaited tasks are built in locals: GCC 12 destroys temporaries of
    // an awaited expression twice.
    if (job->tasks() == 1) {
      sim::Task<void> whole =
          cores(i).run(profiled(i, [job] { job->run_inline(); }, phase), tag);
      co_await std::move(whole);
      co_return;
    }
    sim::Task<void> staged = cores(i).run_stages(
        [this, i, job, phase](std::size_t stage, int t) {
          profiled(i, [&] { job->run(stage, t); }, phase)();
        },
        job->stages(), job->tasks(), std::move(tag));
    co_await std::move(staged);
  }

  // Streams the profile's changed counter tracks into the trace. Must be
  // called from engine code, never from inside a measured closure (the
  // flush itself is not kernel work).
  void flush_profile(sim::Engine& engine) {
    if (profiler_ != nullptr && tracer_ != nullptr) {
      profiler_->flush_to_tracer(*tracer_, engine.now());
    }
  }

  // ----- join work -------------------------------------------------------

  // Joins one chunk against every query's stationary state on host i.
  // `origin`/`seq` identify the chunk for the flight recorder's probe
  // record (-1 = no wire identity, fault-free runs).
  sim::Task<void> join_chunk(int i, ChunkView view, int origin = -1,
                             std::uint32_t seq = 0) {
    HostRun& host = this->host(i);
    ++host.stats.chunks_processed;
    ChunkJoinWork work;
    for (auto& query : host.plan->queries) {
      // Resilient mode tallies per origin so a crash can retract R_dead.
      join::JoinResult* sink =
          plan_.resilient
              ? &query.per_origin[static_cast<std::size_t>(view.origin_host)]
              : &query.result;
      build_query_chunk_work(spec_, plan_.radix_bits, query, sink, view, work);
    }
    co_await run_probe(i, work, /*adopted=*/false, origin, seq,
                       view.tuples.size() * host.plan->queries.size());
  }

  // A resilient arrival's joins: against this host's own queries unless it
  // is a duplicate or replay copy, and against the adopted partition when
  // this host adopted a dead origin and has not joined the chunk there yet.
  sim::Task<void> join_arrival(int i, ChunkView view, int origin,
                               std::uint32_t seq, bool own, bool adopted) {
    if (own) co_await join_chunk(i, view, origin, seq);
    if (adopted) co_await join_adopted_chunk(i, view, origin, seq);
  }

  // Joins one chunk against the adopter's promoted replica partition
  // (recovery only). The sinks are the adopted QueryStates' own results so
  // recovered matches stay separately attributable.
  sim::Task<void> join_adopted_chunk(int i, ChunkView view, int origin,
                                     std::uint32_t seq) {
    HostRun& host = this->host(i);
    ChunkJoinWork work;
    for (auto& query : host.adopted) {
      build_query_chunk_work(spec_, plan_.radix_bits, query, &query.result,
                             view, work);
    }
    co_await run_probe(i, work, /*adopted=*/true, origin, seq,
                       view.tuples.size() * host.adopted.size());
  }

  // Runs one chunk's join items on host i's cores, at most join_threads at
  // a time (the host's join cap), then merges them and records the probe
  // hop. Busy time bills to the owning query's tag so the serving layer can
  // attribute core time per query (untagged queries share "join"); adopted
  // joins bill to "adopt". While the items are in flight, the node does not
  // count the join entity's waiting as sync.
  sim::Task<void> run_probe(int i, ChunkJoinWork& work, bool adopted,
                            int origin, std::uint32_t seq,
                            std::uint64_t tuples) {
    HostRun& host = this->host(i);
    sim::Engine& engine = this->engine(i);
    probe_tuples_ += tuples;
    node(i).note_join_work(+1);
    std::vector<sim::Task<void>> tasks;
    for (std::size_t k = 0; k < work.items.size(); ++k) {
      const std::string& tag = adopted                 ? kAdoptTag
                               : work.tags[k]->empty() ? kJoinTag
                                                       : *work.tags[k];
      std::function<void()> item = [&work, &engine,
                                    fn = std::move(work.items[k])] {
        work.note_start(engine.now());
        fn();
      };
      tasks.push_back(cores(i).run(
          profiled(i, std::move(item), adopted ? "adopt" : "core"), tag,
          host.join_cap));
    }
    co_await sim::when_all(engine, std::move(tasks));
    const SimTime probe_start = std::min(work.first_start.load(), engine.now());
    // The backend may ask for a slower probe (rt's per_host_cpu_scale). The
    // spin is a plain core task — it occupies a core and bills to join busy
    // time like genuinely slower compute — and stays outside profiled() so
    // kernel profiles are unperturbed.
    const SimDuration extra =
        backend_->probe_stretch(i, engine.now() - probe_start);
    if (extra > 0) {
      co_await cores(i).run(
          [extra] {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::nanoseconds(extra);
            while (std::chrono::steady_clock::now() < until) {
            }
          },
          kJoinTag, host.join_cap);
    }
    flush_profile(engine);
    work.merge_into_sinks();
    node(i).note_join_work(-1);
    flight_probe(i, origin, seq, probe_start);
  }

  // One flight record from runner code (probe hops; the per-hop wire
  // records come from ring/node.cpp). Never called inside a measured
  // closure, so the emit cannot perturb kernel timings.
  void flight_probe(int i, int origin, std::uint32_t seq, SimTime start) {
    const SimTime now = engine(i).now();
    flight_->emit(
        i, obs::FlightRecord{
               .ts = now,
               .seq = seq,
               .origin = origin < 0 ? obs::kNoOrigin
                                    : static_cast<std::uint16_t>(origin),
               .query = cfg_.node.resilience.query_group,
               .host = static_cast<std::int16_t>(i),
               .kind = obs::HopKind::kProbe,
               .arg_us = obs::saturating_us(now - start)});
  }

  // ----- resilient-mode termination detection ----------------------------

  /// The host whose predecessor retires origin's chunks: the origin itself,
  /// or — under recovery, where a dead origin's chunks stay first-class —
  /// the adopter, which consumes their acks on the dead host's behalf. -1
  /// for a dead origin without recovery. Recovery mode is published
  /// together with the crash, so no chunk is quiet-retired in the window
  /// before adoption installs.
  int retire_home(int origin) {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_.count(origin) == 0) return origin;
    return recovering_ ? adopter_ : -1;
  }

  /// The next alive host downstream of i on the (possibly spliced) ring.
  /// Caller holds mu_.
  int surviving_successor_locked(int i) const {
    int s = (i + 1) % n_;
    while (crashed_.count(s) != 0) s = (s + 1) % n_;
    return s;
  }

  int surviving_successor(int i) {
    std::lock_guard<std::mutex> lk(mu_);
    return surviving_successor_locked(i);
  }

  /// Host i's engine: recomputes i's acked-clear flag, then runs the
  /// detector. Called at every ack of one of i's local (or adopted) chunks,
  /// when i's injector finished, and at the end of each recovery task on i
  /// (which may have registered no new work, so no ack would recompute the
  /// flag). Until the injector finished the flag stays false — a transient
  /// outstanding == 0 between two injections must not look like completion.
  void refresh_host(int i, bool recovery_task_done = false) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (recovery_task_done) --recovery_pending_;
      acked_clear_[static_cast<std::size_t>(i)] =
          host(i).injector_done->is_set() &&
          node(i).outstanding_unacked() == 0;
    }
    maybe_finish();
  }

  /// Records that origin's chunk `seq` completed its revolution (retired at
  /// pred(origin)). The per-origin sets absorb duplicate re-retirements.
  void note_retired(int origin, std::uint32_t seq) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      retired_board_[static_cast<std::size_t>(origin)].insert(seq);
    }
    maybe_finish();
  }

  /// Every surviving origin's chunks all retired *and* all acked back — the
  /// board proves the revolutions, the flags prove the acks. Under exact
  /// recovery the dead origin's board must fill too (the adopter's
  /// re-injections retire on the dead host's behalf) and every recovery
  /// task must have finished. Caller holds mu_; slab chunk counts are safe
  /// to read (written before the setup barrier).
  bool all_work_done_locked() {
    if (recovering_ && recovery_pending_ > 0) return false;
    for (int o = 0; o < n_; ++o) {
      const bool dead = crashed_.count(o) != 0;
      if (dead && !recovering_) continue;
      if (retired_board_[static_cast<std::size_t>(o)].size() <
          host(o).plan->slab.num_chunks()) {
        return false;
      }
      if (!dead && !acked_clear_[static_cast<std::size_t>(o)]) return false;
    }
    return true;
  }

  /// Termination detector: runs on every retire, ack and recovery-task
  /// completion. Deferred while a ring repair is splicing (stopping a node
  /// mid-splice would strand the repair handshake).
  void maybe_finish() {
    std::vector<int> survivors;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!plan_.resilient || finished_ || repairing_ ||
          !all_work_done_locked()) {
        return;
      }
      finished_ = true;
      for (int i = 0; i < n_; ++i) {
        if (crashed_.count(i) == 0) survivors.push_back(i);
      }
    }
    backend_->close_crash_gate();  // a pending watcher stands down
    for (const int i : survivors) {
      backend_->post(i, [this, i] { node(i).request_stop(); });
    }
  }

  // ----- crash control (called by the backend's watcher) -----------------

  bool begin_crash(int dead) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (finished_) return false;  // the run beat the crash to the finish
      repairing_ = true;
      crashed_.insert(dead);
      if (plan_.replicate) {
        // Published together with the crash (see retire_home).
        CJ_CHECK_MSG(!recovering_,
                     "replicated recovery supports a single crash");
        recovering_ = true;
        adopter_ = surviving_successor_locked(dead);
        crash_at_ = engine(dead).now();
      }
    }
    // Black box: snapshot the recorder's window as it stood at the crash
    // (the recorder is safe to read under concurrent emits).
    dump_blackbox("crash");
    return true;
  }

  void end_crash(int dead) override {
    if (plan_.replicate) install_recovery(dead);
    {
      std::lock_guard<std::mutex> lk(mu_);
      repairing_ = false;
    }
    // Without recovery the crash may itself complete the run (the dead
    // host's unfinished work no longer counts).
    maybe_finish();
  }

  /// Flips the run into exact-recovery mode: the dead host's surviving
  /// successor adopts its partition. The adopter's state is installed on
  /// its own engine; the recovery tasks register under mu_ before
  /// repairing_ clears, so the termination detector never observes a
  /// half-installed recovery.
  void install_recovery(int dead) {
    const int a = adopter_;  // written by begin_crash on this same thread
    // One adoption task on the adopter plus one replay task per other
    // survivor; termination stays blocked until each finished its share of
    // the recovery work. The tasks register fresh outstanding work, so the
    // hosts' acked-clear flags stay pinned false until each task's tail
    // recomputes them on its own engine.
    std::vector<int> replayers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      recovery_pending_ = 1;
      acked_clear_[static_cast<std::size_t>(a)] = false;
      for (int o = 0; o < n_; ++o) {
        if (o == a || crashed_.count(o) != 0) continue;
        ++recovery_pending_;
        acked_clear_[static_cast<std::size_t>(o)] = false;
        replayers.push_back(o);
      }
    }
    std::vector<std::set<std::uint32_t>> replay_sets(replayers.size());
    backend_->call(a, [&] {
      HostRun& h = host(a);
      node(a).adopt(dead);
      h.adopted_origin = dead;
      h.adoption_ready =
          std::make_unique<sim::Event>(engine(a), "adoption-ready");
      h.adopted_seen.assign(static_cast<std::size_t>(n_), {});
      for (std::size_t r = 0; r < replayers.size(); ++r) {
        // Snapshot: chunks the adopter already consumed from a replayer get
        // their adopted join from a replay copy, so pre-mark them — a stale
        // original duplicate must not double-join.
        replay_sets[r] = node(a).seen(replayers[r]);
        h.adopted_seen[static_cast<std::size_t>(replayers[r])] = replay_sets[r];
      }
      engine(a).spawn(adoption_task(a, dead), "adopt");
    });
    for (std::size_t r = 0; r < replayers.size(); ++r) {
      backend_->post(replayers[r], [this, o = replayers[r],
                                    seqs = std::move(replay_sets[r])] {
        engine(o).spawn(replay_task(o, seqs), "replay" + std::to_string(o));
      });
    }
    if (tracer_ != nullptr) {
      tracer_->instant(engine(a).now(), obs::kGlobalHost, "fault",
                       "adopt-install", a);
    }
  }

  /// The adopter's recovery work: promote the replica S_dead into a live
  /// join partition, re-inject the dead origin's unretired chunks from the
  /// replica log, then run the local joins the dead host can no longer do.
  sim::Task<void> adoption_task(int a, int dead) {
    HostRun& host = this->host(a);
    ReplicaStore& store = replicas_[static_cast<std::size_t>(a)];
    ring::RoundaboutNode& node = this->node(a);
    sim::Engine& engine = this->engine(a);
    CJ_CHECK_MSG(store.origin == dead, "replica store holds the wrong host");
    obs::Tracer* const t = engine.tracer();
    if (t != nullptr) t->begin(engine.now(), a, "adopt", "promote-replica");
    // 1. Promote the replica stationary fragments (re-build hash tables /
    //    re-sort on this host's cores; a query the dead host had no S rows
    //    for yields an empty partition). The join loop parks until ready.
    host.adopted.resize(queries_.size());
    std::vector<sim::Task<void>> jobs;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      QueryState& state = host.adopted[q];
      state.band = queries_[q].band;
      state.predicate = &queries_[q].predicate;
      state.result = join::JoinResult(spec_.materialize);
      if (q < store.s_tuples.size()) state.s_view = store.s_tuples[q];
      jobs.push_back(run_job(a,
                             stationary_job(spec_, plan_.radix_bits, &state,
                                            cfg_.cores_per_host),
                             kAdoptTag, "adopt"));
    }
    co_await sim::when_all(engine, std::move(jobs));
    flush_profile(engine);
    host.adoption_ready->set();
    if (t != nullptr) t->end(engine.now(), a, "adopt");
    // 2. Re-inject the dead origin's unretired chunks under their original
    //    sequence numbers. A chunk still circulating (this host saw it
    //    before the crash) is registered for ack/timeout tracking but not
    //    pushed — the live copy completes the revolution by itself and the
    //    scanner re-injects only if its ack never lands. The replica log
    //    becomes send-worthy only now, so register it with the wire first.
    for (auto& [seq, bytes] : store.r_chunks) {
      co_await node.prepare_memory(bytes);
    }
    const std::size_t c_dead =
        plan_.hosts[static_cast<std::size_t>(dead)].slab.num_chunks();
    for (std::uint32_t seq = 0; seq < c_dead; ++seq) {
      bool retired;
      {
        std::lock_guard<std::mutex> lk(mu_);
        retired = retired_board_[static_cast<std::size_t>(dead)].count(seq) != 0;
      }
      if (retired) continue;  // completed its revolution before the crash
      const auto it = store.r_chunks.find(seq);
      CJ_CHECK_MSG(it != store.r_chunks.end(),
                   "replica log is missing an unretired chunk");
      const bool circulating = node.seen(dead).count(seq) != 0;
      co_await node.send_adopted(seq, it->second, /*send_now=*/!circulating);
    }
    // 3. Local joins the dead host can no longer perform: the whole replica
    //    log against the adopted partition (R_dead ⋈ S_dead), the dead
    //    chunks this host never saw against its own queries (R_dead ⋈ S_a —
    //    post-splice they retire one hop upstream and never pass here), and
    //    this host's own slab against the adopted partition (R_a ⋈ S_dead).
    for (const auto& [seq, bytes] : store.r_chunks) {
      const ChunkView view = decode_chunk(bytes);
      co_await join_adopted_chunk(a, view, dead, seq);
      if (node.seen(dead).count(seq) == 0) {
        co_await join_chunk(a, view, dead, seq);
      }
    }
    for (std::size_t c = 0; c < host.plan->slab.num_chunks(); ++c) {
      co_await join_adopted_chunk(a, decode_chunk(host.plan->slab.chunk(c)),
                                  a, static_cast<std::uint32_t>(c));
    }
    adoption_done_at_ = engine.now();
    refresh_host(a, /*recovery_task_done=*/true);
  }

  /// A surviving origin's recovery work: re-send every chunk the adopter
  /// had already consumed at install time as a flagged replay copy, so its
  /// join against the adopted partition is not lost. Runs after the
  /// origin's own injector so replay seqs extend the slab numbering.
  sim::Task<void> replay_task(int o, std::set<std::uint32_t> seqs) {
    co_await host(o).injector_done->wait();
    ring::RoundaboutNode& node = this->node(o);
    for (const std::uint32_t seq : seqs) {
      if (node.stopped()) break;
      co_await node.send_local(host(o).plan->slab.chunk(seq), /*replay=*/true);
    }
    refresh_host(o, /*recovery_task_done=*/true);
  }

  // ----- reporting (every engine and watcher finished: single-threaded) ---

  /// Calls fn on every partial result host i contributes to query q. A
  /// crashed host contributes nothing. Without recovery the surviving hosts
  /// count only the surviving origins' buckets (dead R fragments are
  /// retracted); under exact recovery every origin's bucket counts and the
  /// adopter adds the partition it recomputed for the dead host.
  template <typename Fn>
  void for_each_partial(int i, std::size_t q, Fn fn) {
    HostRun& host = this->host(i);
    QueryState& query = host.plan->queries[q];
    if (!plan_.resilient) {
      fn(query.result);
      return;
    }
    if (crashed_.count(i) != 0) return;
    for (int o = 0; o < n_; ++o) {
      if (crashed_.count(o) != 0 && !recovering_) continue;
      fn(query.per_origin[static_cast<std::size_t>(o)]);
    }
    if (q < host.adopted.size()) fn(host.adopted[q].result);
  }

  SharedRunReport build_report() {
    SharedRunReport report;
    report.queries.resize(queries_.size());
    for (int i = 0; i < n_; ++i) {
      HostRun& host = this->host(i);
      report.setup_wall = std::max(report.setup_wall, host.stats.setup);
      report.join_wall = std::max(report.join_wall, host.stats.join_phase);
      // The last host's finish, not the engine's final clock: nothing after
      // it (a crash scheduled past the end, say) belongs to the run.
      report.total_wall = std::max(report.total_wall, host.done_at);
      report.cpu_load_join += host.stats.cpu_load_join;
      // Materialized output is stitched with the same filter as the count,
      // so the materialized multiset equals exactly what matches/checksum
      // cover (a crashed host's slot stays empty — its partition's matches
      // live on the adopter). Materialization implies a single query.
      join::JoinResult output(spec_.materialize);
      bool first = true;
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        for_each_partial(i, q, [&](join::JoinResult& partial) {
          host.stats.matches += partial.matches();
          host.stats.checksum += partial.checksum();
          report.queries[q].matches += partial.matches();
          report.queries[q].checksum += partial.checksum();
          if (!spec_.materialize) return;
          if (first) {
            output = std::move(partial);
          } else {
            output.merge(partial);
          }
          first = false;
        });
      }
      report.hosts.push_back(host.stats);
      if (spec_.materialize) report.host_results.push_back(std::move(output));
    }
    for (const auto& query : report.queries) {
      report.matches += query.matches;
      report.checksum += query.checksum;
    }
    report.cpu_load_join /= n_;
    report.bytes_on_wire = backend_->wire_bytes();
    if (n_ > 1 && report.join_wall > 0) {
      report.link_throughput_bps =
          static_cast<double>(backend_->first_link_bytes()) /
          to_seconds(report.join_wall);
    }
    if (!cfg_.fault.empty()) {
      FaultReport& fault = report.fault;
      fault.recovered = recovering_;
      fault.degraded = !crashed_.empty() && !recovering_;
      fault.crashed_hosts.assign(crashed_.begin(), crashed_.end());
      if (!recovering_) {
        // Exact recovery loses nothing; degraded mode accounts the gap.
        for (const int dead : crashed_) {
          fault.lost_r_rows += plan_.r_rows[static_cast<std::size_t>(dead)];
          fault.lost_s_rows += plan_.s_rows[static_cast<std::size_t>(dead)];
        }
      }
      if (plan_.replicate) {
        for (int i = 0; i < n_; ++i) {
          fault.replica_bytes += node(i).replica_bytes();
          fault.replicas_resent += node(i).replicas_resent();
        }
      }
      if (recovering_) {
        fault.adopter = adopter_;
        fault.chunks_adopted = node(adopter_).chunks_adopted();
        fault.recovery_time = adoption_done_at_ - crash_at_;
      }
      for (const HostStats& stats : report.hosts) {
        fault.chunks_reinjected += stats.chunks_reinjected;
        fault.chunks_recovered += stats.chunks_recovered;
        fault.corrupt_discards += stats.corrupt_discards;
        fault.duplicates_skipped += stats.duplicates_skipped;
      }
      backend_->add_link_faults(fault, metrics_);
    }
    fill_metrics(report);  // last: it reads the wire/fault fields above
    return report;
  }

  void fill_metrics(SharedRunReport& report) {
    const auto count = [this](const std::string& name, std::uint64_t value) {
      metrics_.add_counter(name, static_cast<std::int64_t>(value));
    };
    count("bytes_on_wire", report.bytes_on_wire);
    count("chunks_injected", plan_.global_chunks());
    count("probe_tuples", probe_tuples_.load());
    std::uint64_t rotated = 0;
    std::uint64_t switches = 0;  // structurally zero on real cores
    for (int i = 0; i < n_; ++i) {
      rotated += host(i).stats.chunks_processed;
      switches += cores(i).context_switches();
      for (const auto& [tag, busy] : host(i).stats.busy_by_tag) {
        metrics_.add_counter("busy." + tag, busy);
      }
    }
    count("chunks_rotated", rotated);
    count("context_switches", switches);
    metrics_.set_gauge("cpu_load_join", report.cpu_load_join);
    metrics_.set_gauge("link_throughput_bps", report.link_throughput_bps);
    if (plan_.resilient) {
      // Resilient runs always carry a fault plan, so report.fault holds
      // the sums (live even in crash-free runs, e.g. spurious-timeout
      // re-injections under rt's adaptive policy's warm-up).
      const FaultReport& fault = report.fault;
      std::uint64_t stale = 0;
      for (const HostStats& stats : report.hosts) {
        stale += stats.stale_query_discards;
      }
      count("chunks_reinjected", fault.chunks_reinjected);
      count("chunks_recovered", fault.chunks_recovered);
      count("duplicates_skipped", fault.duplicates_skipped);
      count("chunks_discarded_corrupt", fault.corrupt_discards);
      count("stale_query_discards", stale);
      if (plan_.replicate) {
        count("replica_bytes", fault.replica_bytes);
        count("replicas_resent", fault.replicas_resent);
        count("chunks_adopted", fault.chunks_adopted);
      }
      for (int i = 0; i < n_; ++i) {
        const ring::RoundaboutNode& node = this->node(i);
        for (const SimDuration rtt : node.ack_rtts()) {
          metrics_.record("ack_rtt_ns", rtt);
        }
        metrics_.set_gauge("host" + std::to_string(i) + ".ack_timeout_ns",
                           static_cast<double>(node.current_ack_timeout()));
        if (tracer_ != nullptr) {
          // Counter tracks: one sample per host at its end of run is enough
          // for Perfetto to draw per-host recovery bars next to the phases.
          const SimTime end = host(i).done_at;
          tracer_->counter(end, i, "chunks_recovered",
                           static_cast<std::int64_t>(node.chunks_recovered()));
          tracer_->counter(end, i, "chunks_reinjected",
                           static_cast<std::int64_t>(node.chunks_reinjected()));
          tracer_->counter(end, i, "duplicates_skipped",
                           static_cast<std::int64_t>(node.duplicates_skipped()));
          tracer_->counter(
              end, i, "chunks_discarded_corrupt",
              static_cast<std::int64_t>(node.chunks_discarded_corrupt()));
        }
      }
    }
    // ----- flight-recorder / journey plane (always on) -------------------
    std::uint64_t revolutions = 0;
    int max_hops = 0;
    std::uint64_t flight_dropped = 0;
    for (int i = 0; i < n_; ++i) {
      revolutions += node(i).revolutions_observed();
      max_hops = std::max(max_hops, node(i).max_hops_observed());
      flight_dropped += flight_->dropped(i);
    }
    count("revolutions_observed", revolutions);
    metrics_.set_gauge("max_hops", static_cast<double>(max_hops));
    count("obs.flight_records", flight_->total_emitted());
    count("obs.flight_dropped", flight_dropped);
    // Straggler columns: the live detector already bumped the flag counters
    // as flags were raised; without it the recorder window is replayed
    // through the same detector after the run. Registering the counters at
    // zero keeps the metric names independent of whether a flag fired.
    count("obs.straggler_flags", 0);
    obs::StragglerDetector replayed(n_, cfg_.sampler);
    if (sampler_ != nullptr) {
      count("obs.sampler_samples", sampler_->samples_taken());
    } else {
      obs::replay_stragglers(*flight_, replayed, &metrics_, tracer_.get());
    }
    const obs::StragglerDetector& detector =
        sampler_ != nullptr ? sampler_->detector() : replayed;
    for (int i = 0; i < n_; ++i) {
      const std::string prefix = "host" + std::to_string(i);
      count(prefix + ".straggler_flags", 0);
      metrics_.set_gauge(prefix + ".straggler_z", detector.last_z(i));
    }
    maybe_dump_retry_storm();
    report.flight = flight_;
    if (tracer_ != nullptr) {
      for (const obs::HostOverlap& o : obs::overlap_by_host(*tracer_)) {
        metrics_.set_gauge("host" + std::to_string(o.host) + ".overlap_ratio",
                           o.ratio);
      }
      report.trace = tracer_;
    }
    if (profiler_ != nullptr) report.profile = profiler_->snapshot();
    report.metrics = metrics_.snapshot();
  }

  void maybe_dump_retry_storm() {
    if (cfg_.flight.retry_storm_threshold == 0) return;
    std::uint64_t reinjected = 0;
    for (int i = 0; i < n_; ++i) reinjected += node(i).chunks_reinjected();
    if (reinjected >= cfg_.flight.retry_storm_threshold) {
      dump_blackbox("retry-storm");
    }
  }

  /// Serializes the flight recorder's window to the configured black-box
  /// path. The first trigger wins (a crash watcher races the end-of-run
  /// retry-storm check); a later one must not overwrite it.
  void dump_blackbox(const char* reason) {
    if (!cfg_.flight.blackbox_path.empty() &&
        !blackbox_written_.exchange(true)) {
      obs::write_blackbox(*flight_, cfg_.flight.blackbox_path, reason);
    }
  }

  ClusterConfig cfg_;
  JoinSpec spec_;
  int n_;
  std::vector<SharedQuery> queries_;
  /// Time zero on rt: real time spent planning (distributing) the run is
  /// part of the run's wall clock there (the sim does not model the
  /// distribute step, so its virtual clock starts at the hosts' setup).
  sim::Engine::WallClock::time_point created_;
  RunPlan plan_;
  std::unique_ptr<detail::RunBackend> backend_;
  std::vector<std::unique_ptr<HostRun>> hosts_;

  // ----- replication / exact-recovery state (resilience.replicate) -----
  /// Per host: the successor-held copy of its predecessor's state. Written
  /// by host i's receiver (on i's engine), read by i's adoption task.
  std::vector<ReplicaStore> replicas_;
  /// Per host: the serialized records it streams during the replication
  /// phase (must outlive replicas_drained — sends are by reference).
  std::vector<std::vector<std::vector<std::byte>>> replica_records_;
  SimTime crash_at_ = 0;          ///< crash watcher; read after the run
  SimTime adoption_done_at_ = 0;  ///< adopter's engine; read after the run

  // ----- shared runner state, guarded by mu_ ---------------------------
  std::mutex mu_;
  bool finished_ = false;    ///< termination detector fired
  bool repairing_ = false;   ///< a ring splice is in flight
  bool recovering_ = false;  ///< a crash is being exactly recovered
  int adopter_ = -1;
  /// Recovery tasks (adoption + per-survivor replays) still running;
  /// termination is held off until all of them finished.
  int recovery_pending_ = 0;
  std::set<int> crashed_;
  /// Per origin: sequence numbers of its chunks that completed a revolution.
  std::vector<std::set<std::uint32_t>> retired_board_;
  /// Per host: injector finished, and (strictly after that) all of the
  /// host's local chunks acked. Written only from that host's engine.
  std::vector<bool> acked_clear_;
  /// Per origin host: injection times of its not-yet-retired chunks
  /// (revolution-makespan histogram; non-resilient runs only).
  std::vector<std::deque<SimTime>> inject_times_;

  // ----- observability --------------------------------------------------
  /// Always installed on every engine (ring/node.cpp emits per hop).
  std::shared_ptr<obs::FlightRecorder> flight_;
  /// Live telemetry thread (backend_->live_sampling()); stopped before the
  /// report is built.
  std::unique_ptr<obs::LiveSampler> sampler_;
  std::atomic<bool> blackbox_written_{false};  ///< see dump_blackbox
  /// Non-null when cfg_.trace.enabled.
  std::shared_ptr<obs::Tracer> tracer_;
  /// Non-null when cfg_.profile.enabled; attribution comes from the
  /// ScopedContext each measured closure installs.
  std::unique_ptr<obs::prof::KernelProfiler> profiler_;
  obs::MetricsRegistry metrics_;
  std::atomic<std::uint64_t> probe_tuples_{0};
};

}  // namespace

CycloJoin::CycloJoin(ClusterConfig cluster, JoinSpec spec)
    : cluster_(std::move(cluster)), spec_(std::move(spec)) {}

RunReport CycloJoin::run(const rel::Relation& r, const rel::Relation& s) {
  SharedQuery query;
  query.stationary = &s;
  query.band = spec_.band;
  query.predicate = spec_.predicate;
  return Runner(cluster_, spec_, r, {query}).execute();
}

SharedRunReport CycloJoin::run_shared(const rel::Relation& rotating,
                                      const std::vector<SharedQuery>& queries) {
  return Runner(cluster_, spec_, rotating, queries).execute();
}

RunReport CycloJoin::run_fragments(FragmentInputs inputs) {
  SharedQuery query;  // stationary stays null: the fragments are the input
  query.band = spec_.band;
  query.predicate = spec_.predicate;
  const rel::Relation no_rotating;  // ignored: plan_run moves the fragments
  return Runner(cluster_, spec_, no_rotating, {query}, &inputs).execute();
}

std::vector<OutputFragment> RunReport::output_fragments() const {
  std::vector<OutputFragment> out;
  out.reserve(host_results.size());
  for (const join::JoinResult& result : host_results) {
    OutputFragment frag;
    frag.rows = result.output().size();
    frag.bytes = frag.rows * sizeof(join::OutTuple);
    out.push_back(frag);
  }
  return out;
}

}  // namespace cj::cyclo
