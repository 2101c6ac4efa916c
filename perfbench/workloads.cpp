#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/units.h"
#include "join/local_join.h"
#include "layers.h"
#include "plan/plan_exec.h"
#include "plan/plan_gen.h"
#include "rel/generator.h"
#include "rel/partitioned.h"
#include "ring/redistribute.h"
#include "serve/scheduler.h"

namespace cj::perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void Trace::add_cyclo_call(const cyclo::RunReport& report, double wall, double cpu) {
  ++cur_.calls;
  cur_.wall += wall;
  cur_.cpu += cpu;
  cur_.total += to_seconds(report.total_wall);
  cur_.setup += to_seconds(report.setup_wall);
  cur_.join += to_seconds(report.join_wall);
  SimDuration max_sync = 0;
  SimDuration max_join = 0;
  SimDuration sum_join = 0;
  for (const cyclo::HostStats& host : report.hosts) {
    max_sync = std::max(max_sync, host.sync);
    max_join = std::max(max_join, host.join_phase);
    sum_join += host.join_phase;
  }
  cur_.sync += to_seconds(max_sync);
  if (sum_join > 0) {
    const double mean = static_cast<double>(sum_join) /
                        static_cast<double>(report.hosts.size());
    cur_.skew = std::max(cur_.skew, static_cast<double>(max_join) / mean);
  }
  for (const auto& [name, value] : report.metrics.counters) {
    if (!name.starts_with("busy.")) continue;
    const double secs = static_cast<double>(value) / 1e9;
    const std::string tag = name.substr(5);
    // Shared-rotation queries bill their join work to "q<id>" tags.
    if (tag == "join" || (tag.size() > 1 && tag[0] == 'q')) cur_.busy_join += secs;
    if (tag == "setup") cur_.busy_setup += secs;
    cur_.busy_all += secs;
  }
  cur_.rotation_bytes += static_cast<double>(report.bytes_on_wire);
  const auto counter = [&](const char* name) {
    const auto it = report.metrics.counters.find(name);
    return it == report.metrics.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  cur_.chunks += counter("chunks_rotated");
  cur_.flight_records += counter("obs.flight_records");
  const auto rev = report.metrics.histograms.find("revolution_ns");
  if (rev != report.metrics.histograms.end() && rev->second.count > 0) {
    cur_.revolution_p50.push_back(static_cast<double>(rev->second.p50) / 1e9);
  }
}

void Trace::finish_cyclo_op() {
  if (cur_.calls == 0) return;
  add("cyclo.setup_s", cur_.setup);
  add("cyclo.join_s", cur_.join);
  add("cyclo.sync_s", cur_.sync);
  add("cyclo.host_skew", cur_.skew);
  add("cyclo.busy_join_s", cur_.busy_join);
  add("cyclo.busy_setup_s", cur_.busy_setup);
  add("cyclo.outside_s", cur_.wall - cur_.total);
  add("ring.rotation_mb", cur_.rotation_bytes / 1e6);
  add("ring.chunks_rotated", cur_.chunks);
  for (const double p50 : cur_.revolution_p50) add("ring.revolution_p50_s", p50);
  if (cur_.busy_all > 0) add("rt.cpu_per_busy", cur_.cpu / cur_.busy_all);
  if (cur_.total > 0) add("sim.wall_per_virtual", cur_.wall / cur_.total);
  add("obs.flight_records_per_op", cur_.flight_records);
  cur_ = CycloOp{};
}

namespace {

/// The paper's testbed shape (10 GbE ring, 16 ring buffers per host) with
/// ring buffers scaled like the figure harnesses' default 1/32 data scale.
cyclo::ClusterConfig ring_config(cyclo::Backend backend, int hosts, int cores) {
  cyclo::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_hosts = hosts;
  cfg.cores_per_host = cores;
  cfg.cpu_scale = 1.35;  // this machine's cores -> the paper's 2.33 GHz Xeon
  cfg.link.bandwidth_bytes_per_sec = 1.25e9;
  cfg.link.propagation_delay = 5 * kMicrosecond;
  cfg.node.num_buffers = 16;
  cfg.node.buffer_bytes = 32 * 1024;
  return cfg;
}

/// Generator seed of input stream `stream` under the run's seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

struct Expected {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

/// Oracle of a two-way join: the single-host sort-merge join over the whole
/// relations — an algorithm independent of the hash path the ring runs, and
/// one that leaves the hash kernels cold for the traced run's replay.
Expected local_oracle(const rel::Relation& r, const rel::Relation& s,
                      std::uint32_t band) {
  const join::JoinResult result = join::local_sort_merge_join(r.tuples(), s.tuples(), band);
  return {result.matches(), result.checksum()};
}

/// Planner graph of a two-way join r ⋈ s with `band`.
plan::QueryGraph two_way_graph(const rel::Relation& r, const rel::Relation& s,
                               std::uint32_t band) {
  plan::QueryGraph graph;
  const int a = graph.add_relation(r.name(), rel::collect_stats(r));
  const int b = graph.add_relation(s.name(), rel::collect_stats(s));
  graph.add_join(a, b, band);
  return graph;
}

/// Spans of the traced run; no-ops when `trace` is null.
SpanRecorder* spans_of(Trace* trace) { return trace != nullptr ? &trace->spans : nullptr; }
int op_of(const Trace* trace) { return trace != nullptr ? trace->op : -1; }

/// Two-way join: one op is one CycloJoin::run of R (rotating) against S.
class TwoWayJoin : public Workload {
 public:
  struct Shape {
    cyclo::Backend backend;
    int hosts;
    int cores;
    std::uint64_t rows;
    double zipf;
    cyclo::Algorithm algorithm;
    std::uint32_t band;
  };

  explicit TwoWayJoin(const Shape& shape)
      : shape_(shape), cluster_(ring_config(shape.backend, shape.hosts, shape.cores)) {
    spec_.algorithm = shape.algorithm;
    spec_.band = shape.band;
    // One join task per real core on rt; the sim bills the paper's four.
    spec_.join_threads = shape.backend == cyclo::Backend::kRt ? shape.cores : 4;
  }

  const cyclo::ClusterConfig& cluster() const override { return cluster_; }

  void prepare(std::uint64_t seed) override {
    const std::uint64_t n = shape_.rows;
    r_ = rel::generate({.rows = n, .key_domain = n, .zipf_z = shape_.zipf,
                        .seed = stream_seed(seed, 1)},
                       "R", 1);
    s_ = rel::generate({.rows = n, .key_domain = n, .zipf_z = shape_.zipf,
                        .seed = stream_seed(seed, 2)},
                       "S", 2);
    expected_ = local_oracle(r_, s_, shape_.band);
  }

  void setup() override {
    join_.reset();
    join_ = std::make_unique<cyclo::CycloJoin>(cluster_, spec_);
  }

  OpOutcome op(Trace* trace) override {
    ScopedSpan op_span(spans_of(trace), "op", op_of(trace));
    const double wall0 = trace != nullptr ? wall_s() : 0.0;
    const double cpu0 = trace != nullptr ? process_cpu_s() : 0.0;
    cyclo::RunReport report;
    {
      ScopedSpan span(spans_of(trace), "cyclo.CycloJoin::run", op_of(trace));
      report = join_->run(r_, s_);
    }
    if (trace != nullptr) {
      trace->add_cyclo_call(report, wall_s() - wall0, process_cpu_s() - cpu0);
      trace->finish_cyclo_op();
    }
    return {report.matches == expected_.matches && report.checksum == expected_.checksum,
            to_seconds(report.setup_wall + report.join_wall), report.bytes_on_wire};
  }

  KernelPair kernel_pair() const override {
    return {&r_, &s_, shape_.band, shape_.algorithm == cyclo::Algorithm::kSortMergeJoin};
  }

  Checks replay(Trace& trace) override {
    const rel::Relation* inputs[] = {&r_, &s_};
    const plan::QueryGraph graph = two_way_graph(r_, s_, shape_.band);
    const plan::Plan best = replay_rel_and_plan(trace, inputs, graph, shape_.hosts);
    trace.add("plan.est_error", estimate_error(best.rounds.front().est_out_rows,
                                               static_cast<double>(expected_.matches)));
    // The op never redistributes; the replay prices a keyed rebalance of
    // the stationary side on this workload's data.
    replay_redistribute(trace, rel::split_even(s_, shape_.hosts));
    return replay_serve(trace, cluster_, spec_, r_, s_, expected_.matches,
                        expected_.checksum);
  }

 private:
  Shape shape_;
  cyclo::ClusterConfig cluster_;
  cyclo::JoinSpec spec_;
  rel::Relation r_, s_;
  Expected expected_;
  std::unique_ptr<cyclo::CycloJoin> join_;
};

/// abl_plan's three-table chain lineitems(4d) — orders(d) — shipments(2d)
/// over key domain d. One op: split every base relation, plan, execute.
class PlanChain : public Workload {
 public:
  explicit PlanChain(std::uint64_t domain)
      : domain_(domain), cluster_(ring_config(cyclo::Backend::kSim, kHosts, 4)) {}

  const cyclo::ClusterConfig& cluster() const override { return cluster_; }

  void prepare(std::uint64_t seed) override {
    const std::uint64_t d = domain_;
    rels_.clear();
    rels_.push_back(rel::generate(
        {.rows = 4 * d, .key_domain = d, .seed = stream_seed(seed, 41)}, "lineitems", 1));
    rels_.push_back(rel::generate(
        {.rows = d, .key_domain = d, .seed = stream_seed(seed, 42)}, "orders", 2));
    rels_.push_back(rel::generate(
        {.rows = 2 * d, .key_domain = d, .seed = stream_seed(seed, 43)}, "shipments", 3));
    // Exact chain cardinality: sum over keys of the three multiplicities.
    std::vector<std::vector<std::uint64_t>> counts(3, std::vector<std::uint64_t>(d, 0));
    for (std::size_t i = 0; i < rels_.size(); ++i) {
      for (const rel::Tuple& t : rels_[i].tuples()) ++counts[i][t.key];
    }
    expected_matches_ = 0;
    for (std::uint64_t k = 0; k < d; ++k) {
      expected_matches_ += counts[0][k] * counts[1][k] * counts[2][k];
    }
    pinned_checksum_.reset();
  }

  void setup() override {
    exec_.reset();
    gen_.reset();
    graph_ = std::make_unique<plan::QueryGraph>();
    const int l = graph_->add_relation("lineitems", rel::collect_stats(rels_[0]));
    const int o = graph_->add_relation("orders", rel::collect_stats(rels_[1]));
    const int s = graph_->add_relation("shipments", rel::collect_stats(rels_[2]));
    graph_->add_join(l, o);
    graph_->add_join(o, s);
    model::PlanCostParams params;
    params.num_hosts = kHosts;
    gen_ = std::make_unique<plan::PlanGen>(*graph_, params);
    plan::ExecConfig cfg;
    cfg.cluster = cluster_;
    cfg.materialize_final = false;
    exec_ = std::make_unique<plan::PlanExecutor>(cfg);
  }

  OpOutcome op(Trace* trace) override {
    SpanRecorder* spans = spans_of(trace);
    const int id = op_of(trace);
    ScopedSpan op_span(spans, "op", id);
    std::vector<rel::PartitionedRelation> inputs;
    {
      ScopedSpan span(spans, "rel.PartitionedRelation::split", id);
      for (const rel::Relation& r : rels_) {
        inputs.push_back(rel::PartitionedRelation::split(r, kHosts));
      }
    }
    plan::Plan best;
    {
      ScopedSpan span(spans, "plan.PlanGen::best", id);
      best = gen_->best();
    }
    plan::PlanRunReport report;
    {
      ScopedSpan span(spans, "plan.PlanExecutor::execute", id);
      report = exec_->execute(best, *graph_, std::move(inputs));
    }
    if (!pinned_checksum_) pinned_checksum_ = report.checksum;

    OpOutcome out;
    out.correct = report.matches == expected_matches_ && report.checksum == *pinned_checksum_;
    for (const plan::RoundReport& round : report.rounds) {
      out.makespan_s += to_seconds(round.setup_wall + round.join_wall);
    }
    out.wire_bytes = report.wire_bytes;
    if (trace != nullptr) {
      double redistributed = 0;
      double worst = 1.0;
      for (std::size_t k = 0; k < report.rounds.size(); ++k) {
        redistributed += static_cast<double>(report.rounds[k].redistribute_bytes);
        worst = std::max(worst, estimate_error(best.rounds[k].est_out_rows,
                                               static_cast<double>(report.rounds[k].matches)));
      }
      trace->add("ring.redistribute_mb", redistributed / 1e6);
      trace->add("plan.est_error", worst);
    }
    return out;
  }

  KernelPair kernel_pair() const override { return {&rels_[0], &rels_[1], 0, false}; }

  Checks replay(Trace& trace) override {
    const rel::Relation* inputs[] = {&rels_[0], &rels_[1], &rels_[2]};
    const plan::Plan best = replay_rel_and_plan(trace, inputs, *graph_, kHosts);
    Checks checks;
    for (int rep = 0; rep < kOpReplays; ++rep) {
      ++trace.op;
      ++checks.attempted;
      if (replay_rounds(trace, best) != expected_matches_) ++checks.failed;
    }
    // The chain's first edge, lineitems ⋈ orders, served as queries.
    ++trace.op;
    const Expected first_edge = local_oracle(rels_[0], rels_[1], 0);
    const Checks served = replay_serve(trace, cluster_, cyclo::JoinSpec{}, rels_[0],
                                       rels_[1], first_edge.matches, first_edge.checksum);
    checks.attempted += served.attempted;
    checks.failed += served.failed;
    return checks;
  }

 private:
  static constexpr int kHosts = 4;
  static constexpr int kOpReplays = 2;

  /// Runs `best` round by round through the same public calls
  /// PlanExecutor::execute makes — CycloJoin::run_fragments, then
  /// ring::redistribute_by_key on the projected output — so the trace sees
  /// every round's RunReport. Returns the final cardinality.
  std::uint64_t replay_rounds(Trace& trace, const plan::Plan& best) {
    ScopedSpan op_span(&trace.spans, "replay.plan_rounds", trace.op);
    std::vector<std::vector<rel::Relation>> frags;
    for (const rel::Relation& r : rels_) frags.push_back(rel::split_even(r, kHosts));
    std::vector<rel::Relation> inter =
        std::move(frags[static_cast<std::size_t>(best.order[0])]);
    std::uint64_t matches = 0;
    for (std::size_t k = 0; k < best.rounds.size(); ++k) {
      const plan::PlannedRound& planned = best.rounds[k];
      const bool final_round = k + 1 == best.rounds.size();
      std::vector<rel::Relation> joined =
          std::move(frags[static_cast<std::size_t>(planned.relation)]);
      cyclo::FragmentInputs in;
      in.rotating = planned.intermediate_rotates ? std::move(inter) : std::move(joined);
      in.stationary = planned.intermediate_rotates ? std::move(joined) : std::move(inter);
      cyclo::JoinSpec spec;
      spec.algorithm = planned.kind == model::JoinKind::kSortMerge
                           ? cyclo::Algorithm::kSortMergeJoin
                           : cyclo::Algorithm::kHashJoin;
      spec.band = planned.band;
      spec.materialize = !final_round;
      cyclo::CycloJoin join(cluster_, spec);
      const double wall0 = wall_s();
      const double cpu0 = process_cpu_s();
      cyclo::RunReport run;
      {
        ScopedSpan span(&trace.spans, "cyclo.CycloJoin::run_fragments", trace.op);
        run = join.run_fragments(std::move(in));
      }
      trace.add_cyclo_call(run, wall_s() - wall0, process_cpu_s() - cpu0);
      matches = run.matches;
      if (final_round) break;
      inter.clear();
      for (const join::JoinResult& host : run.host_results) {
        rel::Relation frag("intermediate");
        frag.reserve(host.output().size());
        for (const join::OutTuple& t : host.output()) {
          frag.push_back(rel::Tuple{
              t.key, planned.intermediate_rotates ? t.r_payload : t.s_payload});
        }
        inter.push_back(std::move(frag));
      }
      ScopedSpan span(&trace.spans, "ring.redistribute_by_key", trace.op);
      const double t0 = wall_s();
      ring::redistribute_by_key(&inter);
      trace.add("ring.redistribute_s", wall_s() - t0);
    }
    trace.finish_cyclo_op();
    return matches;
  }

  std::uint64_t domain_;
  cyclo::ClusterConfig cluster_;
  std::vector<rel::Relation> rels_;
  std::uint64_t expected_matches_ = 0;
  std::optional<std::uint64_t> pinned_checksum_;
  // Declared in dependency order: the planner holds a reference to graph_.
  std::unique_ptr<plan::QueryGraph> graph_;
  std::unique_ptr<plan::PlanGen> gen_;
  std::unique_ptr<plan::PlanExecutor> exec_;
};

/// Multi-query serving: one op submits a fixed batch of queries at the
/// current serve clock and drains them (closed loop, no arrival process).
class ServeShared : public Workload {
 public:
  explicit ServeShared(std::uint64_t rows)
      : rows_(rows), cluster_(ring_config(cyclo::Backend::kRt, 2, 1)) {
    spec_.algorithm = cyclo::Algorithm::kHashJoin;
    spec_.join_threads = 1;
  }

  const cyclo::ClusterConfig& cluster() const override { return cluster_; }

  void prepare(std::uint64_t seed) override {
    r_ = rel::generate({.rows = rows_, .key_domain = rows_, .seed = stream_seed(seed, 1)},
                       "R", 1);
    tables_.clear();
    expected_.clear();
    for (int t = 0; t < kTables; ++t) {
      tables_.push_back(rel::generate(
          {.rows = rows_ / 2, .key_domain = rows_,
           .seed = stream_seed(seed, 100 + static_cast<std::uint64_t>(t))},
          std::string("S").append(std::to_string(t)), static_cast<std::uint64_t>(t) + 2));
      expected_.push_back(local_oracle(r_, tables_.back(), 0));
    }
  }

  void setup() override {
    sched_.reset();
    serve::ServeConfig cfg;
    cfg.cluster = cluster_;
    cfg.spec = spec_;
    cfg.max_inflight = kWidth;
    cfg.max_queue_depth = 4 * kQueriesPerOp;
    sched_ = std::make_unique<serve::QueryScheduler>(cfg);
    clock_ = 0;
    wire_so_far_ = 0;
    waves_so_far_ = 0;
  }

  OpOutcome op(Trace* trace) override {
    SpanRecorder* spans = spans_of(trace);
    const int id = op_of(trace);
    ScopedSpan op_span(spans, "op", id);
    std::vector<std::pair<serve::QueryId, int>> submitted;
    {
      ScopedSpan span(spans, "serve.QueryScheduler::submit", id);
      for (int q = 0; q < kQueriesPerOp; ++q) {
        const int table = next_table_;
        next_table_ = (next_table_ + 1) % kTables;
        const bool gold = q % 4 != 3;  // gold:bronze 3:1
        serve::QuerySpec query;
        query.stationary = &tables_[static_cast<std::size_t>(table)];
        query.tenant = gold ? "gold" : "bronze";
        query.weight = gold ? 3.0 : 1.0;
        submitted.emplace_back(sched_->submit(std::move(query), clock_), table);
      }
    }
    serve::ServeReport report;
    {
      ScopedSpan span(spans, "serve.QueryScheduler::drain", id);
      report = sched_->drain(r_);
    }
    OpOutcome out;
    out.correct = true;
    for (const auto& [qid, table] : submitted) {
      const serve::QueryRecord& rec = report.query(qid);
      const Expected& want = expected_[static_cast<std::size_t>(table)];
      out.correct = out.correct && rec.phase == serve::QueryPhase::kRetired &&
                    rec.result.matches == want.matches &&
                    rec.result.checksum == want.checksum;
      if (trace != nullptr) {
        trace->add("serve.query_latency_p50_s", to_seconds(rec.latency()));
        trace->add("serve.queue_wait_p50_s", to_seconds(rec.queue_wait()));
        trace->add("serve.service_p50_s", to_seconds(rec.finished_at - rec.started_at));
      }
    }
    out.makespan_s = to_seconds(report.end_time - clock_);
    out.wire_bytes = report.bytes_on_wire - wire_so_far_;
    if (trace != nullptr) {
      trace->add("serve.queries_per_wave",
                 static_cast<double>(kQueriesPerOp) / (report.waves - waves_so_far_));
      trace->add("serve.share_gold", report.share_by_tenant["gold"]);
    }
    last_op_wire_ = out.wire_bytes;
    clock_ = report.end_time;
    wire_so_far_ = report.bytes_on_wire;
    waves_so_far_ = report.waves;
    return out;
  }

  KernelPair kernel_pair() const override { return {&r_, &tables_[0], 0, false}; }

  Checks replay(Trace& trace) override {
    const rel::Relation* inputs[] = {&r_, &tables_[0]};
    const plan::QueryGraph graph = two_way_graph(r_, tables_[0], 0);
    const plan::Plan best = replay_rel_and_plan(trace, inputs, graph, cluster_.num_hosts);
    trace.add("plan.est_error", estimate_error(best.rounds.front().est_out_rows,
                                               static_cast<double>(expected_[0].matches)));
    replay_redistribute(trace, rel::split_even(tables_[0], cluster_.num_hosts));

    Checks checks;
    for (int rep = 0; rep < kOpReplays; ++rep) {
      ++trace.op;
      checks.attempted += kQueriesPerOp;
      checks.failed += replay_waves(trace);
    }
    // Wire bytes per retired query relative to one query's solo revolution.
    const cyclo::RunReport solo = cyclo::CycloJoin(cluster_, spec_).run(r_, tables_[0]);
    ++checks.attempted;
    if (solo.matches != expected_[0].matches || solo.checksum != expected_[0].checksum) {
      ++checks.failed;
    }
    trace.add("serve.bytes_ratio", static_cast<double>(last_op_wire_) / kQueriesPerOp /
                                       static_cast<double>(solo.bytes_on_wire));
    return checks;
  }

 private:
  static constexpr int kTables = 6;
  static constexpr int kWidth = 4;
  static constexpr int kQueriesPerOp = 8;
  static constexpr int kOpReplays = 2;

  /// One op's worth of waves run directly as CycloJoin::run_shared calls,
  /// so the trace sees each wave's RunReport. Returns failed queries.
  int replay_waves(Trace& trace) {
    ScopedSpan op_span(&trace.spans, "replay.serve_waves", trace.op);
    int failed = 0;
    for (int wave = 0; wave < kQueriesPerOp / kWidth; ++wave) {
      std::vector<cyclo::SharedQuery> queries;
      std::vector<int> tables;
      for (int q = 0; q < kWidth; ++q) {
        tables.push_back((wave * kWidth + q) % kTables);
        cyclo::SharedQuery query;
        query.stationary = &tables_[static_cast<std::size_t>(tables.back())];
        queries.push_back(std::move(query));
      }
      cyclo::CycloJoin join(cluster_, spec_);
      const double wall0 = wall_s();
      const double cpu0 = process_cpu_s();
      cyclo::SharedRunReport report;
      {
        ScopedSpan span(&trace.spans, "cyclo.CycloJoin::run_shared", trace.op);
        report = join.run_shared(r_, queries);
      }
      trace.add_cyclo_call(report, wall_s() - wall0, process_cpu_s() - cpu0);
      for (int q = 0; q < kWidth; ++q) {
        const Expected& want = expected_[static_cast<std::size_t>(tables[static_cast<std::size_t>(q)])];
        const cyclo::QueryResult& got = report.queries[static_cast<std::size_t>(q)];
        failed += got.matches == want.matches && got.checksum == want.checksum ? 0 : 1;
      }
    }
    trace.finish_cyclo_op();
    return failed;
  }

  std::uint64_t rows_;
  cyclo::ClusterConfig cluster_;
  cyclo::JoinSpec spec_;
  rel::Relation r_;
  std::vector<rel::Relation> tables_;
  std::vector<Expected> expected_;
  std::unique_ptr<serve::QueryScheduler> sched_;
  SimTime clock_ = 0;
  std::uint64_t wire_so_far_ = 0;
  std::uint64_t last_op_wire_ = 0;
  int waves_so_far_ = 0;
  int next_table_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "equi_uniform_rt", "band_zipf_sim", "plan_chain_sim", "serve_shared_rt"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, bool smoke) {
  if (name == "equi_uniform_rt") {
    return std::make_unique<TwoWayJoin>(TwoWayJoin::Shape{
        .backend = cyclo::Backend::kRt, .hosts = 2, .cores = 1,
        .rows = smoke ? 1ULL << 14 : 1ULL << 22, .zipf = 0.0,
        .algorithm = cyclo::Algorithm::kHashJoin, .band = 0});
  }
  if (name == "band_zipf_sim") {
    return std::make_unique<TwoWayJoin>(TwoWayJoin::Shape{
        .backend = cyclo::Backend::kSim, .hosts = 6, .cores = 4,
        .rows = smoke ? 1ULL << 13 : 1ULL << 20, .zipf = 0.5,
        .algorithm = cyclo::Algorithm::kSortMergeJoin, .band = 1});
  }
  if (name == "plan_chain_sim") {
    return std::make_unique<PlanChain>(smoke ? 1ULL << 11 : 1ULL << 17);
  }
  if (name == "serve_shared_rt") {
    return std::make_unique<ServeShared>(smoke ? 1ULL << 13 : 1ULL << 20);
  }
  return nullptr;
}

}  // namespace cj::perfbench
