// Ablation: what the multi-round query planner buys.
//
// The paper sketches multi-join pipelines (Sec. IV-A: "the join output
// could naturally be used as input to subsequent processing in a larger
// query plan") but leaves the order and the data movement between runs
// open. This harness pins both down on two query shapes — the three-table
// chain and the four-table star — by running each three ways:
//
//   planner   PlanGen::best() executed by PlanExecutor: cost-picked order
//             and per-round rotation side, intermediates stay as per-host
//             partitions and move only via keyed ring redistribution
//   worst     the most expensive connected left-deep order the exhaustive
//             enumeration finds, same distributed executor — how much the
//             order alone is worth
//   collect   the planner's order, but between rounds every host's output
//             is concatenated at a coordinator and re-split for the next
//             run (the pre-planner examples/query_pipeline.cpp approach) —
//             how much staying distributed is worth
//
// Reported: summed setup+join wall per pipeline, ring wire bytes
// (rotation + redistribution), and coordinator bytes (rows gathered into
// one process between rounds; 0 for the distributed executor). Both
// backends run via --backend=sim|rt and write BENCH_plan.json.
#include <vector>

#include "harness.h"
#include "plan/plan_exec.h"
#include "plan/plan_gen.h"
#include "rel/partitioned.h"

namespace {

using namespace cj;

struct Shape {
  const char* name;
  plan::QueryGraph graph;
  std::vector<rel::Relation> relations;
};

Shape make_chain(std::int64_t scale) {
  Shape shape;
  shape.name = "chain";
  const std::uint64_t orders = 16'000'000 / static_cast<std::uint64_t>(scale);
  shape.relations.push_back(rel::generate(
      {.rows = orders * 4, .key_domain = orders, .seed = 41}, "lineitems", 1));
  shape.relations.push_back(rel::generate(
      {.rows = orders, .key_domain = orders, .seed = 42}, "orders", 2));
  shape.relations.push_back(rel::generate(
      {.rows = orders * 2, .key_domain = orders, .seed = 43}, "shipments", 3));
  const int l = shape.graph.add_relation(
      "lineitems", rel::collect_stats(shape.relations[0]));
  const int o =
      shape.graph.add_relation("orders", rel::collect_stats(shape.relations[1]));
  const int s = shape.graph.add_relation(
      "shipments", rel::collect_stats(shape.relations[2]));
  shape.graph.add_join(l, o);
  shape.graph.add_join(o, s);
  return shape;
}

Shape make_star(std::int64_t scale) {
  Shape shape;
  shape.name = "star";
  const std::uint64_t dom = 12'000'000 / static_cast<std::uint64_t>(scale);
  shape.relations.push_back(rel::generate(
      {.rows = dom * 4, .key_domain = dom, .seed = 51}, "sales", 1));
  shape.relations.push_back(rel::generate(
      {.rows = dom, .key_domain = dom, .seed = 52}, "customers", 2));
  shape.relations.push_back(rel::generate(
      {.rows = dom / 8, .key_domain = dom, .seed = 53}, "products", 3));
  shape.relations.push_back(rel::generate(
      {.rows = dom / 100, .key_domain = dom, .seed = 54}, "promotions", 4));
  const int f =
      shape.graph.add_relation("sales", rel::collect_stats(shape.relations[0]));
  const int c = shape.graph.add_relation(
      "customers", rel::collect_stats(shape.relations[1]));
  const int p = shape.graph.add_relation(
      "products", rel::collect_stats(shape.relations[2]));
  const int m = shape.graph.add_relation(
      "promotions", rel::collect_stats(shape.relations[3]));
  shape.graph.add_join(f, c);
  shape.graph.add_join(f, p);
  shape.graph.add_join(f, m);
  return shape;
}

struct Row {
  const char* variant;
  std::uint64_t matches = 0;
  int rounds = 0;
  double total_s = 0;
  double wire_mb = 0;
  double coordinator_mb = 0;
};

/// Runs a compiled plan on the distributed executor.
Row run_distributed(const char* variant, const plan::Plan& plan,
                    const Shape& shape, const plan::ExecConfig& cfg) {
  std::vector<rel::PartitionedRelation> inputs;
  inputs.reserve(shape.relations.size());
  for (const rel::Relation& r : shape.relations) {
    inputs.push_back(rel::PartitionedRelation::split(r, cfg.cluster.num_hosts));
  }
  plan::PlanExecutor exec(cfg);
  const plan::PlanRunReport rep =
      exec.execute(plan, shape.graph, std::move(inputs));
  Row row;
  row.variant = variant;
  row.matches = rep.matches;
  row.rounds = static_cast<int>(rep.rounds.size());
  for (const plan::RoundReport& round : rep.rounds) {
    row.total_s += bench::seconds(round.setup_wall + round.join_wall);
  }
  row.wire_mb = static_cast<double>(rep.wire_bytes) / 1e6;
  return row;
}

/// The pre-planner baseline: same join order, but each round is a normal
/// CycloJoin::run whose inputs are whole relations — the previous round's
/// distributed output is concatenated into one process and re-split.
Row run_collect(const plan::Plan& plan, const Shape& shape,
                const plan::ExecConfig& cfg) {
  Row row;
  row.variant = "collect";
  row.rounds = static_cast<int>(plan.rounds.size());
  std::uint64_t wire = 0;
  rel::Relation intermediate("intermediate");
  for (std::size_t k = 0; k < plan.rounds.size(); ++k) {
    const plan::PlannedRound& round = plan.rounds[k];
    const rel::Relation& base =
        shape.relations[static_cast<std::size_t>(round.relation)];
    const rel::Relation& rotating = k == 0
        ? shape.relations[static_cast<std::size_t>(plan.order[0])]
        : intermediate;
    const bool final_round = k + 1 == plan.rounds.size();
    cyclo::JoinSpec spec;
    spec.algorithm = round.band > 0 ? cyclo::Algorithm::kSortMergeJoin
                                    : cyclo::Algorithm::kHashJoin;
    spec.band = round.band;
    spec.materialize = !final_round;
    cyclo::CycloJoin join(cfg.cluster, spec);
    const cyclo::RunReport rep = join.run(rotating, base);
    row.total_s += bench::seconds(rep.setup_wall + rep.join_wall);
    wire += rep.bytes_on_wire;
    row.matches = rep.matches;
    if (final_round) break;
    // The collect step: every host's output lands in one address space.
    rel::Relation gathered("intermediate");
    for (const join::JoinResult& host_result : rep.host_results) {
      for (const join::OutTuple& t : host_result.output()) {
        gathered.push_back(rel::Tuple{t.key, t.r_payload});
      }
    }
    row.coordinator_mb += static_cast<double>(gathered.bytes()) / 1e6;
    intermediate = std::move(gathered);
  }
  row.wire_mb = static_cast<double>(wire) / 1e6;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cj;
  auto flags = bench::parse_flags_or_die(argc, argv);
  const std::int64_t scale = flags.get_int("scale", bench::kDefaultScale);
  const int hosts = static_cast<int>(flags.get_int("hosts", 5));
  const cyclo::Backend backend = bench::backend_flag(flags);
  bench::BenchJson json(flags, "plan");
  bench::check_unused_flags(flags);

  bench::print_banner(
      "Ablation — multi-round join planning (chain + star)",
      "cost-picked join order and distributed intermediates both matter; "
      "the worst order and the collect-and-resplit baseline each lose "
      "(extension of paper Sec. IV-A)",
      scale);

  plan::ExecConfig cfg;
  cfg.cluster = bench::paper_cluster(hosts, scale);
  cfg.cluster.backend = backend;
  cfg.materialize_final = false;  // pipelines end in counts here
  model::PlanCostParams params;
  params.num_hosts = hosts;

  json.set_backend(backend);
  std::printf("%6s  %-8s  %7s  %12s  %10s  %9s  %10s\n", "shape", "variant",
              "rounds", "matches", "total[s]", "wire[MB]", "coord[MB]");

  std::vector<Shape> shapes;
  shapes.push_back(make_chain(scale));
  shapes.push_back(make_star(scale));
  for (Shape& shape : shapes) {
    plan::PlanGen gen(shape.graph, params);
    const plan::Plan best = gen.best();
    const std::vector<plan::Plan> all = gen.enumerate();
    const plan::Plan& worst = all.back();

    std::vector<Row> rows;
    rows.push_back(run_distributed("planner", best, shape, cfg));
    rows.push_back(run_distributed("worst", worst, shape, cfg));
    rows.push_back(run_collect(best, shape, cfg));

    for (const Row& row : rows) {
      CJ_CHECK_MSG(row.matches == rows.front().matches,
                   "variants disagree on the result cardinality");
      std::printf("%6s  %-8s  %7d  %12llu  %10.3f  %9.2f  %10.2f\n",
                  shape.name, row.variant, row.rounds,
                  static_cast<unsigned long long>(row.matches), row.total_s,
                  row.wire_mb, row.coordinator_mb);
      json.row({{"shape", shape.name}, {"variant", row.variant}},
               {{"rounds", static_cast<double>(row.rounds)},
                {"matches", static_cast<double>(row.matches)},
                {"total_s", row.total_s},
                {"wire_mb", row.wire_mb},
                {"coordinator_mb", row.coordinator_mb}});
    }
    std::printf("  planner order: %s\n\n", best.to_string(shape.graph).c_str());
  }

  std::printf("'worst' pays for a bad order on the same executor; 'collect' "
              "funnels every intermediate through one process — the "
              "distributed executor keeps coord[MB] at zero by construction\n");
  json.write();
  return 0;
}
