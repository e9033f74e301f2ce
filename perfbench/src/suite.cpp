#include "suite.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bnb/problem.hpp"
#include "fault/schedule.hpp"
#include "sim/fault_plan.hpp"

namespace perfbench {

using namespace ftbb;

namespace {

// table1: the paper's Table 1 tree (79,601 nodes) at Figure 3's 10 ms/node
// granularity on 100 workers, so the run is dense in events. The tree and
// the worker tuning are the constants of bench::large_problem_dense and
// bench::small_cluster_config, copied so that edits to the micro-benchmarks
// cannot change this benchmark.
constexpr std::uint64_t kTable1Nodes = 79601;
constexpr std::uint64_t kTable1ShortNodes = 4001;
constexpr std::uint64_t kTable1TreeSeed = 20000509;
constexpr std::uint32_t kTable1Workers = 100;

// storm: the planetary storm on 10^4 workers in racks of 32, campuses of 8
// racks, over the 50,001-node synthetic tree (bench_planetary's row, run to
// termination instead of to a horizon).
constexpr std::uint32_t kStormWorkers = 10000;
constexpr std::uint32_t kStormShortWorkers = 1000;
constexpr std::uint32_t kStormTreeNodes = 50001;
constexpr std::uint32_t kStormShortTreeNodes = 5001;
constexpr std::uint32_t kNodesPerRack = 32;
constexpr std::uint32_t kRacksPerCampus = 8;
constexpr std::uint64_t kStormSeed = 9;

// tsp-sweep: TSP-10 instances 1..16, 32 workers, kV1 frames. Each instance
// is solved fault-free (timed) and under a cascading crash storm (isolated).
constexpr std::uint32_t kTspCities = 10;
constexpr std::uint32_t kTspShortCities = 8;
constexpr std::uint64_t kTspInstances = 16;
constexpr std::uint64_t kTspShortInstances = 4;
constexpr std::uint32_t kTspWorkers = 32;

core::WorkerConfig table1_worker() {
  core::WorkerConfig w;
  w.report_batch = 8;
  w.report_flush_interval = 0.25;
  w.report_fanout = 2;
  w.table_gossip_interval = 1.0;
  w.work_request_timeout = 0.03;
  w.idle_backoff = 0.01;
  w.initial_stagger = 0.01;
  w.attempts_before_recovery = 3;
  return w;
}

core::WorkerConfig small_problem_worker() {
  sim::ScenarioSpec spec;
  spec.tune_for_small_problems();
  return spec.worker;
}

void apply_schedule(const fault::FaultSchedule& schedule, sim::ClusterConfig& cfg) {
  cfg.workers = schedule.population;
  cfg.loss_rules = schedule.loss_rules;
  for (const fault::CrashAt& c : schedule.crashes) {
    cfg.crashes.push_back(sim::CrashEvent{c.node, c.time});
  }
  for (const fault::ReviveAt& r : schedule.revives) {
    cfg.rejoins.push_back(sim::ReviveEvent{r.node, r.time});
  }
  cfg.partitions = schedule.partitions;
  cfg.join_times = schedule.join_times;
}

Suite table1_suite(bool short_mode) {
  Suite suite;
  suite.id = WorkloadId::kTable1;
  suite.expect_full_traversal = true;

  bnb::RandomTreeConfig tree_cfg;
  tree_cfg.target_nodes = short_mode ? kTable1ShortNodes : kTable1Nodes;
  tree_cfg.cost_mean = 0.01;
  tree_cfg.cost_cv = 0.25;
  tree_cfg.seed = kTable1TreeSeed;
  tree_cfg.depth_bias = 0.6;
  // Feasible values sit far above the bounds, so nothing is eliminated.
  tree_cfg.value_slack_mean = 1e7;
  auto tree = std::make_shared<bnb::BasicTree>(bnb::BasicTree::random(tree_cfg));

  Problem problem;
  problem.label = "table1-tree";
  problem.workload.model = std::make_unique<bnb::TreeProblem>(tree.get());
  problem.workload.storage = tree;
  problem.workload.name = "basic-tree";
  suite.problems.push_back(std::move(problem));

  Solve solve;
  solve.config.workers = kTable1Workers;
  solve.config.worker = table1_worker();
  solve.config.seed = 1;
  solve.config.time_limit = 3e4;
  solve.config.storage_sample_interval = 1.0;
  suite.solves.push_back(std::move(solve));
  return suite;
}

Suite storm_suite(bool short_mode) {
  Suite suite;
  suite.id = WorkloadId::kStorm;
  const std::uint32_t workers = short_mode ? kStormShortWorkers : kStormWorkers;

  sim::WorkloadSpec spec;
  spec.kind = sim::WorkloadKind::kSyntheticTree;
  spec.size = short_mode ? kStormShortTreeNodes : kStormTreeNodes;
  spec.seed = kStormSeed;
  spec.cost_mean = 2e-3;
  Problem problem;
  problem.label = "storm-tree";
  problem.workload = sim::build_workload(spec);
  suite.problems.push_back(std::move(problem));

  const fault::FaultSchedule schedule = fault::FaultSchedule::compile(
      sim::FaultPlan::planetary_storm(workers, kNodesPerRack, kRacksPerCampus,
                                      /*start=*/0.01, /*scale=*/0.02),
      workers);
  Solve solve;
  apply_schedule(schedule, solve.config);
  solve.config.worker = small_problem_worker();
  solve.config.peer_view_limit = 32;
  solve.config.seed = kStormSeed;
  solve.config.time_limit = 600.0;
  solve.config.net.topology.nodes_per_rack = kNodesPerRack;
  solve.config.net.topology.racks_per_campus = kRacksPerCampus;
  suite.solves.push_back(std::move(solve));
  return suite;
}

Suite tsp_suite(bool short_mode) {
  Suite suite;
  suite.id = WorkloadId::kTspSweep;
  const std::uint64_t instances = short_mode ? kTspShortInstances : kTspInstances;
  const fault::FaultSchedule storm = fault::FaultSchedule::compile(
      sim::FaultPlan::cascading_storm(/*first=*/1, /*waves=*/8, /*start=*/0.05,
                                      /*gap=*/0.05, /*downtime=*/0.2),
      kTspWorkers);
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    sim::WorkloadSpec spec;
    spec.kind = sim::WorkloadKind::kTsp;
    spec.size = short_mode ? kTspShortCities : kTspCities;
    spec.seed = seed;
    Problem problem;
    problem.label = "tsp-" + std::to_string(seed);
    problem.workload = sim::build_workload(spec);
    suite.problems.push_back(std::move(problem));

    Solve fault_free;
    fault_free.problem = suite.problems.size() - 1;
    fault_free.config.workers = kTspWorkers;
    fault_free.config.worker = small_problem_worker();
    fault_free.config.seed = seed;
    fault_free.config.time_limit = 600.0;
    fault_free.config.wire = core::FrameVersion::kV1;

    Solve crash_storm = fault_free;
    crash_storm.isolated = true;
    apply_schedule(storm, crash_storm.config);

    suite.solves.push_back(std::move(fault_free));
    suite.solves.push_back(std::move(crash_storm));
  }
  return suite;
}

std::string describe(const char* what, double want, double got) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: expected %.17g, got %.17g", what, want, got);
  return buf;
}

std::string describe(const char* what, std::uint64_t want, std::uint64_t got) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: expected %llu, got %llu", what,
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got));
  return buf;
}

}  // namespace

bool parse_workload(const std::string& name, WorkloadId* out) {
  for (const WorkloadId id :
       {WorkloadId::kTable1, WorkloadId::kStorm, WorkloadId::kTspSweep}) {
    if (name == to_string(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kTable1:
      return "table1";
    case WorkloadId::kStorm:
      return "storm";
    case WorkloadId::kTspSweep:
      return "tsp-sweep";
  }
  return "?";
}

std::size_t Suite::timed_solves() const {
  return static_cast<std::size_t>(std::count_if(
      solves.begin(), solves.end(), [](const Solve& s) { return !s.isolated; }));
}

Suite build_suite(WorkloadId id, bool short_mode) {
  switch (id) {
    case WorkloadId::kTable1:
      return table1_suite(short_mode);
    case WorkloadId::kStorm:
      return storm_suite(short_mode);
    case WorkloadId::kTspSweep:
      return tsp_suite(short_mode);
  }
  return {};
}

const bnb::BasicTree* tree_of(const Problem& problem) {
  const auto* tree_problem =
      dynamic_cast<const bnb::TreeProblem*>(problem.workload.model.get());
  return tree_problem != nullptr ? &tree_problem->tree() : nullptr;
}

double expected_optimum(const Problem& problem) {
  if (const bnb::BasicTree* tree = tree_of(problem)) {
    double best = bnb::kInfinity;
    for (std::size_t i = 0; i < tree->size(); ++i) {
      const bnb::TreeNode& node = tree->node(i);
      if (node.feasible) best = std::min(best, node.value);
    }
    return best;
  }
  // TspProblem enumerates every fixed-origin tour in its constructor.
  return problem.workload.model->known_optimal().value_or(bnb::kInfinity);
}

SolveDigest SolveDigest::of(const sim::ClusterResult& res) {
  SolveDigest d;
  d.events = res.kernel_events;
  d.expansions = res.total_expanded;
  d.unique_expansions = res.unique_expanded;
  d.messages = res.net.messages_sent;
  d.bytes = res.net.bytes_sent;
  d.makespan = res.makespan;
  d.ledger_fingerprint = res.work.fingerprint();
  return d;
}

std::vector<std::string> check_solve(const sim::ClusterResult& res, double optimum,
                                     const Problem& problem,
                                     bool expect_full_traversal) {
  std::vector<std::string> failures;
  if (res.hit_time_limit) failures.emplace_back("hit the virtual time limit");
  if (res.hit_event_limit) failures.emplace_back("hit the event limit");
  if (!res.all_live_halted) failures.emplace_back("a live worker did not halt");
  if (!res.solution_found || res.solution != optimum) {
    failures.push_back(describe("solution", optimum, res.solution));
  }
  for (std::size_t i = 0; i < res.incumbents.size(); ++i) {
    if (res.crashed[i]) continue;
    if (res.incumbents[i] != optimum) {
      failures.push_back(describe(("incumbent of live worker " + std::to_string(i)).c_str(),
                                  optimum, res.incumbents[i]));
      break;  // one is enough to fail the solve
    }
  }
  if (expect_full_traversal) {
    const bnb::BasicTree* tree = tree_of(problem);
    const std::uint64_t nodes = tree != nullptr ? tree->size() : 0;
    if (res.unique_expanded != nodes) {
      failures.push_back(describe("unique expansions", nodes, res.unique_expanded));
    }
  }
  return failures;
}

std::vector<std::string> compare_digests(const SolveDigest& reference,
                                         const SolveDigest& got) {
  std::vector<std::string> failures;
  auto field = [&](const char* name, std::uint64_t want, std::uint64_t have) {
    if (want != have) failures.push_back(describe(name, want, have));
  };
  field("kernel events", reference.events, got.events);
  field("expansions", reference.expansions, got.expansions);
  field("unique expansions", reference.unique_expansions, got.unique_expansions);
  field("messages", reference.messages, got.messages);
  field("bytes", reference.bytes, got.bytes);
  field("ledger fingerprint", reference.ledger_fingerprint, got.ledger_fingerprint);
  if (reference.makespan != got.makespan) {
    failures.push_back(describe("makespan", reference.makespan, got.makespan));
  }
  return failures;
}

std::vector<std::string> check_reference(const bnb::SeqResult& seq, double optimum) {
  std::vector<std::string> failures;
  if (!seq.completed) failures.emplace_back("sequential reference did not complete");
  if (seq.best_value != optimum) {
    failures.push_back(describe("sequential reference optimum", optimum, seq.best_value));
  }
  return failures;
}

}  // namespace perfbench
