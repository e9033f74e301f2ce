// Tests of the benchmark itself: every workload runs at reduced size through
// the same checks as a full run, and the checks reject wrong results.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "runner.hpp"
#include "suite.hpp"

namespace perfbench {
namespace {

using ftbb::sim::ClusterResult;

constexpr WorkloadId kAll[] = {WorkloadId::kTable1, WorkloadId::kStorm,
                               WorkloadId::kTspSweep};

RunReport short_run(WorkloadId id, bool trace, std::uint64_t seed = 1) {
  RunOptions options;
  options.workload = id;
  options.seed = seed;
  options.seconds = 0.0;  // one round
  options.trace = trace;
  options.short_mode = true;
  return run_benchmark(options);
}

ClusterResult solve_once(const Suite& suite, std::size_t solve, std::uint32_t threads) {
  ftbb::sim::ClusterConfig cfg = suite.solves[solve].config;
  cfg.sim_threads = threads;
  return ftbb::sim::SimCluster::run(
      *suite.problems[suite.solves[solve].problem].workload.model, cfg);
}

std::set<std::string> names(const RunReport& report) {
  std::set<std::string> out;
  for (const Metric& m : report.metrics) out.insert(m.name);
  return out;
}

TEST(ShortMode, EveryWorkloadPassesItsChecksInBothPasses) {
  for (const WorkloadId id : kAll) {
    SCOPED_TRACE(to_string(id));
    const RunReport timed = short_run(id, false);
    EXPECT_TRUE(timed.correct) << (timed.errors.empty() ? "" : timed.errors.front());
    EXPECT_GT(timed.attempted, timed.failed);
    EXPECT_EQ(names(timed),
              (std::set<std::string>{"solve_s", "events_per_s", "setup_s",
                                     "peak_rss_mb", "sim_makespan_s", "wire_mb",
                                     "expansions"}));
    for (const Metric& m : timed.metrics) EXPECT_GT(m.value, 0.0) << m.name;

    const RunReport traced = short_run(id, true);
    EXPECT_TRUE(traced.correct) << (traced.errors.empty() ? "" : traced.errors.front());
    EXPECT_EQ(traced.metrics.size(), 48u);
    EXPECT_EQ(names(traced).size(), traced.metrics.size());
    // Both passes fail the same share of their operations.
    EXPECT_EQ(timed.failed * traced.attempted, traced.failed * timed.attempted);
  }
}

TEST(ShortMode, SimulatedMetricsDoNotDependOnTheSeed) {
  const RunReport a = short_run(WorkloadId::kTspSweep, false, 1);
  const RunReport b = short_run(WorkloadId::kTspSweep, false, 77);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (a.metrics[i].unit == "virtual_s" || a.metrics[i].name == "wire_mb" ||
        a.metrics[i].name == "expansions") {
      EXPECT_EQ(a.metrics[i].value, b.metrics[i].value) << a.metrics[i].name;
    }
  }
  EXPECT_EQ(a.failed * b.attempted, b.failed * a.attempted);
}

TEST(Checks, WrongExpectedOptimumIsAFailure) {
  const Suite suite = build_suite(WorkloadId::kTable1, true);
  const Problem& problem = suite.problems.front();
  const double optimum = expected_optimum(problem);
  const ClusterResult res = solve_once(suite, 0, 1);
  EXPECT_TRUE(check_solve(res, optimum, problem, true).empty());
  EXPECT_FALSE(check_solve(res, optimum + 1.0, problem, true).empty());

  const ftbb::bnb::SeqResult seq = ftbb::bnb::solve_sequential(*problem.workload.model);
  EXPECT_TRUE(check_reference(seq, optimum).empty());
  EXPECT_FALSE(check_reference(seq, optimum - 1.0).empty());
}

TEST(Checks, WrongLiveIncumbentAndLostNodesAreFailures) {
  const Suite suite = build_suite(WorkloadId::kTable1, true);
  const Problem& problem = suite.problems.front();
  const double optimum = expected_optimum(problem);
  ClusterResult res = solve_once(suite, 0, 1);
  ASSERT_TRUE(check_solve(res, optimum, problem, true).empty());

  ClusterResult wrong_incumbent = res;
  wrong_incumbent.incumbents.back() = optimum + 1.0;
  EXPECT_FALSE(check_solve(wrong_incumbent, optimum, problem, true).empty());

  ClusterResult lost_node = res;
  --lost_node.unique_expanded;
  EXPECT_FALSE(check_solve(lost_node, optimum, problem, true).empty());
  EXPECT_TRUE(check_solve(lost_node, optimum, problem, false).empty());

  ClusterResult truncated = res;
  truncated.hit_time_limit = true;
  EXPECT_FALSE(check_solve(truncated, optimum, problem, true).empty());
}

TEST(Checks, ShardedStatisticThatDiffersIsAFailure) {
  const Suite suite = build_suite(WorkloadId::kStorm, true);
  const SolveDigest sequential = SolveDigest::of(solve_once(suite, 0, 1));
  const SolveDigest sharded =
      SolveDigest::of(solve_once(suite, 0, kShardedThreads));
  EXPECT_TRUE(compare_digests(sequential, sharded).empty());

  SolveDigest more_events = sharded;
  ++more_events.events;
  EXPECT_FALSE(compare_digests(sequential, more_events).empty());
  SolveDigest later = sharded;
  later.makespan += 1e-9;
  EXPECT_FALSE(compare_digests(sequential, later).empty());
  SolveDigest other_ledger = sharded;
  other_ledger.ledger_fingerprint ^= 1;
  EXPECT_FALSE(compare_digests(sequential, other_ledger).empty());
}

}  // namespace
}  // namespace perfbench
