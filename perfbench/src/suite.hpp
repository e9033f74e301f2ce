// The whole-solve benchmark's workloads and the checks every solve must pass.
//
// A workload is a suite: the problem instances it solves, and one solve per
// instance and fault plan. Timed solves make the end-to-end metrics. An
// isolated solve runs in a forked child on the sequential executor, so that
// an abort inside the library counts as one failed operation instead of
// ending the run; isolated solves stay out of every metric.
//
// Checks compare each solve against values computed apart from the
// distributed solve: the minimum over the feasible nodes of the basic tree,
// or the TSP tour-enumeration optimum, each confirmed by
// bnb::solve_sequential.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bnb/basic_tree.hpp"
#include "bnb/sequential.hpp"
#include "sim/cluster.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

enum class WorkloadId : std::uint8_t { kTable1, kStorm, kTspSweep };

/// Parses "table1" / "storm" / "tsp-sweep"; false on anything else.
bool parse_workload(const std::string& name, WorkloadId* out);
const char* to_string(WorkloadId id);

/// Threads of the sharded executor every timed solve is checked against.
inline constexpr std::uint32_t kShardedThreads = 4;

struct Problem {
  std::string label;
  ftbb::sim::Workload workload;
};

struct Solve {
  std::size_t problem = 0;  // index into Suite::problems
  ftbb::sim::ClusterConfig config;  // sim_threads is set per execution
  bool isolated = false;
};

struct Suite {
  WorkloadId id = WorkloadId::kTable1;
  std::vector<Problem> problems;
  std::vector<Solve> solves;
  /// table1 only: no node can be eliminated, so every node of the tree
  /// must be expanded exactly once among the unique expansions.
  bool expect_full_traversal = false;

  [[nodiscard]] std::size_t timed_solves() const;
};

/// Builds the workload's instances and cluster configurations. This is the
/// work `setup_s` times. `short_mode` shrinks every instance so the same
/// checks run in a few seconds (the benchmark's own tests use it).
Suite build_suite(WorkloadId id, bool short_mode);

/// The optimum as the benchmark computes it, apart from the library's own
/// bookkeeping: the minimum over the feasible nodes of the basic tree, or
/// the TSP tour-enumeration optimum.
double expected_optimum(const Problem& problem);

/// The basic tree behind a tree workload, or nullptr.
const ftbb::bnb::BasicTree* tree_of(const Problem& problem);

/// The simulated statistics that must not depend on the executor.
struct SolveDigest {
  std::uint64_t events = 0;
  std::uint64_t expansions = 0;
  std::uint64_t unique_expansions = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double makespan = 0.0;
  std::uint64_t ledger_fingerprint = 0;

  static SolveDigest of(const ftbb::sim::ClusterResult& res);
};

/// Failures of one solve: it must halt on its own with every live worker
/// holding `optimum`; with `expect_full_traversal`, unique expansions must
/// equal the tree's node count. Empty when the solve is correct.
std::vector<std::string> check_solve(const ftbb::sim::ClusterResult& res,
                                     double optimum, const Problem& problem,
                                     bool expect_full_traversal);

/// Failures where `got` differs from `reference` on any simulated statistic.
std::vector<std::string> compare_digests(const SolveDigest& reference,
                                         const SolveDigest& got);

/// Failures of the reference check: the `bnb::solve_sequential` run must
/// have completed and found `optimum`.
std::vector<std::string> check_reference(const ftbb::bnb::SeqResult& seq,
                                         double optimum);

}  // namespace perfbench
