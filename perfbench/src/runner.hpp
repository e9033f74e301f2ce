// One benchmark run: the timed pass (end-to-end metrics) or the traced pass
// (per-layer metrics) of one workload.
//
// Both passes first check every problem against bnb::solve_sequential and
// execute every timed solve once on the sharded executor; every later
// execution must match that execution's simulated statistics exactly. An
// operation is one timed solve, executed and checked, or one isolated solve.
//
// The timed pass sets the suite up several times (the median is setup_s),
// then runs whole rounds until the run's time is up. A round executes every
// timed solve on the sequential executor and every isolated solve once, in
// an order shuffled from the seed. Solves never change with the seed, so
// simulated metrics repeat exactly and only host times vary.
//
// The traced pass executes every timed solve twice on the sequential
// executor, untraced and then through TimedModel under spans, and every
// isolated solve once. Both passes fail the same share of operations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "suite.hpp"

namespace perfbench {

struct RunOptions {
  WorkloadId workload = WorkloadId::kTable1;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  /// Traced pass only: where the spans are written (empty: not written).
  std::string span_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  /// False if any operation that did not fail, or any reference check,
  /// gave a wrong result.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// What made `correct` false.
  std::vector<std::string> errors;
  /// Why each failed operation failed (one line each, deduplicated).
  std::vector<std::string> failure_reasons;
};

RunReport run_benchmark(const RunOptions& options);

/// The report as the one-line JSON object the benchmark prints last.
std::string to_json(const RunReport& report);

}  // namespace perfbench
