#include "runner.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "bnb/sequential.hpp"
#include "core/cost_model.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ftbb;

namespace {

// Set-up is repeated at least this often and for at least this long, and
// setup_s is the median: one table1 or storm set-up takes about 10 ms.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

sim::ClusterResult execute(const bnb::IProblemModel& model, const Solve& solve,
                           std::uint32_t threads) {
  sim::ClusterConfig cfg = solve.config;
  cfg.sim_threads = threads;
  return sim::SimCluster::run(model, cfg);
}

void note(std::vector<std::string>& into, const std::string& what,
          const std::vector<std::string>& failures) {
  for (const std::string& f : failures) into.push_back(what + ": " + f);
}

void note_reason(RunReport& report, const std::string& reason) {
  if (std::find(report.failure_reasons.begin(), report.failure_reasons.end(),
                reason) == report.failure_reasons.end()) {
    report.failure_reasons.push_back(reason);
  }
}

/// Runs an isolated solve in a forked child on the sequential executor.
/// Returns an empty string when it halted with the right optimum, else why
/// it failed (an abort inside the library, or a failed check).
std::string run_isolated(const Suite& suite, const Solve& solve, double optimum) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return std::string("pipe: ") + std::strerror(errno);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return std::string("fork: ") + std::strerror(errno);
  }
  const Problem& problem = suite.problems[solve.problem];
  if (pid == 0) {
    close(pipe_fds[0]);
    dup2(pipe_fds[1], STDERR_FILENO);
    const sim::ClusterResult res = execute(*problem.workload.model, solve, 1);
    const std::vector<std::string> failures =
        check_solve(res, optimum, problem, suite.expect_full_traversal);
    if (!failures.empty()) std::fprintf(stderr, "%s\n", failures.front().c_str());
    std::fflush(stderr);
    _exit(failures.empty() ? 0 : 1);
  }
  close(pipe_fds[1]);
  std::string output;
  char buf[512];
  for (;;) {
    const ssize_t n = read(pipe_fds[0], buf, sizeof buf);
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(pipe_fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return {};
  std::string reason = output.substr(0, output.find('\n'));
  if (WIFSIGNALED(status)) {
    reason = std::string("killed by ") + strsignal(WTERMSIG(status)) + ": " + reason;
  }
  return problem.label + " under faults: " + reason;
}

/// What both passes establish before their first operation: each problem's
/// optimum, checked against bnb::solve_sequential, and each timed solve's
/// digest from one execution on the sharded executor. Every later
/// (sequential) execution must match that digest exactly.
struct References {
  std::vector<double> optima;        // per problem
  std::vector<SolveDigest> digests;  // per solve; isolated solves have none
};

References check_references(const Suite& suite, SpanRecorder& spans,
                            std::vector<std::string>& errors) {
  References refs;
  for (const Problem& problem : suite.problems) {
    bnb::SeqResult seq;
    {
      const auto span = spans.open("seq.solve");
      seq = bnb::solve_sequential(*problem.workload.model);
    }
    const auto span = spans.open("check.reference");
    refs.optima.push_back(expected_optimum(problem));
    note(errors, problem.label, check_reference(seq, refs.optima.back()));
  }
  refs.digests.resize(suite.solves.size());
  for (std::size_t i = 0; i < suite.solves.size(); ++i) {
    const Solve& solve = suite.solves[i];
    if (solve.isolated) continue;
    const Problem& problem = suite.problems[solve.problem];
    sim::ClusterResult res;
    {
      const auto span = spans.open("cluster.run.sharded");
      res = execute(*problem.workload.model, solve, kShardedThreads);
    }
    const auto span = spans.open("check.sharded");
    note(errors, problem.label + " (sharded)",
         check_solve(res, refs.optima[solve.problem], problem,
                     suite.expect_full_traversal));
    refs.digests[i] = SolveDigest::of(res);
  }
  return refs;
}

/// Checks one sequential execution of a timed solve; failures go to
/// `failures` prefixed with `what`.
void check_execution(const Suite& suite, const References& refs, std::size_t i,
                     const sim::ClusterResult& res, const std::string& what,
                     std::vector<std::string>& failures) {
  const Solve& solve = suite.solves[i];
  const Problem& problem = suite.problems[solve.problem];
  note(failures, problem.label + what,
       check_solve(res, refs.optima[solve.problem], problem, suite.expect_full_traversal));
  note(failures, problem.label + what + " differs from the sharded execution",
       compare_digests(refs.digests[i], SolveDigest::of(res)));
}

/// Runs an isolated solve as one operation.
void isolated_operation(const Suite& suite, const References& refs, const Solve& solve,
                        RunReport& report) {
  ++report.attempted;
  const std::string reason = run_isolated(suite, solve, refs.optima[solve.problem]);
  if (!reason.empty()) {
    ++report.failed;
    note_reason(report, reason);
  }
}

void run_timed(const RunOptions& options, RunReport& report) {
  std::vector<double> setup_times;
  Suite suite;
  const double setup_start = now_seconds();
  while (setup_times.size() < kMinSetups ||
         now_seconds() - setup_start < kMinSetupSeconds) {
    suite = Suite{};  // free the previous copy outside the timed region
    const double t0 = now_seconds();
    suite = build_suite(options.workload, options.short_mode);
    setup_times.push_back(now_seconds() - t0);
  }

  SpanRecorder spans;  // only the traced pass writes its spans out
  const References refs = check_references(suite, spans, report.errors);

  std::vector<std::size_t> order(suite.solves.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> round_seconds;
  const support::Rng seeded(options.seed);
  const double start = now_seconds();
  for (std::uint64_t round = 0;
       round == 0 || now_seconds() - start < options.seconds; ++round) {
    support::Rng rng = seeded.split(round);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    double seconds = 0.0;
    for (const std::size_t i : order) {
      const Solve& solve = suite.solves[i];
      if (solve.isolated) {
        isolated_operation(suite, refs, solve, report);
        continue;
      }
      ++report.attempted;
      const double t0 = now_seconds();
      const sim::ClusterResult res =
          execute(*suite.problems[solve.problem].workload.model, solve, 1);
      seconds += now_seconds() - t0;
      std::vector<std::string> failures;
      check_execution(suite, refs, i, res, "", failures);
      if (!failures.empty()) {
        ++report.failed;
        for (std::string& f : failures) report.errors.push_back(std::move(f));
      }
    }
    round_seconds.push_back(seconds);
    std::fprintf(stderr, "round %llu: %.4f s\n", static_cast<unsigned long long>(round),
                 seconds);
  }

  SolveDigest total;
  for (const SolveDigest& d : refs.digests) {
    total.events += d.events;
    total.expansions += d.expansions;
    total.bytes += d.bytes;
    total.makespan += d.makespan;
  }
  const double round = median(round_seconds);
  report.metrics = {
      {"solve_s", round / static_cast<double>(suite.timed_solves()), "s"},
      {"events_per_s", static_cast<double>(total.events) / round, "events/s"},
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_makespan_s", total.makespan, "virtual_s"},
      {"wire_mb", static_cast<double>(total.bytes) / 1e6, "MB"},
      {"expansions", static_cast<double>(total.expansions), "count"},
  };
}

/// Simulated counts of the traced solves, summed over the suite.
struct Counts {
  core::WorkLedger work;
  sim::WireStats wire;
  sim::Network::Stats net;
  std::uint64_t events = 0;
  std::uint64_t total_expanded = 0;
  std::uint64_t unique_expanded = 0;
  std::uint64_t redundant_expanded = 0;
  double redundant_cost = 0.0;
  double peak_total_bytes = 0.0;
  double peak_unique_bytes = 0.0;

  void add(const sim::ClusterResult& res) {
    work.add(res.work);
    wire.add(res.wire);
    net.messages_sent += res.net.messages_sent;
    net.messages_lost += res.net.messages_lost;
    net.messages_partitioned += res.net.messages_partitioned;
    events += res.kernel_events;
    total_expanded += res.total_expanded;
    unique_expanded += res.unique_expanded;
    redundant_expanded += res.redundant_expansions;
    redundant_cost += res.redundant_cost;
    peak_total_bytes += static_cast<double>(res.peak_table_bytes_total);
    peak_unique_bytes += static_cast<double>(res.peak_table_bytes_unique);
  }
};

void run_traced(const RunOptions& options, RunReport& report) {
  SpanRecorder spans;
  Suite suite;
  {
    const auto span = spans.open("problem.build");
    suite = build_suite(options.workload, options.short_mode);
  }
  const References refs = check_references(suite, spans, report.errors);

  Counts counts;
  std::uint64_t eval_calls = 0;
  std::uint64_t bound_of_calls = 0;
  double eval_seconds = 0.0;
  double bound_of_seconds = 0.0;
  for (std::size_t i = 0; i < suite.solves.size(); ++i) {
    const Solve& solve = suite.solves[i];
    if (solve.isolated) {
      const auto span = spans.open("isolated.run");
      isolated_operation(suite, refs, solve, report);
      continue;
    }
    // One operation: the solve untraced, then traced, on the sequential executor.
    ++report.attempted;
    const bnb::IProblemModel& model = *suite.problems[solve.problem].workload.model;
    sim::ClusterResult untraced;
    {
      const auto span = spans.open("cluster.run.untraced");
      untraced = execute(model, solve, 1);
    }
    const TimedModel timed(model);
    sim::ClusterResult res;
    {
      const auto span = spans.open("cluster.run");
      res = execute(timed, solve, 1);
    }
    const auto span = spans.open("check");
    std::vector<std::string> failures;
    check_execution(suite, refs, i, untraced, " (untraced)", failures);
    check_execution(suite, refs, i, res, " (traced)", failures);
    if (!failures.empty()) {
      ++report.failed;
      for (std::string& f : failures) report.errors.push_back(std::move(f));
    }
    counts.add(res);
    eval_calls += timed.eval_calls();
    bound_of_calls += timed.bound_of_calls();
    eval_seconds += timed.eval_seconds();
    bound_of_seconds += timed.bound_of_seconds();
  }

  // Host times of solve-scoped work are per timed solve; the build covers
  // the whole suite, like setup_s. Simulated counts are summed.
  const double solves = static_cast<double>(suite.timed_solves());
  const double run_s = spans.total_seconds("cluster.run");
  const auto item = [&](core::WorkItem w) {
    return static_cast<double>(counts.work[w]);
  };
  const auto mb = [](double bytes) { return bytes / 1e6; };
  report.metrics = {
      {"table.codes_inserted", item(core::WorkItem::kContractionCodes), "count"},
      {"table.nodes_walked", item(core::WorkItem::kContractionNodes), "count"},
      {"table.peak_total_mb", mb(counts.peak_total_bytes), "MB"},
      {"table.peak_unique_mb", mb(counts.peak_unique_bytes), "MB"},
      {"wire.frames", static_cast<double>(counts.wire.frames), "count"},
      {"wire.frame_mb", mb(static_cast<double>(counts.wire.frame_bytes)), "MB"},
      {"wire.flat_mb", mb(static_cast<double>(counts.wire.flat_bytes)), "MB"},
      {"wire.report_frame_mb", mb(static_cast<double>(counts.wire.report_frame_bytes)), "MB"},
      {"wire.delta_reports", static_cast<double>(counts.wire.delta_reports), "count"},
      {"kernel.events", static_cast<double>(counts.events), "count"},
      {"executor.sharded_solve_s", spans.total_seconds("cluster.run.sharded") / solves, "s"},
      {"net.messages", static_cast<double>(counts.net.messages_sent), "count"},
      {"net.lost", static_cast<double>(counts.net.messages_lost), "count"},
      {"net.partitioned", static_cast<double>(counts.net.messages_partitioned), "count"},
      {"pool.pushes", item(core::WorkItem::kPoolPushes), "count"},
      {"pool.pops", item(core::WorkItem::kPoolPops), "count"},
      {"pool.sweep_scanned", item(core::WorkItem::kSweepEntriesScanned), "count"},
      {"pool.nursery_drains", item(core::WorkItem::kNurseryDrains), "count"},
      {"pool.index_builds", item(core::WorkItem::kIndexBuilds), "count"},
      {"pool.share_extracted", item(core::WorkItem::kShareExtracted), "count"},
      {"bnb.build_s", spans.total_seconds("problem.build"), "s"},
      {"bnb.eval_calls", static_cast<double>(eval_calls), "count"},
      {"bnb.eval_s", eval_seconds / solves, "s"},
      {"bnb.bound_of_calls", static_cast<double>(bound_of_calls), "count"},
      {"bnb.bound_of_s", bound_of_seconds / solves, "s"},
      {"search.unique_expansions", static_cast<double>(counts.unique_expanded), "count"},
      {"search.redundant_expansions", static_cast<double>(counts.redundant_expanded), "count"},
      {"search.useful_ratio",
       static_cast<double>(counts.unique_expanded) /
           static_cast<double>(std::max<std::uint64_t>(counts.total_expanded, 1)),
       "ratio"},
      {"search.eliminated", item(core::WorkItem::kEliminated), "count"},
      {"lb.work_requests", item(core::WorkItem::kWorkRequestsSent), "count"},
      {"lb.grants", item(core::WorkItem::kGrantsReceived), "count"},
      {"lb.denies", item(core::WorkItem::kDeniesReceived), "count"},
      {"lb.request_timeouts", item(core::WorkItem::kRequestTimeouts), "count"},
      {"ft.recoveries", item(core::WorkItem::kRecoveries), "count"},
      {"ft.redundant_cost_s", counts.redundant_cost, "virtual_s"},
      {"reports.sent", item(core::WorkItem::kReportsSent), "count"},
      {"reports.codes_sent", item(core::WorkItem::kReportCodesSent), "count"},
      {"reports.gossips_sent", item(core::WorkItem::kTableGossipsSent), "count"},
      {"vtime.bb_s", counts.work.seconds[0], "virtual_s"},
      {"vtime.contraction_s", counts.work.seconds[1], "virtual_s"},
      {"vtime.comm_s", counts.work.seconds[2], "virtual_s"},
      {"vtime.lb_s", counts.work.seconds[3], "virtual_s"},
      {"vtime.idle_s", counts.work.seconds[4], "virtual_s"},
      {"cluster.run_s", run_s / solves, "s"},
      {"cluster.engine_s", (run_s - eval_seconds - bound_of_seconds) / solves, "s"},
      {"seq.solve_s", spans.total_seconds("seq.solve") / solves, "s"},
      {"bench.check_s",
       (spans.total_seconds("check") + spans.total_seconds("check.reference") +
        spans.total_seconds("check.sharded")) /
           solves,
       "s"},
      {"trace.overhead_s", (run_s - spans.total_seconds("cluster.run.untraced")) / solves,
       "s"},
  };
  if (!options.span_file.empty() && !spans.write_json(options.span_file)) {
    report.errors.push_back("cannot write " + options.span_file);
  }
}

void append_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

RunReport run_benchmark(const RunOptions& options) {
  RunReport report;
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_timed(options, report);
  }
  report.correct = report.errors.empty();
  return report;
}

std::string to_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": ";
    append_number(out, m.value);
    out += ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
