// perfbench_run: one run of the whole-solve benchmark.
//
//   perfbench_run --workload table1|storm|tsp-sweep --seed N --seconds S
//                 --trace 0|1 [--short] [--span-file PATH]
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// with the keys correct, attempted, failed and metrics. Exits 1 when a check
// fails and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\n"
               "usage: perfbench_run --workload table1|storm|tsp-sweep --seed N "
               "--seconds S --trace 0|1 [--short] [--span-file PATH]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      options.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      if (!perfbench::parse_workload(value, &options.workload)) {
        return usage("unknown workload");
      }
      have_workload = true;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_number(value, &number) || number < 0) return usage("bad --seconds");
      options.seconds = number;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--span-file") {
      options.span_file = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  const perfbench::RunReport report = perfbench::run_benchmark(options);
  for (const std::string& reason : report.failure_reasons) {
    std::fprintf(stderr, "failed operation: %s\n", reason.c_str());
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", perfbench::to_json(report).c_str());
  return report.correct ? 0 : 1;
}
