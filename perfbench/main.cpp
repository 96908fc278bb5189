// haven_perfbench: one workload per process.
//
//   haven_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --expected perfbench/expected.tsv [--spans PATH]
//   haven_perfbench --record [--seed N]   # print the expected.tsv lines
//   haven_perfbench --list-metrics        # per-layer metrics as JSON entries
//
// Workloads: paper_default, paper_allpaths, paper_warm, serve_open. The last
// stdout line is the JSON result; earlier lines are the run's notes. A
// verdict or exact-count mismatch makes the result incorrect and the exit
// code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "haven_perfbench: " << why << "\n"
            << "usage: haven_perfbench --workload paper_default|paper_allpaths|paper_warm|"
               "serve_open --seed N --seconds S --trace 0|1 --expected PATH [--spans PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace haven::perfbench;
  Options opt;
  bool list_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--expected") {
      opt.expected = value();
    } else if (arg == "--spans") {
      opt.spans = value();
    } else if (arg == "--record") {
      opt.record = true;
    } else if (arg == "--list-metrics") {
      list_metrics = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  if (list_metrics) {
    const auto specs = per_layer_specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                  specs[i].name.c_str(), specs[i].unit.c_str(), specs[i].better.c_str(),
                  i + 1 == specs.size() ? "" : ",");
    }
    return 0;
  }
  if (opt.record) {
    if (opt.workload.empty() || opt.workload == "paper") record_paper();
    if (opt.workload.empty() || opt.workload == "serve_open") record_serve(opt);
    return 0;
  }

  const bool paper = opt.workload == "paper_default" || opt.workload == "paper_allpaths" ||
                     opt.workload == "paper_warm";
  if (!paper && opt.workload != "serve_open") usage("unknown workload");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  Expected expected;
  std::string error;
  if (opt.expected.empty()) usage("--expected is required");
  if (!expected.load(opt.expected, &error)) {
    std::cerr << "haven_perfbench: " << error << "\n";
    return 2;
  }

  Report report;
  if (paper) {
    run_paper(opt, expected, &report);
  } else {
    run_serve_open(opt, expected, &report);
  }
  report.print();
  return report.correct() ? 0 : 1;
}
