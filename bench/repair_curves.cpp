// Self-repair curve bench: pass@1-vs-rounds for every model-zoo card.
//
// For each card the same evaluation runs with --repair-rounds swept from 0
// to R (same seed, same suite). Round sequences are prefix-stable across
// max_rounds settings (DESIGN.md §13), so each card's curve is monotonically
// non-decreasing BY CONSTRUCTION — a dip is an engine bug, which is exactly
// what --check gates on, alongside the loop actually rescuing at least one
// candidate somewhere in the sweep.
//
// Usage:
//   repair_curves [eval flags] [--rounds=R] [--tasks=N] [--check]
//
//   eval flags        the shared grammar (--n, --temps, --seed, ...);
//                     --repair-rounds is overridden by the sweep
//   --rounds=R        sweep repair rounds 0..R (default 3)
//   --tasks=N         truncate the suite to its first N tasks (default 8)
//   --check           exit 1 unless every curve is monotone AND
//                     repaired_pass > 0 over the whole sweep (CI gate)
//   --bench-json=PATH write a BENCH_repair.json record (shared flag)
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/options.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "util/strings.h"

namespace {

using namespace haven;

struct CurvePoint {
  int rounds = 0;
  double pass1 = 0.0;
  std::int64_t repair_rounds = 0;
  std::int64_t repaired = 0;
  std::int64_t exhausted = 0;
};

struct Curve {
  std::string model;
  std::vector<CurvePoint> points;
  bool monotone = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> leftover;
  eval::RequestOptions options = eval::RequestOptions::parse(argc, argv, &leftover);
  int max_rounds = 3;
  std::size_t max_tasks = 8;
  bool check = false;
  // A malformed value is a usage error: a silent 0 would skip the gate.
  auto bad_value = [](const char* flag, const char* want, const std::string& v) {
    std::cerr << flag << " wants " << want << ", not '" << v << "'\n";
    return 2;
  };
  for (const std::string& arg : leftover) {
    if (arg.rfind("--rounds=", 0) == 0) {
      long long n = 0;
      if (!util::parse_i64(arg.substr(9), &n) || n < 0 || n > INT_MAX) {
        return bad_value("--rounds", "an integer >= 0", arg.substr(9));
      }
      max_rounds = static_cast<int>(n);
    } else if (arg.rfind("--tasks=", 0) == 0) {
      std::uint64_t n = 0;
      if (!util::parse_u64(arg.substr(8), &n)) {
        return bad_value("--tasks", "an unsigned integer", arg.substr(8));
      }
      max_tasks = static_cast<std::size_t>(n);
    } else if (arg == "--check") {
      check = true;
    } else {
      std::cerr << "unknown flag '" << arg << "'\n"
                << eval::RequestOptions::flag_help() << "\n"
                << "repair_curves flags: --rounds=R --tasks=N --check\n";
      return 2;
    }
  }

  // Bench-friendly protocol unless the caller overrode it: few samples, one
  // hot temperature (failures are what the repair loop feeds on).
  if (!options.fast) {
    options.req.n_samples = 4;
    options.req.temperatures = {0.8};
  }

  eval::Suite suite = eval::build_symbolic44();
  if (max_tasks > 0 && suite.tasks.size() > max_tasks) suite.tasks.resize(max_tasks);

  std::printf("repair_curves: %zu tasks x n=%d, rounds 0..%d, %zu models\n",
              suite.tasks.size(), options.req.n_samples, max_rounds,
              llm::model_zoo().size());
  std::printf("%-22s", "model");
  for (int r = 0; r <= max_rounds; ++r) std::printf("  r=%d pass1", r);
  std::printf("  repaired\n");

  std::vector<Curve> curves;
  std::int64_t total_repaired = 0;
  bool all_monotone = true;
  for (const llm::ModelCard& card : llm::model_zoo()) {
    const llm::SimLlm model = llm::make_model(card.name);
    Curve curve;
    curve.model = card.name;
    std::int64_t card_repaired = 0;
    for (int rounds = 0; rounds <= max_rounds; ++rounds) {
      eval::EvalRequest request = options.request();
      request.repair.max_rounds = rounds;
      const eval::SuiteResult result = eval::EvalEngine(request).evaluate(model, suite);
      CurvePoint point;
      point.rounds = rounds;
      point.pass1 = result.pass_at(1);
      point.repair_rounds = result.counters.repair_rounds;
      point.repaired = result.counters.repaired_pass;
      point.exhausted = result.counters.repair_exhausted;
      if (!curve.points.empty() && point.pass1 + 1e-9 < curve.points.back().pass1) {
        curve.monotone = false;
        all_monotone = false;
      }
      card_repaired += point.repaired;
      curve.points.push_back(point);
    }
    total_repaired += card_repaired;
    std::printf("%-22s", card.name.c_str());
    for (const CurvePoint& p : curve.points) std::printf("  %9.4f", p.pass1);
    std::printf("  %8lld%s\n", static_cast<long long>(card_repaired),
                curve.monotone ? "" : "  NON-MONOTONE");
    curves.push_back(std::move(curve));
  }

  if (!options.bench_json.empty()) {
    std::string record = util::format(
        "{\"bench\":\"repair_curves\",\"schema\":1,\"n\":%d,\"tasks\":%zu,"
        "\"max_rounds\":%d,\"seed\":%llu,\"models\":[",
        options.req.n_samples, suite.tasks.size(), max_rounds,
        static_cast<unsigned long long>(options.req.seed));
    bool first_model = true;
    for (const Curve& curve : curves) {
      if (!first_model) record += ",";
      first_model = false;
      record += util::format("{\"name\":\"%s\",\"monotone\":%s,\"curve\":[",
                             curve.model.c_str(), curve.monotone ? "true" : "false");
      bool first_point = true;
      for (const CurvePoint& p : curve.points) {
        if (!first_point) record += ",";
        first_point = false;
        record += util::format(
            "{\"rounds\":%d,\"pass1\":%.6f,\"repair_rounds\":%lld,"
            "\"repaired\":%lld,\"exhausted\":%lld}",
            p.rounds, p.pass1, static_cast<long long>(p.repair_rounds),
            static_cast<long long>(p.repaired), static_cast<long long>(p.exhausted));
      }
      record += "]}";
    }
    record += "]}\n";
    std::ofstream out(options.bench_json);
    if (!out) {
      std::cerr << "cannot write " << options.bench_json << "\n";
      return 1;
    }
    out << record;
    std::cerr << "wrote " << options.bench_json << "\n";
  }

  if (check) {
    if (!all_monotone) {
      std::cerr << "--check failed: at least one pass@1 curve dipped as rounds grew\n";
      return 1;
    }
    if (max_rounds > 0 && total_repaired == 0) {
      std::cerr << "--check failed: the repair loop rescued no candidate anywhere\n";
      return 1;
    }
  }
  return 0;
}
