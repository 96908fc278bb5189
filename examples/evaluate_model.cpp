// Evaluate two models from the zoo on the RTLLM-style suite and print
// pass@k with the unbiased estimator — the same machinery the Table IV
// bench uses, at inspectable scale. Demonstrates the EvalEngine API:
// threaded fan-out, progress callback, and the per-run counter block.
//
// All eval knobs come from the shared flag grammar (eval::RequestOptions);
// positional arguments name the models to evaluate.
//
//   $ ./build/examples/evaluate_model [eval flags] [--stats] [model-name ...]
#include <cstring>
#include <iostream>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "eval/options.h"
#include "eval/passk.h"
#include "eval/report.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace haven;

  std::vector<std::string> leftover;
  const eval::RequestOptions options = eval::RequestOptions::parse(argc, argv, &leftover);

  bool stats = false;
  std::vector<std::string> models;
  for (const std::string& arg : leftover) {
    if (arg == "--stats") {
      stats = true;
    } else if (util::starts_with(arg, "--")) {
      std::cerr << "unknown flag '" << arg << "'\n"
                << eval::RequestOptions::flag_help() << "\n"
                << "plus: --stats; positional args name zoo models\n";
      return 2;
    } else {
      models.push_back(arg);
    }
  }
  if (models.empty()) models = {"GPT-4", "RTLCoder-DeepSeek", "OriGen-DeepSeek"};

  const eval::ChaosScope chaos(options);

  const eval::Suite suite = eval::build_rtllm();
  eval::EvalRequest request = options.request();
  if (!options.progress) {
    request.on_progress = [](const eval::EvalProgress& p) {
      if (p.completed == p.total || p.completed % 200 == 0) {
        std::cerr << "\r  " << p.completed << "/" << p.total << " candidates"
                  << (p.completed == p.total ? "\n" : "") << std::flush;
      }
    };
  }
  const eval::EvalEngine engine(request);

  const int k = eval::reported_k(request.n_samples);
  const std::string at_k = "@" + std::to_string(k);
  util::TablePrinter table({"Model", "func p@1", "func p" + at_k, "syntax p" + at_k, "best T"});
  for (const auto& name : models) {
    if (llm::find_model_card(name) == nullptr) {
      std::cerr << "unknown model '" << name << "'; available:\n";
      for (const auto& card : llm::model_zoo()) std::cerr << "  " << card.name << "\n";
      return 1;
    }
    const eval::SuiteResult result = engine.evaluate(llm::make_model(name), suite);
    table.add_row({name, eval::pct(result.pass_at(1)), eval::pct(result.pass_at(k)),
                   eval::pct(result.syntax_pass_at(k)),
                   util::format("%.1f", result.temperature)});
    std::cout << eval::summarize(result) << "\n";
    std::cout << "  " << eval::summarize(result.counters) << "\n";
    if (stats) std::cout << "  " << eval::summarize_cache(result.counters) << "\n";
    if (result.lint.enabled) {
      std::cout << "  " << eval::summarize(result.lint) << "\n";
      if (options.lint_json) std::cout << eval::lint_json(result) << "\n";
    }
  }
  std::cout << "\n" << suite.name << " (" << suite.tasks.size() << " tasks, n="
            << request.n_samples << "):\n" << table.to_string();
  if (stats && options.result_cache != nullptr) {
    const cache::CacheStats cs = options.result_cache->stats();
    std::cout << util::format(
        "cache totals: %lld hits (%lld from disk) / %lld misses, %lld insertions, "
        "%lld evictions, %lld disk writes, %lld disk errors, %lld entries / %.1f KiB "
        "resident\n",
        static_cast<long long>(cs.hits), static_cast<long long>(cs.disk_hits),
        static_cast<long long>(cs.misses), static_cast<long long>(cs.insertions),
        static_cast<long long>(cs.evictions), static_cast<long long>(cs.disk_writes),
        static_cast<long long>(cs.disk_errors), static_cast<long long>(cs.entries),
        static_cast<double>(cs.bytes) / 1024.0);
  }
  return 0;
}
