// Shared helpers for the table/figure reproduction binaries.
//
// The flag grammar itself lives in eval::RequestOptions (src/eval/options.h)
// and is shared with evaluate_model and the haven::serve front end; this
// header only adds the bench-side conveniences (reporting, the BENCH_eval
// recorder, paper-comparison cells).
#pragma once

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/haven.h"
#include "eval/engine.h"
#include "eval/options.h"
#include "eval/passk.h"
#include "eval/report.h"
#include "eval/suites.h"
#include "util/strings.h"
#include "util/table.h"

namespace haven::bench {

using eval::progress_printer;

// Chaos-mode RAII behind --inject=P; see eval::ChaosScope.
using Chaos = eval::ChaosScope;

// The shared eval flag grammar plus bench-side reporting helpers. Benches
// take no positional arguments; unknown flags (e.g. google-benchmark's
// --benchmark_* family in micro_substrates) pass through untouched.
struct BenchArgs : eval::RequestOptions {
  static BenchArgs parse(int argc, char** argv) {
    std::vector<std::string> passthrough;
    BenchArgs args;
    static_cast<eval::RequestOptions&>(args) =
        eval::RequestOptions::parse(argc, argv, &passthrough);
    return args;
  }

  // Print the lint summary (stderr) and, under --lint-json, the findings
  // JSON (stdout) for one finished suite. No-op when lint is off.
  void report_lint(const eval::SuiteResult& result) const {
    if (!result.lint.enabled) return;
    std::cerr << "  " << eval::summarize(result.lint) << "\n";
    if (lint_json) std::cout << eval::lint_json(result) << "\n";
  }

  // Print the per-run cache block (stderr). No-op when caching is off.
  void report_cache(const eval::SuiteResult& result) const {
    if (result_cache == nullptr) return;
    std::cerr << "  " << eval::summarize_cache(result.counters) << "\n";
  }
};

// --bench-json recorder: accumulates finished suites and writes one
// BENCH_eval.json record. The `results` array is deterministic for a fixed
// seed (verdict-derived fields only, fixed float formatting) so a cold and a
// warm run can be compared byte-for-byte; the perf fields (wall_ms,
// candidates_per_sec) and the cache block live outside it and may differ.
// No-op when --bench-json was not given.
class BenchRecorder {
 public:
  BenchRecorder(std::string bench_name, const eval::RequestOptions& args)
      : bench_(std::move(bench_name)),
        path_(args.bench_json),
        start_(std::chrono::steady_clock::now()) {}

  void add(const eval::SuiteResult& result) {
    if (path_.empty()) return;
    const eval::EvalCounters& c = result.counters;
    candidates_ += c.candidates;
    cache_hits_ += c.cache_hits;
    cache_misses_ += c.cache_misses;
    cache_evictions_ += c.cache_evictions;
    cache_bytes_ = c.cache_bytes;  // resident bytes after the latest run
    threads_used_ = c.threads_used;
    if (!results_.empty()) results_ += ",";
    const int k = result.reported_k();
    results_ += util::format(
        "{\"suite\":\"%s\",\"model\":\"%s\",\"temperature\":%.2f,"
        "\"pass1\":%.6f,\"pass%d\":%.6f,\"syntax%d\":%.6f,\"per_task\":[",
        result.suite_name.c_str(), result.model_name.c_str(), result.temperature,
        result.pass_at(1), k, result.pass_at(k), k, result.syntax_pass_at(k));
    bool first = true;
    for (const eval::TaskResult& t : result.per_task) {
      if (!first) results_ += ",";
      first = false;
      results_ += util::format("{\"id\":\"%s\",\"n\":%d,\"syntax\":%d,\"func\":%d}",
                               t.task_id.c_str(), t.n, t.syntax_pass, t.func_pass);
    }
    results_ += "]}";
  }

  // Write the record; returns false (with a stderr note) if the file could
  // not be opened. Safe to call once after all add() calls.
  bool write() const {
    if (path_.empty()) return true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    const std::int64_t lookups = cache_hits_ + cache_misses_;
    const double hit_rate =
        lookups == 0 ? 0.0 : static_cast<double>(cache_hits_) / static_cast<double>(lookups);
    std::string record = util::format(
        "{\"bench\":\"%s\",\"schema\":1,\"threads\":%d,\"wall_ms\":%.3f,"
        "\"candidates\":%lld,\"candidates_per_sec\":%.1f,"
        "\"cache\":{\"hits\":%lld,\"misses\":%lld,\"evictions\":%lld,"
        "\"bytes\":%lld,\"hit_rate\":%.4f},\"results\":[",
        bench_.c_str(), threads_used_, wall_ms, static_cast<long long>(candidates_),
        wall_ms <= 0.0 ? 0.0 : 1000.0 * static_cast<double>(candidates_) / wall_ms,
        static_cast<long long>(cache_hits_), static_cast<long long>(cache_misses_),
        static_cast<long long>(cache_evictions_), static_cast<long long>(cache_bytes_),
        hit_rate);
    record += results_;
    record += "]}\n";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "  [bench-json] cannot open " << path_ << " for writing\n";
      return false;
    }
    out << record;
    std::cerr << "  [bench-json] wrote " << path_ << " (" << record.size() << " bytes)\n";
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  std::string results_;
  std::int64_t candidates_ = 0;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  std::int64_t cache_evictions_ = 0;
  std::int64_t cache_bytes_ = 0;
  int threads_used_ = 0;
};

// "measured (paper X)" cell, or "n/a" passthrough.
inline std::string vs_paper(const std::string& measured, const char* paper) {
  if (std::strcmp(paper, "n/a") == 0) return measured + " (paper n/a)";
  return measured + " (paper " + paper + ")";
}

// Build the three HaVen models via the full pipeline.
inline HavenPipeline build_haven(const std::string& base) {
  HavenConfig config;
  config.base_model = base;
  return HavenPipeline::build(config);
}

}  // namespace haven::bench
