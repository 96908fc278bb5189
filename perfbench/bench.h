// Shared pieces of the repository benchmark: command-line options, the
// result report printed as the last stdout line, the exact-count ledger, the
// recorded expectations, and the set-up every workload shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "core/haven.h"
#include "eval/engine.h"
#include "eval/task.h"
#include "llm/simllm.h"

namespace haven::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string expected;  // recorded digests and counts (perfbench/expected.tsv)
  std::string spans;     // traced runs write every span here ("" = keep them in memory only)
  bool record = false;   // print the expected table instead of measuring
};

// The deterministic counts of a run. Every field is a pure function of the
// inputs, so a run must reproduce the recorded values exactly.
struct Ledger {
  std::int64_t candidates = 0;
  std::int64_t unit_faults = 0;
  std::int64_t compile_failures = 0;
  std::int64_t simulated = 0;
  std::int64_t sim_vectors = 0;
  std::int64_t lint_triaged = 0;
  std::int64_t prove_decided = 0;
  std::int64_t prove_fallback = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t repair_rounds = 0;
  std::int64_t repaired = 0;

  void add(const eval::EvalCounters& c);
  void add(const Ledger& other);
  bool operator==(const Ledger&) const = default;
  std::string to_string() const;  // expected.tsv columns
  std::string describe() const;   // "candidates=N verilog.compile_failures=N ..."
  static bool parse(const std::vector<std::string>& fields, std::size_t first, Ledger* out);
  static constexpr std::size_t kFields = 12;
};

// Recorded expectations: per block of the paper workloads, the folded verdict
// digest, the ledger and the distinct-source count; per (seed, seconds), the
// serve_open verdict fold.
struct Expected {
  struct Block {
    cache::Digest fold;
    Ledger ledger;
    std::int64_t distinct_sources = 0;
  };
  std::map<std::pair<std::string, int>, Block> blocks;  // (config, eighth)
  std::map<std::pair<std::uint64_t, int>, cache::Digest> serve_folds;

  bool load(const std::string& path, std::string* error);
  const Block* block(const std::string& config, int eighth) const;
};

// The result line plus the verification log.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Record a verification failure: the run is then not correct.
  void fail(const std::string& why);
  void note(const std::string& line);  // human-readable stdout line before the result

  bool correct() const { return errors_.empty(); }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Print notes, errors (stderr) and the JSON result line (stdout, last).
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
};

// num / den, or 0 when nothing was attempted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> samples, double q);
// Process high-water resident set size, MiB.
double peak_rss_mb();
// Inverse of cache::to_hex.
bool parse_hex(const std::string& s, cache::Digest* out);

// The paper's model rows and suites. `rows` holds the 19 model-zoo cards
// (llm::make_model, so each keeps its draw family) followed by the three
// HaVen models, which run with SI-CoT through their CoT model.
struct Row {
  const llm::SimLlm* model = nullptr;
  const llm::SimLlm* cot = nullptr;  // null = no SI-CoT
};

struct Setup {
  std::vector<eval::Suite> suites;  // VerilogEval machine, human, v2; RTLLM
  std::vector<llm::SimLlm> zoo;
  std::vector<HavenPipeline> haven;
  std::vector<Row> rows;
  double build_s = 0.0;  // the three HavenPipeline::build calls

  // Builds suites and zoo models, plus the HaVen models when `with_haven`.
  static Setup make(bool with_haven);
};

}  // namespace haven::perfbench
