// RequestOptions: the ONE command-line grammar for evaluation front ends.
//
// Every binary that drives an EvalEngine — the table/figure benches, the
// evaluate_model example, and the haven::serve front end — parses its flags
// through RequestOptions::parse() and builds its EvalRequest through
// request(). Before this existed each binary hand-rolled a subset of the
// flags and drifted (some benches lacked --sim-backend / --cache-mb); now a
// flag added here is immediately understood everywhere.
//
// Grammar: value flags accept "--flag=V" and "--flag V"; boolean flags are
// bare. Arguments the grammar does not know go to `leftover` (positional
// operands like model names, or front-end-specific flags) when a sink is
// provided; without a sink an unknown "--flag" is a usage error (exit 2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "sim/backend.h"
#include "util/fault.h"

namespace haven::eval {

struct RequestOptions {
  // Protocol knobs.
  bool fast = false;  // --fast: n=5, single temperature (CI-friendly)
  int n_samples = 10;              // --n=N
  std::vector<double> temperatures = {0.2, 0.5, 0.8};  // --temps=a,b,c
  std::uint64_t seed = kDefaultEvalSeed;  // --seed=N
  bool use_sicot = false;          // --sicot (self-interpreting unless a CoT model is set)
  bool progress = false;           // --progress: coarse progress lines on stderr
  int threads = 0;                 // --threads=N (0 = hardware), --serial (= 1)
  // Fault-tolerance knobs (DESIGN.md §7).
  int deadline_ms = 0;                // --deadline-ms=N per-attempt wall clock
  int retries = 0;                    // --retries=N transient-fault retries
  bool fail_fast = false;             // --fail-fast
  std::uint64_t sim_step_budget = 0;  // --sim-budget=N
  // --sim-backend=interp|compiled (verdict-identical, DESIGN.md §10).
  sim::SimBackend sim_backend = sim::kDefaultSimBackend;
  double inject = 0.0;                          // --inject=P chaos probability
  std::uint64_t inject_seed = 0xC7A05'FA17ULL;  // --inject-seed=N
  // Static-analysis knobs (DESIGN.md §8).
  bool lint = false;         // --lint
  bool lint_triage = false;  // --lint-triage
  bool lint_json = false;    // --lint-json (implies --lint)
  // Formal equivalence fast-path knobs (DESIGN.md §12).
  bool prove = false;     // --prove
  bool no_prove = false;  // --no-prove: force proving off
  std::uint64_t prove_budget = std::uint64_t{1} << 20;  // --prove-budget=N (0 = unbounded)
  // Closed-loop self-repair knobs (DESIGN.md §13).
  int repair_rounds = 0;         // --repair-rounds=N (0 = repair off, the default)
  int repair_budget = 0;         // --repair-budget=N generations incl. round 0 (0 = rounds only)
  double repair_efficacy = 0.65; // --repair-efficacy=F in [0,1]
  // Result-cache knobs (DESIGN.md §9).
  bool cache = false;          // --cache: in-memory result cache
  bool no_cache = false;       // --no-cache: force caching off
  std::string cache_dir;       // --cache-dir=PATH (implies --cache)
  std::size_t cache_mb = 256;  // --cache-mb=N
  std::string bench_json;      // --bench-json=PATH: machine-readable record
  // Built by parse() when caching is enabled; shared by every engine the
  // binary constructs (one cache per process, one artifact dir on disk).
  // shared_ptr because RequestOptions is copied by value.
  std::shared_ptr<cache::ResultCache> result_cache;

  // Parse argv. Unknown arguments go to *leftover when provided (in argv
  // order); otherwise unknown "--flags" are a usage error. Malformed values
  // (a bad --sim-backend, a number that does not parse in full, a value out
  // of its range) always error out with exit code 2. "--help"
  // prints the full per-flag help (rendered from the same flag-spec table
  // that drives parsing, so the two cannot drift) and exits 0.
  static RequestOptions parse(int argc, char** argv,
                              std::vector<std::string>* leftover = nullptr);

  // One-line flag summary for usage messages (rendered from the flag table).
  static const char* flag_help();

  // The fully-formed request these options describe.
  EvalRequest request() const;

  // request() with SI-CoT enabled through `cot_model` (non-owning: the
  // caller keeps it alive for as long as the request/engine is used).
  EvalRequest sicot_request(const llm::SimLlm& cot_model) const;
};

// Coarse progress printer behind --progress: one stderr line per ~10% of
// candidates.
ProgressCallback progress_printer();

// Chaos-mode RAII behind --inject=P: arms a FaultInjector at the LLM,
// compile, and sim injection sites and installs it for the scope's lifetime.
// Prints the injection tally on teardown so chaos runs are auditable.
class ChaosScope {
 public:
  explicit ChaosScope(const RequestOptions& options);
  ~ChaosScope();
  ChaosScope(const ChaosScope&) = delete;
  ChaosScope& operator=(const ChaosScope&) = delete;

  bool armed() const { return armed_; }
  const util::FaultInjector& injector() const { return injector_; }

 private:
  util::FaultInjector injector_;
  bool armed_ = false;
};

}  // namespace haven::eval
