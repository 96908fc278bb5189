// RequestOptions: the ONE knob grammar for evaluation front ends.
//
// Every binary that drives an EvalEngine — the table/figure benches, the
// evaluate_model example, and the haven::serve front end — parses its flags
// through RequestOptions::parse() and builds its EvalRequest through
// request(). The serve line protocol reads its request knobs through
// apply_knob(), from the same flag table: one row per knob states its
// command-line spelling, its serve key and the values it accepts, so the
// two surfaces cannot drift apart.
//
// Grammar: value flags accept "--flag=V" and "--flag V"; boolean flags are
// bare (as serve knobs they take 0|1). Arguments the grammar does not know
// go to `leftover` (positional operands like model names, or
// front-end-specific flags) when a sink is provided; without a sink an
// unknown "--flag" is a usage error (exit 2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "util/fault.h"

namespace haven::eval {

struct RequestOptions {
  // What the flag table's request rows write into; request() returns it
  // with the cache and the progress printer attached.
  EvalRequest req;
  // Front-end options that are not request fields.
  bool fast = false;      // --fast: n=5, single temperature (CI-friendly)
  bool progress = false;  // --progress: coarse progress lines on stderr
  bool lint_json = false; // --lint-json (implies --lint)
  double inject = 0.0;                          // --inject=P chaos probability
  std::uint64_t inject_seed = 0xC7A05'FA17ULL;  // --inject-seed=N
  // Result-cache knobs (DESIGN.md §9).
  bool cache = false;          // --cache: in-memory result cache
  std::string cache_dir;       // --cache-dir=PATH (implies --cache)
  std::size_t cache_mb = 256;  // --cache-mb=N
  std::string bench_json;      // --bench-json=PATH: machine-readable record
  // Built by parse() when caching is enabled; shared by every engine the
  // binary constructs (one cache per process, one artifact dir on disk).
  // shared_ptr because RequestOptions is copied by value.
  std::shared_ptr<cache::ResultCache> result_cache;

  // Parse argv. Unknown arguments go to *leftover when provided (in argv
  // order); otherwise unknown "--flags" are a usage error. A malformed value
  // (a number that does not parse in full, a value out of its range) always
  // errors out with "<flag> wants <what>, not '<v>'" and exit code 2.
  // "--help" prints the full per-flag help (rendered from the same flag
  // table that drives parsing, so the two cannot drift) and exits 0.
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

// Apply one serve line-protocol knob `key=value` to `request`, through the
// flag table row whose serve key is `key`: the same ranges as the flag.
// Returns false with *error = "unknown knob '<key>'" or
// "knob '<key>' wants <what>, got '<value>'"; `request` is then unchanged.
bool apply_knob(EvalRequest& request, const std::string& key, const std::string& value,
                std::string* error);

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
