// Outside-in replay of EvalEngine::evaluate for the traced run.
//
// Every work unit of an evaluation is re-run through the same public
// functions, in the same order and number, that run_candidate in
// src/eval/engine.cpp uses for the request's knobs: [cot.refine] ->
// llm.generate -> cache.key/lookup -> verilog.compile_ok -> parses -> lint ->
// prove -> sim.run_diff_test -> cache.insert, and per repair round
// repair.distill -> llm.generate_with_hints -> the same stages. Each call is
// a span. The unit RNG is derived exactly as EvalEngine documents, so the
// replay reproduces the engine's per-task tallies, which the caller checks
// against the untraced run.
#pragma once

#include <cstdint>
#include <memory>

#include "bench.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace haven::perfbench {

struct ReplayJob {
  const llm::SimLlm* model = nullptr;
  const eval::Suite* suite = nullptr;
  // n, temperatures, seed, SI-CoT model, lint, prove, repair and cache knobs;
  // threads/pool are ignored (the Replayer owns its workers).
  eval::EvalRequest request;
};

struct ReplayOutcome {
  cache::Digest digest;  // serve::verdict_digest of the rebuilt SuiteResult
  Ledger ledger;
  std::int64_t generations = 0;       // llm.generate + llm.generate_with_hints calls
  std::int64_t distinct_sources = 0;  // distinct (task, source) pairs among them
  double sim_ns = 0.0;               // sim.run_diff_test time of simulated passes
  double wall_s = 0.0;                // replay wall clock, isolation timings excluded
};

class Replayer {
 public:
  // `tracer` may be null (no spans). threads <= 1 replays on the calling thread.
  Replayer(Tracer* tracer, std::size_t threads);

  // Replay one evaluation. With `isolate`, sim::elaborate and sim::compile are
  // then timed on the candidate and golden of every simulated pass, outside
  // any unit span and outside wall_s.
  ReplayOutcome run(const ReplayJob& job, bool isolate);

 private:
  Tracer* tracer_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::uint32_t next_unit_ = 1;
};

}  // namespace haven::perfbench
