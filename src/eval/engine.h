// EvalEngine: the parallel evaluation engine behind every table and figure
// reproduction. It shards the (temperature, task, sample) work units of a
// suite evaluation across a haven::util::ThreadPool and reduces per-task
// tallies deterministically.
//
// Determinism contract:
//  * Every sample derives an independent RNG from
//    (seed, model name, task id, sample index, temperature) — exactly the
//    derivation the original serial runner used — so no work unit observes
//    another unit's draws.
//  * Results are merged in work-unit *index* order (temperature-major, then
//    task, then sample), never completion order. A run with threads=8 is
//    therefore bit-identical to threads=1 for the same seed: same per-task
//    pass counts, same best temperature, same deterministic counters.
//  * Progress callbacks fire on the calling thread, in index order.
//
// Fault tolerance (see DESIGN.md §7 "Failure semantics"):
//  * Per-unit isolation: an exception thrown anywhere inside a work unit is
//    caught in the worker, recorded as a structured UnitFault on the
//    SuiteResult, and the reduction continues. A faulted unit counts toward
//    `candidates` but contributes nothing to pass tallies (scored as a
//    total failure). A fault never aborts the run.
//  * Budgets & deadlines: `sim_step_budget` bounds each simulation's work;
//    `deadline_ms` bounds each attempt's wall clock, checked between
//    pipeline stages and between simulated cycles.
//  * Retry: faults the EvalRequest::retry policy classifies transient
//    (injected faults by default) are retried with deterministic backoff.
//    Attempt k of a unit derives its RNG from (seed, unit, k) — attempt 0
//    is bit-identical to the no-retry derivation, so enabling retries
//    changes nothing on fault-free runs.
//
// Result caching (see DESIGN.md §9):
//  * EvalRequest::cache memoizes the compile→lint→simulate stages per
//    candidate, keyed on canonicalized content + task identity + eval knobs
//    + the stimulus stream. A hit replays the stored verdict (including lint
//    findings) bit-identically; verdicts, pass@k, and the lint block of a
//    warm run equal the cold run's exactly, at any thread count. Hits land
//    in EvalCounters::cache_hits, one bucket of the accounting identity
//    (see counters_consistent below).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "eval/task.h"
#include "lint/lint.h"
#include "llm/simllm.h"
#include "repair/repair.h"
#include "symbolic/modality.h"
#include "util/retry.h"

namespace haven::util {
class ThreadPool;
}

namespace haven::eval {

// Default run seed ("HAVEN").
inline constexpr std::uint64_t kDefaultEvalSeed = 0x484156454eULL;

struct TaskResult {
  std::string task_id;
  symbolic::Modality modality = symbolic::Modality::kNone;
  int n = 0;
  int syntax_pass = 0;  // candidates that compile
  int func_pass = 0;    // candidates functionally equivalent to golden
};

// Why a work unit terminally failed. Classification drives retry policy and
// the counter breakdown; see DESIGN.md §7 for the taxonomy.
enum class FaultKind {
  kException = 0,  // unclassified exception escaped the unit
  kInjected,       // util::InjectedFault from the chaos harness
  kDeadline,       // per-unit wall-clock deadline exceeded
  kSimBudget,      // sim::BudgetExceeded (runaway simulation)
};
const char* fault_kind_name(FaultKind kind);

// Structured record of one terminally faulted work unit (retries, if any,
// were already exhausted). Recorded on SuiteResult::faults in work-unit
// index order — deterministic for a fixed seed at any thread count.
struct UnitFault {
  FaultKind kind = FaultKind::kException;
  std::string task_id;
  int sample = 0;           // sample index within the task
  double temperature = 0.0;
  int attempts = 1;         // attempts consumed (1 = no retries)
  std::string what;         // exception message
};

// Per-run observability block. The integer counters aggregate over the whole
// run (all temperatures) and are deterministic for a fixed seed; the timing
// fields are measured and vary run to run. Stage times are summed across
// workers (CPU-style accounting): with N threads busy they can exceed
// wall_seconds by up to a factor of N. A "pass" is one run of the candidate
// pipeline: round 0 of a work unit or one of its repair rounds. A pass that
// replays a verdict from its task's memo (DESIGN.md §5) counts exactly as
// the pass that computed it did. How the counters balance is stated once,
// at counters_consistent() below.
struct EvalCounters {
  std::int64_t candidates = 0;         // work units (= temps*tasks*n)
  std::int64_t compile_failures = 0;   // passes rejected by the compiler
  std::int64_t sim_mismatches = 0;     // compiled passes that failed (any stage)
  std::int64_t sicot_refinements = 0;  // prompts SI-CoT actually transformed
  // Fault tolerance (DESIGN.md §7).
  std::int64_t unit_faults = 0;        // terminally faulted units (retries exhausted)
  std::int64_t deadline_exceeded = 0;  // unit faults that were deadline blows
  std::int64_t cycles_aborted = 0;     // unit faults that were sim-budget blows
  std::int64_t retries = 0;            // retry attempts performed (beyond first tries)
  // Lint and triage (DESIGN.md §8).
  std::int64_t lint_findings = 0;      // findings across all linted candidates
  std::int64_t lint_triaged = 0;       // passes failed by a lint proof, sim skipped
  std::int64_t simulated = 0;          // passes that ran the diff testbench
  std::int64_t sim_vectors = 0;        // vectors/cycles actually compared
  // Formal equivalence fast-path (DESIGN.md §12). A proven pass is decided
  // with zero simulation; an unsupported or budget-blown proof falls back to
  // the testbench and counts under both prove_fallback and simulated.
  std::int64_t proven_equiv = 0;    // passes proven equivalent (func pass)
  std::int64_t proven_inequiv = 0;  // passes proven inequivalent (func fail)
  std::int64_t prove_fallback = 0;  // prove attempts that deferred to simulation
  // Self-repair (DESIGN.md §13). Each repair round is one more pass.
  std::int64_t repair_rounds = 0;     // repair passes run (0 when repair off)
  std::int64_t repaired_pass = 0;     // candidates that failed round 0, then passed
  std::int64_t repair_exhausted = 0;  // candidates still failing after >= 1 round
  // Result cache (DESIGN.md §9). hits/misses are deterministic for a fixed
  // seed at any thread count; evictions and bytes depend on insertion
  // interleaving once the capacity binds, and on what earlier runs left in a
  // shared cache.
  std::int64_t cache_hits = 0;       // passes replayed from the cache
  std::int64_t cache_misses = 0;     // passes that ran the pipeline (cache on)
  std::int64_t cache_evictions = 0;  // LRU evictions during this run
  std::int64_t cache_bytes = 0;      // resident payload bytes after the run
  // Stage times. Each checked candidate is parsed once, under compile; the
  // other stages include no parsing. Its one elaboration and compile
  // (sim::compile_module) is billed to prove on a prove-eligible task and to
  // sim otherwise. A task's one golden parse and build are billed to no
  // stage, its one prompt preparation to the preparing unit's generate, and
  // a pass replayed from the task's verdict memo to no stage past generate.
  double generate_seconds = 0.0;  // SI-CoT refine + candidate generation
  double compile_seconds = 0.0;   // parse + semantic analysis of each candidate
  double lint_seconds = 0.0;      // lint rules on the parsed candidate (0 when lint is off)
  double prove_seconds = 0.0;     // candidate build + equivalence proof (0 when prove is off)
  double sim_seconds = 0.0;       // diff testbench (+ candidate build when not proved first)
  double wall_seconds = 0.0;      // whole-run wall clock
  double cpu_seconds = 0.0;       // whole-run process CPU time
  int threads_used = 1;
};

// THE accounting identity, stated in full only here and in DESIGN.md §7;
// everything else points to these. Every pass lands in exactly one bucket:
//   candidates + repair_rounds == unit_faults + compile_failures
//                 + lint_triaged + proven_equiv + proven_inequiv
//                 + simulated + cache_hits
// A faulted unit counts under unit_faults alone: its passes, repair rounds
// included, are discarded. Corollaries:
//   deadline_exceeded + cycles_aborted <= unit_faults
//   prove_fallback <= simulated
//   cache_hits + cache_misses == candidates + repair_rounds - unit_faults
//       (with a cache attached; with none, both are 0)
//   repaired_pass + repair_exhausted <= repair_rounds
// All of it holds at any thread count, injection rate, lint mode, prove
// mode, repair policy and cache state. evaluate()'s reducer builds the
// identity by filing each pass once and asserts this check in debug builds;
// tests call it instead of re-deriving the sum.
bool counters_consistent(const EvalCounters& c);

// Diagnosable form of the same check: "" when every term holds, otherwise a
// semicolon-separated list naming each violated identity/corollary with the
// expected and actual values — so an accounting regression introduced by a
// new pipeline stage is readable straight off the test log instead of a
// bare boolean.
std::string counters_inconsistency(const EvalCounters& c);

// Run-wide lint aggregation (EvalRequest::lint / lint_triage). All tallies
// cover non-faulted candidates across every temperature and are
// deterministic for a fixed seed at any thread count.
struct LintSummary {
  bool enabled = false;
  std::int64_t findings = 0;            // total findings
  std::int64_t flagged_candidates = 0;  // candidates with >= 1 predictive finding
  // Candidates with >= 1 warning-or-error finding attributed to each
  // hallucination axis (a candidate counts once per axis): the run's static
  // hallucination-class histogram.
  std::array<std::int64_t, llm::kNumHalluAxes> axis_candidates{};
  std::map<std::string, std::int64_t> rule_counts;  // findings per rule id
  // Lint-vs-simulation confusion over compiled, non-faulted candidates:
  // "positive" = lint predicted functional failure; ground truth = the diff
  // testbench verdict (triaged candidates count as true positives — their
  // failure is proven, see DESIGN.md §8; proven-inequivalent candidates from
  // the haven::prove fast-path count the same way).
  std::int64_t true_positives = 0;
  std::int64_t false_positives = 0;
  std::int64_t false_negatives = 0;
  std::int64_t true_negatives = 0;

  double precision() const;  // 1.0 when lint never fired
  double recall() const;     // 1.0 when nothing failed
  int dominant_axis() const;  // argmax of axis_candidates, -1 when all zero
};

// Findings of one candidate, recorded on SuiteResult::lint_findings in
// work-unit index order (candidates with no findings are omitted).
struct CandidateFindings {
  std::string task_id;
  int sample = 0;
  double temperature = 0.0;
  std::vector<lint::Finding> findings;
};

struct SuiteResult {
  std::string suite_name;
  std::string model_name;
  double temperature = 0.2;  // the reported (best) temperature
  std::vector<TaskResult> per_task;
  EvalCounters counters;  // aggregated over the full run (all temperatures)
  // Terminally faulted units across ALL temperatures, in work-unit index
  // order (empty on a healthy run).
  std::vector<UnitFault> faults;
  // Lint aggregation + per-candidate findings (empty unless lint enabled).
  LintSummary lint;
  std::vector<CandidateFindings> lint_findings;

  double pass_at(int k) const;         // functional
  double syntax_pass_at(int k) const;  // syntax
  // eval::reported_k for the smallest per-task sample count: the k of the
  // pass@5 figure this result can report.
  int reported_k() const;
  // Per-modality pass counts (Table V rows): {passed, total} at pass@1
  // semantics, counting a task as passed if >= 1 of n samples passed.
  std::pair<int, int> modality_pass(symbolic::Modality m) const;
};

// Progress snapshot handed to EvalRequest::on_progress after each work unit
// is folded into the reduction. `task_id` views into the suite being
// evaluated and is valid only for the duration of the callback.
struct EvalProgress {
  std::size_t completed = 0;  // units reduced so far (1-based)
  std::size_t total = 0;      // temps * tasks * n_samples
  double temperature = 0.0;
  std::string_view task_id;
  int sample = 0;  // sample index within the task, [0, n_samples)
};
using ProgressCallback = std::function<void(const EvalProgress&)>;

// Everything one evaluation run needs besides the model and the suite.
// Fields are plain public data (aggregate-style assignment keeps working);
// the chainable with_*() setters below are the equivalent builder surface,
// bit-identical to field assignment, so a request can be composed inline
// and embedded verbatim (e.g. in serve::EvalJob):
//
//   engine = EvalEngine(EvalRequest{}
//                           .with_samples(5)
//                           .with_temperature(0.2)
//                           .with_threads(8)
//                           .with_cache(&cache)
//                           .with_lint_triage());
class EvalRequest {
 public:
  int n_samples = 10;
  std::vector<double> temperatures = {0.2, 0.5, 0.8};
  bool use_sicot = false;
  std::uint64_t seed = kDefaultEvalSeed;
  // Worker threads for the sample fan-out: 0 = one per hardware thread,
  // 1 = run serially on the calling thread (no pool). Ignored when an
  // external `pool` is set.
  int threads = 0;
  // External worker pool for the fan-out. NON-OWNING: the caller keeps the
  // pool alive for as long as this request (and any engine built from it) is
  // used; null = the engine spins up its own pool per evaluate() call.
  // Sharing one pool across evaluations (the haven::serve daemon's mode)
  // changes wall clock only, never results.
  util::ThreadPool* pool = nullptr;
  // Invoked on the calling thread after each unit is reduced, in index
  // order; leave empty for no progress reporting. An exception it throws
  // propagates out of evaluate() once every submitted unit has finished.
  ProgressCallback on_progress;

  // --- static analysis ------------------------------------------------------
  // Run haven::lint over every candidate (compiled candidates get the full
  // reference-aware rule set against the task's golden module; compile
  // failures get attributed frontend findings). Findings land on
  // SuiteResult::lint / lint_findings. Lint draws nothing from the unit RNG,
  // so enabling it never changes verdicts.
  bool lint = false;
  // Additionally skip the differential simulation for candidates with a
  // PROVEN failure finding (see lint::Finding::proven): the candidate is
  // scored func_fail without simulating. Sound — proven findings imply the
  // diff test fails — so pass/fail verdicts are unchanged while simulated
  // cycles drop. Implies `lint`.
  bool lint_triage = false;

  // --- formal equivalence fast-path ----------------------------------------
  // Decide combinational candidates by combinational equivalence checking
  // (haven::prove, DESIGN.md §12) instead of simulation wherever that is
  // sound: the task is combinational, its exhaustive input sweep fits, the
  // golden module lowers cleanly, and no per-unit step budget is in force.
  // A proven verdict is bit-identical to the simulated one by construction;
  // anything the prover cannot mirror exactly falls back to the testbench.
  // Enabling prove therefore never changes SuiteResult verdicts, pass@k, or
  // the lint block — only the counter breakdown (proven_equiv /
  // proven_inequiv / prove_fallback) and wall time. Ordering with lint_triage:
  // a candidate with a proven lint failure is triaged first and never reaches
  // the prover (it counts once, under lint_triaged).
  bool prove = false;
  // Hard node budget shared by one proof attempt's AIG and BDD
  // (= prove::kDefaultNodeBudget; 0 = unbounded). Exhausting it defers the
  // candidate to simulation, counted under prove_fallback.
  std::uint64_t prove_budget = std::uint64_t{1} << 20;

  // --- closed-loop self-repair ---------------------------------------------
  // Bounded per-candidate repair loop (haven::repair, DESIGN.md §13): when a
  // candidate's verdict fails, its evidence (lint findings, sim mismatch
  // counterexample, prove witness, compile diagnostics) is distilled into a
  // RepairHint and the candidate is regenerated with the hinted
  // HallucinationProfile axes damped, up to repair.max_rounds times. Round 0
  // is bit-identical to the single-shot run (base RNG derivation untouched);
  // each repair round forks a fresh deterministic RNG from
  // (seed, unit, attempt, round), so pass@k is monotonically non-decreasing
  // in max_rounds and results stay thread-count invariant. The default
  // (max_rounds = 0) leaves every verdict, counter, and cache digest
  // bit-identical to the pre-repair engine.
  repair::RepairPolicy repair;

  // --- result cache ---------------------------------------------------------
  // Content-addressed memoization of the compile→lint→simulate stages (see
  // DESIGN.md §9). NON-OWNING: the caller keeps the cache alive for as long
  // as this request (and any EvalEngine built from it) is used; null = off.
  // A hit replays the stored verdict bit-identically — enabling the cache
  // never changes SuiteResult verdicts, pass@k, or the lint block, only the
  // counter breakdown (hits land in EvalCounters::cache_hits instead of the
  // pipeline buckets) and wall time. The cache may be shared across engines,
  // models, and suites: keys bind task identity, candidate content, knobs,
  // and the stimulus stream, so unrelated runs cannot collide.
  cache::ResultCache* cache = nullptr;

  // --- fault tolerance ------------------------------------------------------
  // Per-attempt wall-clock deadline in milliseconds (0 = none), enforced
  // between pipeline stages and between simulated cycles.
  int deadline_ms = 0;
  // Per-simulation step budget forwarded to the differential testbench
  // (0 = unlimited; see StimulusSpec::step_budget).
  std::uint64_t sim_step_budget = 0;
  // Selects the test oracle: kInterpreter runs the differential testbench on
  // the AST interpreter instead of the compiled bytecode. No front end sets
  // it; the backend differential tests do. Backends are verdict-identical
  // (DESIGN.md §10), so it never changes SuiteResult verdicts, counters, or
  // cache keys, only wall time.
  sim::SimBackend sim_backend = sim::kDefaultSimBackend;
  // Retry policy for transient faults (injected faults by default). With
  // retry.max_retries = 0 nothing is ever retried.
  util::RetryPolicy retry;

  // --- chainable builder surface -------------------------------------------
  // Each setter assigns the field of the same meaning and returns *this, so
  // requests compose inline. Builder-built and field-assigned requests are
  // bit-identical (regression-tested in serve_test).
  EvalRequest& with_samples(int n) { n_samples = n; return *this; }
  EvalRequest& with_temperatures(std::vector<double> temps) {
    temperatures = std::move(temps);
    return *this;
  }
  EvalRequest& with_temperature(double t) { temperatures = {t}; return *this; }
  EvalRequest& with_sicot(bool on = true) { use_sicot = on; return *this; }
  EvalRequest& with_seed(std::uint64_t s) { seed = s; return *this; }
  EvalRequest& with_threads(int n) { threads = n; return *this; }
  EvalRequest& with_pool(util::ThreadPool* p) { pool = p; return *this; }
  EvalRequest& with_lint(bool on = true) { lint = on; return *this; }
  EvalRequest& with_lint_triage(bool on = true) { lint_triage = on; return *this; }
  EvalRequest& with_prove(bool on = true) { prove = on; return *this; }
  EvalRequest& with_prove_budget(std::uint64_t nodes) {
    prove_budget = nodes;
    return *this;
  }
  EvalRequest& with_repair(const repair::RepairPolicy& policy) {
    repair = policy;
    return *this;
  }
  EvalRequest& with_repair_rounds(int rounds) { repair.max_rounds = rounds; return *this; }
  EvalRequest& with_repair_budget(int generations) {
    repair.attempt_budget = generations;
    return *this;
  }
  EvalRequest& with_repair_efficacy(double efficacy) {
    repair.efficacy = efficacy;
    return *this;
  }
  EvalRequest& with_cache(cache::ResultCache* c) { cache = c; return *this; }
  EvalRequest& with_deadline_ms(int ms) { deadline_ms = ms; return *this; }
  EvalRequest& with_sim_budget(std::uint64_t steps) {
    sim_step_budget = steps;
    return *this;
  }
  EvalRequest& with_retries(int max_retries) {
    retry.max_retries = max_retries;
    return *this;
  }

  // CoT prompting model for SI-CoT. The reference is NON-OWNING: the caller
  // keeps the model alive for as long as this request (and any EvalEngine
  // built from it) is used. When unset, SI-CoT interprets state diagrams
  // with the CodeGen model itself (the paper's default: "the same
  // pre-trained models for both").
  EvalRequest& set_cot_model(const llm::SimLlm& model) {
    cot_model_ = &model;
    return *this;
  }
  void clear_cot_model() { cot_model_ = nullptr; }
  bool has_cot_model() const { return cot_model_ != nullptr; }
  // Optional-style access: throws std::logic_error when no model is set.
  const llm::SimLlm& cot_model() const {
    if (cot_model_ == nullptr) throw std::logic_error("EvalRequest::cot_model: none set");
    return *cot_model_;
  }
  const llm::SimLlm* cot_model_ptr() const { return cot_model_; }

 private:
  const llm::SimLlm* cot_model_ = nullptr;
};

class EvalEngine {
 public:
  EvalEngine() = default;
  explicit EvalEngine(EvalRequest request) : request_(std::move(request)) {}

  const EvalRequest& request() const { return request_; }
  EvalRequest& request() { return request_; }

  // Evaluate one (model, suite) pair: run every configured temperature and
  // return the best by functional pass@1 (first wins on ties), with the
  // run-wide counter block attached.
  SuiteResult evaluate(const llm::SimLlm& model, const Suite& suite) const;

 private:
  EvalRequest request_;
};

}  // namespace haven::eval
