#include "eval/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "cache/result_cache.h"
#include "cot/sicot.h"
#include "eval/cache_io.h"
#include "eval/passk.h"
#include "lint/lint.h"
#include "logic/truth_table.h"
#include "prove/prove.h"
#include "sim/compile.h"
#include "sim/testbench.h"
#include "util/fault.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "verilog/analyzer.h"
#include "verilog/parser.h"

namespace haven::eval {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return "exception";
    case FaultKind::kInjected: return "injected";
    case FaultKind::kDeadline: return "deadline";
    case FaultKind::kSimBudget: return "sim_budget";
  }
  return "?";
}

double SuiteResult::pass_at(int k) const {
  std::vector<std::pair<int, int>> nc;
  nc.reserve(per_task.size());
  for (const auto& t : per_task) nc.emplace_back(t.n, t.func_pass);
  return mean_pass_at_k(nc, k);
}

int SuiteResult::reported_k() const {
  int n = 5;
  for (const auto& t : per_task) n = std::min(n, t.n);
  return eval::reported_k(n);
}

double SuiteResult::syntax_pass_at(int k) const {
  std::vector<std::pair<int, int>> nc;
  nc.reserve(per_task.size());
  for (const auto& t : per_task) nc.emplace_back(t.n, t.syntax_pass);
  return mean_pass_at_k(nc, k);
}

double LintSummary::precision() const {
  const std::int64_t fired = true_positives + false_positives;
  return fired == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(fired);
}

double LintSummary::recall() const {
  const std::int64_t failed = true_positives + false_negatives;
  return failed == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(failed);
}

int LintSummary::dominant_axis() const {
  int best = -1;
  std::int64_t best_count = 0;
  for (int a = 0; a < llm::kNumHalluAxes; ++a) {
    if (axis_candidates[static_cast<std::size_t>(a)] > best_count) {
      best = a;
      best_count = axis_candidates[static_cast<std::size_t>(a)];
    }
  }
  return best;
}

bool counters_consistent(const EvalCounters& c) { return counters_inconsistency(c).empty(); }

std::string counters_inconsistency(const EvalCounters& c) {
  std::string out;
  auto violated = [&](const std::string& term) {
    if (!out.empty()) out += "; ";
    out += term;
  };
  const std::int64_t passes = c.candidates + c.repair_rounds;
  const std::int64_t buckets = c.unit_faults + c.compile_failures + c.lint_triaged +
                               c.proven_equiv + c.proven_inequiv + c.simulated + c.cache_hits;
  if (passes != buckets) {
    violated(util::format(
        "candidates + repair_rounds (%lld + %lld = %lld) != unit_faults + compile_failures + "
        "lint_triaged + proven_equiv + proven_inequiv + simulated + cache_hits "
        "(%lld + %lld + %lld + %lld + %lld + %lld + %lld = %lld)",
        static_cast<long long>(c.candidates), static_cast<long long>(c.repair_rounds),
        static_cast<long long>(passes), static_cast<long long>(c.unit_faults),
        static_cast<long long>(c.compile_failures), static_cast<long long>(c.lint_triaged),
        static_cast<long long>(c.proven_equiv), static_cast<long long>(c.proven_inequiv),
        static_cast<long long>(c.simulated), static_cast<long long>(c.cache_hits),
        static_cast<long long>(buckets)));
  }
  if (c.deadline_exceeded + c.cycles_aborted > c.unit_faults) {
    violated(util::format(
        "deadline_exceeded + cycles_aborted (%lld + %lld) > unit_faults (%lld)",
        static_cast<long long>(c.deadline_exceeded), static_cast<long long>(c.cycles_aborted),
        static_cast<long long>(c.unit_faults)));
  }
  // Every fallback reached the testbench by definition.
  if (c.prove_fallback > c.simulated) {
    violated(util::format("prove_fallback (%lld) > simulated (%lld)",
                          static_cast<long long>(c.prove_fallback),
                          static_cast<long long>(c.simulated)));
  }
  // With a cache attached every non-faulted pass is exactly one lookup; with
  // no cache both counters stay zero (then the check is vacuous).
  if (c.cache_hits + c.cache_misses != 0 &&
      c.cache_hits + c.cache_misses != passes - c.unit_faults) {
    violated(util::format(
        "cache_hits + cache_misses (%lld + %lld = %lld) != candidates + repair_rounds - "
        "unit_faults (%lld)",
        static_cast<long long>(c.cache_hits), static_cast<long long>(c.cache_misses),
        static_cast<long long>(c.cache_hits + c.cache_misses),
        static_cast<long long>(passes - c.unit_faults)));
  }
  // A unit with >= 1 repair round terminates as exactly one of repaired /
  // exhausted / passed-round-0-anyway (stop_on_pass = false burns rounds
  // after a pass), and contributes at least one round.
  if (c.repaired_pass + c.repair_exhausted > c.repair_rounds) {
    violated(util::format(
        "repaired_pass + repair_exhausted (%lld + %lld) > repair_rounds (%lld)",
        static_cast<long long>(c.repaired_pass), static_cast<long long>(c.repair_exhausted),
        static_cast<long long>(c.repair_rounds)));
  }
  return out;
}

std::pair<int, int> SuiteResult::modality_pass(symbolic::Modality m) const {
  // Expected pass-case count under the paper's single-attempt protocol:
  // each task contributes its per-sample pass fraction c/n.
  double passed = 0;
  int total = 0;
  for (const auto& t : per_task) {
    if (t.modality != m) continue;
    ++total;
    if (t.n > 0) passed += static_cast<double>(t.func_pass) / static_cast<double>(t.n);
  }
  // lround, not static_cast<int>(passed + 0.5): the +0.5 trick double-rounds
  // tallies infinitesimally below a half (e.g. 1/3 + 1/12 + 1/12) up to the
  // next integer.
  return {static_cast<int>(std::lround(passed)), total};
}

namespace {

std::uint64_t mix_hash(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Everything the units of one task share. The fields above `prompt_once` are
// filled before the fan-out and cost no parsing. The prepared prompt is built
// by the first unit that generates, and the golden artefacts by the first
// unit whose candidate compiles (build_golden), so the dispatching thread
// does no serial parsing, and a task whose candidates never need the golden
// (all cache hits, or none compiles) never parses it. Both are read-only from
// then on: every unit's generation, lint, proofs and simulators share them.
// The verdict memo is the one field workers write, under its mutex. The
// task's last unit to finish frees all of it again (unit_done).
struct TaskContext {
  using VerdictMemo = std::unordered_map<std::string, CachedVerdict>;

  const EvalTask* task = nullptr;
  std::uint64_t rng_base = 0;  // per-task RNG base (DESIGN.md §5 "Work-unit layout")
  cache::Digest cache_seed;    // task identity + eval knobs (cache on only)
  // The task's stimulus with the request's step budget and backend applied.
  sim::StimulusSpec stimulus;
  std::atomic<std::size_t> units_left{0};  // this task's units not yet finished

  std::once_flag prompt_once;
  llm::PreparedPrompt prompt;  // the task's prompt, prepared once (SI-CoT off)

  std::once_flag golden_once;
  verilog::ParseOutput golden;     // the golden module, parsed once per task
  bool golden_ok = false;          // it parsed, with at least one module
  sim::CompiledModule compiled;    // its elaboration and Program (golden_ok only)
  bool exhaustive = false;         // the testbench sweeps every input vector (golden_ok only)
  lint::ReferenceProfile profile;  // lint on and golden_ok only
  bool provable = false;           // prove on and the task is prove-eligible

  std::mutex memo_mutex;
  VerdictMemo memo;  // source -> verdict, for verdicts that read no stream

  // The memo's one rule: a verdict reads no testbench stream when it was
  // decided before simulation (compile failure, lint triage, proof) or by
  // an exhaustive sweep that compared at least one vector. A 0-vector
  // simulation is left out, since whether it crossed sim.run is not recorded.
  bool reads_no_stream(const CachedVerdict& v) const {
    if (!v.syntax_ok || v.triaged || v.proved) return true;
    return exhaustive && v.sim_vectors > 0;
  }

  // Two units that miss on the same source both compute it; the first to
  // remember it wins, and the verdicts are identical.
  bool recall(const std::string& source, CachedVerdict* out) {
    const std::lock_guard<std::mutex> lock(memo_mutex);
    const auto it = memo.find(source);
    if (it == memo.end()) return false;
    *out = it->second;
    return true;
  }
  void remember(const std::string& source, const CachedVerdict& v) {
    if (!reads_no_stream(v)) return;
    const std::lock_guard<std::mutex> lock(memo_mutex);
    memo.try_emplace(source, v);
  }

  // Called once per finished unit, on its worker. The last one frees the
  // prepared prompt, the golden artefacts and the memo there, in parallel
  // with other tasks' units. Left to ~TaskContext, every task's teardown
  // would run serially on the dispatching thread after the fan-out, on the
  // critical path of each job.
  void unit_done() {
    if (units_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      prompt = llm::PreparedPrompt{};
      compiled = sim::CompiledModule{};
      golden = verilog::ParseOutput{};
      profile = lint::ReferenceProfile{};
      memo = VerdictMemo{};
    }
  }
};

// Parse and build the golden once and derive from it what lint and prove
// need. A golden that does not parse leaves golden_ok false: lint then runs
// reference-free, prove stays off, and simulation faults the unit. One that
// parses but fails to build records the error, which each simulation of the
// task raises as its fault.
void build_golden(TaskContext& ctx, const EvalRequest& request) {
  const EvalTask& task = *ctx.task;
  ctx.golden = verilog::parse_source(task.golden_source);
  ctx.golden_ok = ctx.golden.ok() && !ctx.golden.file.modules.empty();
  if (!ctx.golden_ok) return;
  const verilog::Module& gm = ctx.golden.file.modules.front();
  const verilog::SourceFile* file = &ctx.golden.file;
  ctx.compiled = sim::compile_module(gm, file);
  ctx.exhaustive = sim::exhaustive_sweep_bits(gm, ctx.stimulus).has_value();

  if (request.lint || request.lint_triage) {
    lint::ReferenceProfile& profile = ctx.profile;
    lint::profile_from_golden(gm, file, &profile);
    profile.sequential = task.stimulus.sequential;
    profile.clock = task.stimulus.clock;
    profile.reset = task.stimulus.reset;
    // Triage is sound only where the testbench itself sweeps every vector.
    profile.exhaustive_comb = ctx.exhaustive;
    profile.golden_elab_ok = ctx.compiled.failed != sim::CompiledModule::Stage::kElaborate;
    // Golden truth rows for the constant-output proof: only combinational
    // expression tasks carry an exact semantic function.
    if (task.spec.kind == llm::TaskKind::kCombExpr && task.spec.expr != nullptr &&
        !task.spec.comb_inputs.empty() && task.spec.comb_inputs.size() <= 20) {
      const logic::TruthTable tt = logic::TruthTable::from_expr(
          *task.spec.expr, task.spec.comb_inputs, task.spec.comb_output);
      lint::ReferenceProfile::OutputTruth truth;
      truth.port = task.spec.comb_output;
      const std::uint32_t rows = std::uint32_t{1}
                                 << static_cast<std::uint32_t>(task.spec.comb_inputs.size());
      for (std::uint32_t row = 0; row < rows; ++row) {
        const logic::Tri v = tt.row(row);
        truth.defined_zero |= v == logic::Tri::kFalse;
        truth.defined_one |= v == logic::Tri::kTrue;
      }
      profile.truth.push_back(std::move(truth));
    }
  }

  // Prove eligibility is structural: combinational spec, sweep fits, golden
  // builds and lowers, and no step budget in force (a budget-blown sim must
  // still surface as a unit fault). The dry run is unbudgeted so that a small
  // request budget exhausts per candidate, counted under prove_fallback,
  // instead of silently disabling the task.
  ctx.provable = request.prove && ctx.stimulus.step_budget == 0 &&
                 prove::golden_provable(ctx.compiled, ctx.stimulus, prove::ProveOptions{0});
}

// One pass of the candidate pipeline: round 0, a repair round, or a cache
// hit replaying either. `verdict` is exactly what the result cache stores.
struct PassRecord {
  CachedVerdict verdict;
  bool cache_hit = false;  // verdict replayed from the result cache
  bool refined = false;    // SI-CoT transformed the prompt
  double generate_seconds = 0.0;
  double compile_seconds = 0.0;
  double lint_seconds = 0.0;
  double prove_seconds = 0.0;
  double sim_seconds = 0.0;
};

// compile → lint → prove → simulate over one generated candidate. The
// candidate is analyzed once; that parse and the task's one golden feed every
// later stage. A stage that decides the verdict returns early.
void check_candidate(const EvalRequest& request, TaskContext& ctx, std::string_view source,
                     util::Rng& tb_rng, const util::Deadline& deadline, PassRecord& pass) {
  CachedVerdict& v = pass.verdict;
  const bool lint_on = request.lint || request.lint_triage;

  const Clock::time_point compile_start = Clock::now();
  util::maybe_inject(util::kSiteEvalCompile);
  const verilog::SourceAnalysis analysis = verilog::analyze_source(source);
  v.syntax_ok = analysis.ok();
  pass.compile_seconds = seconds_since(compile_start);
  deadline.check("compile");

  if (!v.syntax_ok) {
    if (lint_on) {
      // Attribute the compile failure: parse errors and semantic errors map
      // to kSyntax/kSema findings with taxonomy axes.
      const Clock::time_point lint_start = Clock::now();
      v.findings = lint::findings_from_diagnostics(analysis.parse_errors);
      for (const auto& m : analysis.modules) {
        auto more = lint::findings_from_diagnostics(m.diagnostics);
        v.findings.insert(v.findings.end(), more.begin(), more.end());
      }
      pass.lint_seconds = seconds_since(lint_start);
    }
    return;
  }

  std::call_once(ctx.golden_once, build_golden, std::ref(ctx), std::cref(request));
  const verilog::Module& cand = analysis.file.modules.front();

  // Lint draws nothing from the unit RNG (determinism contract).
  if (lint_on) {
    const Clock::time_point lint_start = Clock::now();
    lint::LintResult lint_result =
        lint::lint_candidate(cand, &analysis.file, ctx.golden_ok ? &ctx.profile : nullptr);
    const bool proven = lint_result.proven_failure();
    v.findings = std::move(lint_result.findings);
    pass.lint_seconds = seconds_since(lint_start);
    deadline.check("lint");
    if (request.lint_triage && proven) {
      // Proven findings imply the diff test fails (DESIGN.md §8): score the
      // candidate as a functional failure without simulating.
      v.triaged = true;
      return;
    }
  }

  // Proofs and simulation both need the golden (provable implies golden_ok).
  if (!ctx.golden_ok) throw std::invalid_argument("golden source does not parse");

  // The prover and the testbench both fail a port mismatch before reading
  // either design, so such a candidate is not built: its verdict is recorded
  // as the stage that would have run.
  Clock::time_point stage_start = Clock::now();
  const sim::DiffResult iface = sim::check_interface(cand, *ctx.compiled.module);
  if (!iface.passed) {
    v.fail_reason = iface.reason;
    if (ctx.provable) {
      v.proved = true;
      pass.prove_seconds = seconds_since(stage_start);
      deadline.check("prove");
    } else {
      v.simulated = true;
      pass.sim_seconds = seconds_since(stage_start);
    }
    return;
  }

  // The candidate's one build, read by the prover and the testbench alike and
  // billed to the first of them that runs.
  const sim::CompiledModule dut = sim::compile_module(cand, &analysis.file);

  // Formal equivalence fast-path (DESIGN.md §12), after lint triage — a
  // candidate with a proven lint failure counts once, under lint_triaged —
  // and before simulation. A proven verdict is bit-identical to the diff
  // testbench's by construction; anything else falls through to it.
  if (ctx.provable) {
    const prove::ProveResult proof = prove::prove_equivalence(
        dut, ctx.compiled, ctx.stimulus, prove::ProveOptions{request.prove_budget});
    pass.prove_seconds = seconds_since(stage_start);
    deadline.check("prove");
    if (proof.status == prove::ProveStatus::kEquivalent ||
        proof.status == prove::ProveStatus::kInequivalent) {
      v.func_ok = proof.status == prove::ProveStatus::kEquivalent;
      v.proved = true;
      if (!v.func_ok) v.fail_reason = proof.reason;
      return;
    }
    // kUnsupported / kBudgetExceeded: defer to the testbench.
    v.prove_fallback = true;
    stage_start = Clock::now();
  }

  const sim::DiffResult diff =
      sim::run_diff_test(dut, ctx.compiled, ctx.stimulus, tb_rng, &deadline);
  pass.sim_seconds = seconds_since(stage_start);
  v.func_ok = diff.passed;
  v.simulated = true;
  v.sim_vectors = diff.vectors;
  if (!diff.passed) v.fail_reason = diff.reason;
}

// The candidate pipeline: SI-CoT refine, generate, then the result cache,
// the task's verdict memo or check_candidate. The draw order against `rng`
// is part of the determinism contract — do not reorder. Neither the
// deadline checks nor the injection hook draw from `rng`, so enabling them
// never perturbs results. A non-null `damping` routes generation through
// generate_with_hints (repair rounds); round 0 passes null and takes the
// byte-identical generate() path.
PassRecord run_candidate(const llm::SimLlm& model, const EvalRequest& request, TaskContext& ctx,
                         double temperature, util::Rng& rng, const util::Deadline& deadline,
                         const llm::AxisDamping* damping) {
  PassRecord pass;
  const Clock::time_point gen_start = Clock::now();
  // The task's prompt is prepared once, by its first unit to generate. An
  // SI-CoT prompt differs per sample, so it is prepared per candidate.
  llm::PreparedPrompt refined_prompt;
  const llm::PreparedPrompt* prompt = &ctx.prompt;
  if (request.use_sicot) {
    const llm::SimLlm* interpreter = request.has_cot_model() ? request.cot_model_ptr() : &model;
    cot::SiCotPipeline pipeline(interpreter);
    cot::SiCotResult refined = pipeline.refine(ctx.task->prompt, temperature, rng);
    pass.refined = refined.transformed;
    refined_prompt = llm::prepare_prompt(std::move(refined.prompt));
    prompt = &refined_prompt;
  } else {
    std::call_once(ctx.prompt_once,
                   [&ctx] { ctx.prompt = llm::prepare_prompt(ctx.task->prompt); });
  }
  llm::GenerationConfig gen;
  gen.temperature = temperature;
  const std::string source = damping != nullptr
                                 ? model.generate_with_hints(*prompt, gen, *damping, rng)
                                 : model.generate(*prompt, gen, rng);
  pass.generate_seconds = seconds_since(gen_start);
  deadline.check("generate");

  // The testbench stream forks here, right after generation. No later stage
  // draws from `rng`, so the stream is bit-identical to forking at
  // simulation time — and forking early lets the cache key bind the stimulus
  // stream before any cached stage.
  util::Rng tb_rng = rng.fork();

  // Result-cache lookup (content + task + knobs + stimulus stream): a hit
  // replays the stored verdict bit-identically; see DESIGN.md §9 for the
  // soundness argument. An undecodable payload (older schema, corrupt
  // artifact) is a miss, and the fresh verdict overwrites it.
  cache::ResultCache* const cache = request.cache;
  cache::Digest cache_key;
  if (cache != nullptr) {
    cache_key = unit_cache_key(ctx.cache_seed, source, tb_rng.state_hash());
    if (std::optional<std::string> payload = cache->lookup(cache_key)) {
      if (decode_verdict(*payload, &pass.verdict)) {
        pass.cache_hit = true;
        return pass;
      }
    }
  }
  // A repeated source replays its memoized verdict and bills no stage. The
  // hit crosses the injection sites a fresh check crosses first, so exactly
  // the same units fault.
  if (ctx.recall(source, &pass.verdict)) {
    util::maybe_inject(util::kSiteEvalCompile);
    if (pass.verdict.simulated) util::maybe_inject(util::kSiteSimRun);
  } else {
    check_candidate(request, ctx, source, tb_rng, deadline, pass);
    ctx.remember(source, pass.verdict);
  }
  // Faults throw past this, so only completed passes are ever stored.
  if (cache != nullptr) {
    cache->insert(cache_key, encode_verdict(pass.verdict, request.repair.enabled()));
  }
  return pass;
}

// One (temperature, task, sample) work unit: round 0 plus any repair rounds,
// or the fault that ended it.
struct UnitOutcome {
  std::vector<PassRecord> passes;  // round 0 first; empty when faulted
  std::size_t verdict = 0;         // the first passing pass, else the last
  int attempts = 1;                // attempts consumed (1 = no retries)
  bool faulted = false;
  FaultKind fault_kind = FaultKind::kException;
  std::string fault_what;
};

FaultKind classify_fault(const std::exception& e) {
  if (dynamic_cast<const util::InjectedFault*>(&e) != nullptr) return FaultKind::kInjected;
  if (dynamic_cast<const util::DeadlineExceeded*>(&e) != nullptr) return FaultKind::kDeadline;
  if (dynamic_cast<const sim::BudgetExceeded*>(&e) != nullptr) return FaultKind::kSimBudget;
  return FaultKind::kException;
}

}  // namespace

SuiteResult EvalEngine::evaluate(const llm::SimLlm& model, const Suite& suite) const {
  const Clock::time_point wall_start = Clock::now();
  const std::clock_t cpu_start = std::clock();

  const std::size_t n_temps = request_.temperatures.size();
  const std::size_t n_tasks = suite.tasks.size();
  const std::size_t n_samples =
      request_.n_samples > 0 ? static_cast<std::size_t>(request_.n_samples) : 0;
  const std::size_t total = n_temps * n_tasks * n_samples;
  const bool lint_enabled = request_.lint || request_.lint_triage;
  cache::ResultCache* result_cache = request_.cache;
  const std::int64_t cache_evictions_before =
      result_cache != nullptr ? result_cache->stats().evictions : 0;

  // Per-task contexts: only the parse-free fields here, the golden artefacts
  // lazily inside the fan-out (see TaskContext).
  const CacheLintMode lint_mode = request_.lint_triage ? CacheLintMode::kTriage
                                  : lint_enabled       ? CacheLintMode::kObserve
                                                       : CacheLintMode::kOff;
  std::vector<TaskContext> contexts(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const EvalTask& task = suite.tasks[i];
    TaskContext& ctx = contexts[i];
    ctx.task = &task;
    ctx.rng_base = mix_hash(request_.seed, model.name() + "|" + task.id);
    if (result_cache != nullptr) {
      ctx.cache_seed = task_cache_seed(task, request_.sim_step_budget, lint_mode,
                                       request_.prove, request_.prove_budget, &request_.repair);
    }
    ctx.stimulus = task.stimulus;
    if (request_.sim_step_budget != 0) ctx.stimulus.step_budget = request_.sim_step_budget;
    ctx.stimulus.backend = request_.sim_backend;
    ctx.units_left.store(n_temps * n_samples, std::memory_order_relaxed);
  }

  // Work-unit index layout: temperature-major, then task, then sample.
  auto decode = [&](std::size_t unit, std::size_t& ti, std::size_t& task_i, int& s) {
    ti = unit / (n_tasks * n_samples);
    const std::size_t rest = unit % (n_tasks * n_samples);
    task_i = rest / n_samples;
    s = static_cast<int>(rest % n_samples);
  };

  // One isolated work unit: run the candidate pipeline, retrying transient
  // faults per the request's policy. Attempt k derives its RNG from
  // (seed, unit, k) — the k = 0 term is zero, so first attempts reproduce
  // the legacy derivation bit for bit — and its fault-injection context
  // from (seed, unit, k), so chaos runs are deterministic at any thread
  // count. Every exception is converted into a structured fault record;
  // nothing escapes the unit.
  auto run_unit = [&](std::size_t unit) -> UnitOutcome {
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    TaskContext& ctx = contexts[task_i];
    struct Finished {
      TaskContext& ctx;
      ~Finished() { ctx.unit_done(); }
    } finished{ctx};  // on every exit: verdict or fault
    const double temperature = request_.temperatures[ti];
    const int max_retries = std::max(0, request_.retry.max_retries);
    const repair::RepairPolicy& policy = request_.repair;
    UnitOutcome out;
    for (int attempt = 0;; ++attempt) {
      out = UnitOutcome{};  // drop the passes of a failed attempt
      out.attempts = attempt + 1;
      // Round 0 uses this seed unmodified (the legacy derivation, bit for
      // bit); repair round r >= 1 XORs in a per-round term below.
      const std::uint64_t unit_seed =
          ctx.rng_base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(s + 1)) ^
          static_cast<std::uint64_t>(temperature * 4096) ^
          (0xda942042e4dd58b5ULL * static_cast<std::uint64_t>(attempt));
      util::Rng rng(unit_seed);
      util::FaultInjector::ScopedContext fault_context(
          request_.seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(unit) + 1)) ^
          (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(attempt) + 1)));
      // One deadline per attempt, covering every repair round of the attempt:
      // repair stretches a candidate's work, it does not extend its time box.
      const util::Deadline deadline = request_.deadline_ms > 0
                                          ? util::Deadline::after_ms(request_.deadline_ms)
                                          : util::Deadline::none();
      try {
        out.passes.push_back(
            run_candidate(model, request_, ctx, temperature, rng, deadline, nullptr));
        // Closed-loop self-repair (DESIGN.md §13): distill the latest pass's
        // failure evidence into a hint, damp the hinted axes, regenerate.
        // Round r's RNG depends only on (unit_seed, r), and its hint only on
        // rounds 0..r-1, so round sequences are prefix-stable across
        // max_rounds settings — pass@k is monotone in rounds by construction.
        // A fault inside any round retries or faults the whole unit.
        const repair::FeedbackBuilder feedback;
        while (policy.admits_round(static_cast<int>(out.passes.size()) - 1,
                                   static_cast<int>(out.passes.size()))) {
          const CachedVerdict& prev = out.passes.back().verdict;
          if (policy.stop_on_pass && prev.func_ok) break;
          repair::Evidence evidence;
          evidence.passed = prev.func_ok;
          evidence.compile_failed = !prev.syntax_ok;
          evidence.lint_triaged = prev.triaged;
          evidence.proven_inequiv = prev.proved && !prev.func_ok;
          evidence.sim_mismatch = prev.simulated && !prev.func_ok;
          evidence.findings = &prev.findings;
          evidence.fail_reason = prev.fail_reason;
          const llm::AxisDamping damping =
              repair::damping_for(feedback.distill(evidence), policy.efficacy);
          const auto round = static_cast<std::uint64_t>(out.passes.size());
          util::Rng round_rng(unit_seed ^ (0x8bb84b93962eacc9ULL * round));
          out.passes.push_back(
              run_candidate(model, request_, ctx, temperature, round_rng, deadline, &damping));
        }
        out.verdict = out.passes.size() - 1;
        for (std::size_t p = 0; p < out.passes.size(); ++p) {
          if (out.passes[p].verdict.func_ok) {
            out.verdict = p;
            break;
          }
        }
        return out;
      } catch (const std::exception& e) {
        if (attempt < max_retries && request_.retry.should_retry(e)) {
          const int backoff = request_.retry.backoff_ms(attempt);
          if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
          continue;
        }
        out.fault_kind = classify_fault(e);
        out.fault_what = e.what();
      } catch (...) {
        out.fault_kind = FaultKind::kException;
        out.fault_what = "unknown non-standard exception";
      }
      out.faulted = true;
      out.passes.clear();
      return out;
    }
  };

  auto make_fault = [&](std::size_t unit, const UnitOutcome& u) -> UnitFault {
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    UnitFault fault;
    fault.kind = u.fault_kind;
    fault.task_id = suite.tasks[task_i].id;
    fault.sample = s;
    fault.temperature = request_.temperatures[ti];
    fault.attempts = u.attempts;
    fault.what = u.fault_what;
    return fault;
  };

  auto report_progress = [&](std::size_t unit) {
    if (!request_.on_progress) return;
    std::size_t ti = 0, task_i = 0;
    int s = 0;
    decode(unit, ti, task_i, s);
    EvalProgress progress;
    progress.completed = unit + 1;
    progress.total = total;
    progress.temperature = request_.temperatures[ti];
    progress.task_id = suite.tasks[task_i].id;
    progress.sample = s;
    request_.on_progress(progress);
  };

  util::ThreadPool* external_pool = request_.pool;
  const std::size_t requested_threads =
      external_pool != nullptr ? external_pool->worker_count()
      : request_.threads <= 0 ? util::ThreadPool::default_worker_count()
                              : static_cast<std::size_t>(request_.threads);
  const std::size_t workers = std::min(requested_threads, total == 0 ? std::size_t{1} : total);

  std::vector<UnitOutcome> outcomes(total);

  // Fan the units out over `pool`, collecting strictly in index order: the
  // reduction below (and the progress stream) must never observe completion
  // order.
  auto run_on_pool = [&](util::ThreadPool& pool) {
    std::vector<std::future<UnitOutcome>> futures;
    futures.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      futures.push_back(pool.submit([&run_unit, i] { return run_unit(i); }));
    }
    try {
      for (std::size_t i = 0; i < total; ++i) {
        outcomes[i] = futures[i].get();
        report_progress(i);
      }
    } catch (...) {
      // A throwing on_progress (a serve subscriber) unwinds this frame while
      // every queued task still captures it; on a shared pool they would run
      // after it is gone. Block on each outstanding future so no task can
      // outlive the frame, then let the exception out.
      for (std::future<UnitOutcome>& future : futures) {
        if (future.valid()) future.wait();
      }
      throw;
    }
  };

  if (external_pool != nullptr) {
    run_on_pool(*external_pool);
  } else if (workers <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      outcomes[i] = run_unit(i);
      report_progress(i);
    }
  } else {
    util::ThreadPool pool(workers);
    run_on_pool(pool);
  }

  // The one reducer. A faulted unit counts under unit_faults alone; every
  // pass of any other unit lands in exactly one pipeline bucket, so the
  // accounting identity (counters_consistent) holds by construction. The
  // verdict pass alone carries the unit's tallies and lint findings.
  EvalCounters counters;
  std::vector<UnitFault> faults;
  LintSummary lint_summary;
  lint_summary.enabled = lint_enabled;
  std::vector<CandidateFindings> candidate_findings;
  counters.threads_used = static_cast<int>(workers);
  for (std::size_t i = 0; i < total; ++i) {
    const UnitOutcome& u = outcomes[i];
    ++counters.candidates;
    counters.retries += u.attempts - 1;
    if (u.faulted) {
      ++counters.unit_faults;
      counters.deadline_exceeded += u.fault_kind == FaultKind::kDeadline;
      counters.cycles_aborted += u.fault_kind == FaultKind::kSimBudget;
      faults.push_back(make_fault(i, u));
      continue;
    }
    counters.sicot_refinements += u.passes.front().refined;
    for (const PassRecord& pass : u.passes) {
      counters.generate_seconds += pass.generate_seconds;
      counters.compile_seconds += pass.compile_seconds;
      counters.lint_seconds += pass.lint_seconds;
      counters.prove_seconds += pass.prove_seconds;
      counters.sim_seconds += pass.sim_seconds;
      const CachedVerdict& v = pass.verdict;
      if (pass.cache_hit) {
        // A hit replays its verdict without running the pipeline: it lands
        // in its own bucket and nowhere else.
        ++counters.cache_hits;
        continue;
      }
      if (result_cache != nullptr) ++counters.cache_misses;
      if (!v.syntax_ok) {
        ++counters.compile_failures;
      } else if (v.triaged) {
        ++counters.lint_triaged;
      } else if (v.proved) {
        ++(v.func_ok ? counters.proven_equiv : counters.proven_inequiv);
      } else {
        ++counters.simulated;
      }
      counters.sim_mismatches += v.syntax_ok && !v.func_ok;
      counters.prove_fallback += v.prove_fallback;
      counters.sim_vectors += v.sim_vectors;
    }
    const CachedVerdict& verdict = u.passes[u.verdict].verdict;
    const auto rounds = static_cast<std::int64_t>(u.passes.size()) - 1;
    counters.repair_rounds += rounds;
    counters.repaired_pass += verdict.func_ok && u.verdict >= 1;
    counters.repair_exhausted += rounds > 0 && !verdict.func_ok;
    counters.lint_findings += static_cast<std::int64_t>(verdict.findings.size());

    if (!lint_enabled) continue;
    bool flagged = false;
    std::uint32_t axis_mask = 0;
    for (const lint::Finding& f : verdict.findings) {
      flagged |= f.predicts_failure;
      ++lint_summary.rule_counts[lint::rule_id(f.rule)];
      if (f.diag.severity != verilog::Severity::kNote) {
        axis_mask |= std::uint32_t{1} << static_cast<int>(f.axis);
      }
    }
    lint_summary.flagged_candidates += flagged;
    for (int a = 0; a < llm::kNumHalluAxes; ++a) {
      lint_summary.axis_candidates[static_cast<std::size_t>(a)] +=
          (axis_mask >> a) & 1u;
    }
    // Confusion vs the simulated verdict (compiled candidates only: compile
    // failures have no testbench ground truth). Triaged candidates are true
    // positives by the soundness argument.
    if (verdict.syntax_ok) {
      const bool failed = !verdict.func_ok;
      if (flagged && failed) {
        ++lint_summary.true_positives;
      } else if (flagged) {
        ++lint_summary.false_positives;
      } else if (failed) {
        ++lint_summary.false_negatives;
      } else {
        ++lint_summary.true_negatives;
      }
    }
    if (!verdict.findings.empty()) {
      std::size_t ti = 0, task_i = 0;
      int s = 0;
      decode(i, ti, task_i, s);
      CandidateFindings cf;
      cf.task_id = suite.tasks[task_i].id;
      cf.sample = s;
      cf.temperature = request_.temperatures[ti];
      cf.findings = verdict.findings;
      candidate_findings.push_back(std::move(cf));
    }
  }
  lint_summary.findings = counters.lint_findings;

  // Debug builds re-check the identity the reducer builds, naming any
  // violated term, so a broken build fails loudly, not opaquely.
#ifndef NDEBUG
  if (const std::string broken = counters_inconsistency(counters); !broken.empty()) {
    std::fprintf(stderr, "EvalCounters accounting identity violated: %s\n", broken.c_str());
    assert(false && "EvalCounters accounting identity violated");
  }
#endif

  SuiteResult best;
  double best_pass1 = 0.0;
  bool have_best = false;
  for (std::size_t ti = 0; ti < n_temps; ++ti) {
    SuiteResult result;
    result.suite_name = suite.name;
    result.model_name = model.name();
    result.temperature = request_.temperatures[ti];
    result.per_task.reserve(n_tasks);
    for (std::size_t task_i = 0; task_i < n_tasks; ++task_i) {
      TaskResult tr;
      tr.task_id = suite.tasks[task_i].id;
      tr.modality = suite.tasks[task_i].modality;
      tr.n = request_.n_samples;
      const std::size_t base = (ti * n_tasks + task_i) * n_samples;
      for (std::size_t s = 0; s < n_samples; ++s) {
        const UnitOutcome& u = outcomes[base + s];
        // Faulted units score as total failures even when an earlier stage
        // succeeded before the fault (e.g. compiled, then sim deadline blew).
        if (u.faulted) continue;
        tr.syntax_pass += u.passes[u.verdict].verdict.syntax_ok;
        tr.func_pass += u.passes[u.verdict].verdict.func_ok;
      }
      result.per_task.push_back(std::move(tr));
    }
    const double pass1 = result.pass_at(1);
    if (!have_best || pass1 > best_pass1) {
      best = std::move(result);
      best_pass1 = pass1;
      have_best = true;
    }
  }
  if (!have_best) {
    // No temperatures configured: return an empty, but labelled, result.
    best.suite_name = suite.name;
    best.model_name = model.name();
  }

  if (result_cache != nullptr) {
    const cache::CacheStats cs = result_cache->stats();
    counters.cache_evictions = cs.evictions - cache_evictions_before;
    counters.cache_bytes = cs.bytes;
  }

  counters.wall_seconds = seconds_since(wall_start);
  counters.cpu_seconds =
      static_cast<double>(std::clock() - cpu_start) / static_cast<double>(CLOCKS_PER_SEC);
  best.counters = counters;
  best.faults = std::move(faults);
  best.lint = std::move(lint_summary);
  best.lint_findings = std::move(candidate_findings);
  return best;
}

}  // namespace haven::eval
