#include "replay.h"

#include <future>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "cache/result_cache.h"
#include "cot/sicot.h"
#include "eval/cache_io.h"
#include "lint/lint.h"
#include "logic/truth_table.h"
#include "prove/prove.h"
#include "repair/repair.h"
#include "serve/serve.h"
#include "sim/compile.h"
#include "sim/elaborate.h"
#include "sim/testbench.h"
#include "verilog/analyzer.h"
#include "verilog/parser.h"

namespace haven::perfbench {
namespace {

using Scope = Tracer::Scope;

// EvalEngine's per-task RNG base: FNV-1a over "model|task" from the seed.
std::uint64_t mix_hash(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// What evaluate() prepares once per task before the fan-out.
struct TaskCtx {
  std::uint64_t rng_base = 0;
  cache::Digest cache_seed;
  verilog::ParseOutput lint_golden;
  lint::ReferenceProfile profile;
  bool lint_usable = false;
  verilog::ParseOutput prove_golden_own;
  const verilog::ParseOutput* prove_golden = nullptr;  // null = task not provable
};

// One pipeline pass (round 0 or a repair round).
struct Pass {
  bool syntax_ok = false;
  bool func_ok = false;
  bool triaged = false;
  bool proved = false;
  bool prove_fallback = false;
  bool simulated = false;
  bool cache_hit = false;
  int sim_vectors = 0;
  double sim_ns = 0.0;
  std::vector<lint::Finding> findings;
  std::string fail_reason;
  std::string source;
};

struct Unit {
  bool faulted = false;
  bool syntax_ok = false;
  bool func_ok = false;
  int rounds = 0;
  bool repaired = false;
  std::vector<Pass> passes;
};

struct JobCtx {
  const ReplayJob* job = nullptr;
  Tracer* tracer = nullptr;
  std::vector<TaskCtx>* tasks = nullptr;
  bool lint = false;
  bool caching = false;
  prove::ProveOptions prove_opts;
};

// run_candidate in src/eval/engine.cpp, call for call.
Pass run_pass(const JobCtx& ctx, const eval::EvalTask& task, const TaskCtx& tc,
              double temperature, util::Rng& rng, const llm::AxisDamping* damping) {
  const eval::EvalRequest& req = ctx.job->request;
  const llm::SimLlm& model = *ctx.job->model;
  Tracer* tr = ctx.tracer;
  Pass out;

  std::string prompt = task.prompt;
  if (req.use_sicot) {
    Scope span(tr, Fn::kCotRefine);
    const llm::SimLlm* interpreter = req.has_cot_model() ? req.cot_model_ptr() : &model;
    const cot::SiCotPipeline pipeline(interpreter);
    prompt = pipeline.refine(prompt, temperature, rng).prompt;
  }
  llm::GenerationConfig gen;
  gen.temperature = temperature;
  if (damping != nullptr) {
    Scope span(tr, Fn::kLlmGenerateWithHints);
    out.source = model.generate_with_hints(prompt, gen, *damping, rng);
  } else {
    Scope span(tr, Fn::kLlmGenerate);
    out.source = model.generate(prompt, gen, rng);
  }
  util::Rng tb_rng = rng.fork();

  cache::ResultCache* cache = req.cache;
  cache::Digest key;
  if (ctx.caching) {
    {
      Scope span(tr, Fn::kCacheKey);
      key = eval::unit_cache_key(tc.cache_seed, out.source, tb_rng.state_hash());
    }
    std::optional<std::string> payload;
    {
      Scope span(tr, Fn::kCacheLookup);
      payload = cache->lookup(key);
    }
    if (payload) {
      eval::CachedVerdict v;
      bool decoded = false;
      {
        Scope span(tr, Fn::kCacheDecode);
        decoded = eval::decode_verdict(*payload, &v);
      }
      if (decoded) {
        out.syntax_ok = v.syntax_ok;
        out.func_ok = v.func_ok;
        out.triaged = v.triaged;
        out.proved = v.proved;
        out.prove_fallback = v.prove_fallback;
        out.simulated = v.simulated;  // replayed flag: repair evidence reads it
        out.sim_vectors = v.sim_vectors;
        out.findings = std::move(v.findings);
        out.fail_reason = std::move(v.fail_reason);
        out.cache_hit = true;
        return out;
      }
    }
  }
  auto store = [&]() {
    if (!ctx.caching) return;
    eval::CachedVerdict v;
    v.syntax_ok = out.syntax_ok;
    v.func_ok = out.func_ok;
    v.triaged = out.triaged;
    v.proved = out.proved;
    v.prove_fallback = out.prove_fallback;
    v.simulated = out.simulated;
    v.sim_vectors = out.sim_vectors;
    v.findings = out.findings;
    v.fail_reason = out.fail_reason;
    std::string payload;
    {
      Scope span(tr, Fn::kCacheEncode);
      payload = eval::encode_verdict(v, req.repair.enabled());
    }
    Scope span(tr, Fn::kCacheInsert);
    cache->insert(key, std::move(payload));
  };

  {
    Scope span(tr, Fn::kVerilogCompileOk);
    out.syntax_ok = verilog::compile_ok(out.source);
  }
  if (!out.syntax_ok) {
    if (ctx.lint) {
      verilog::SourceAnalysis analysis;
      {
        Scope span(tr, Fn::kVerilogAnalyzeSource);
        analysis = verilog::analyze_source(out.source);
      }
      Scope span(tr, Fn::kLintFromDiagnostics);
      out.findings = lint::findings_from_diagnostics(analysis.parse_errors);
      for (const auto& m : analysis.modules) {
        auto more = lint::findings_from_diagnostics(m.diagnostics);
        out.findings.insert(out.findings.end(), more.begin(), more.end());
      }
    }
    store();
    return out;
  }

  const bool prove_active = req.prove && tc.prove_golden != nullptr;
  verilog::ParseOutput cand;
  bool cand_ready = false;
  if (ctx.lint) {
    {
      Scope span(tr, Fn::kVerilogParseCandidate);
      cand = verilog::parse_source(out.source);
    }
    cand_ready = cand.ok() && !cand.file.modules.empty();
    if (cand_ready) {
      lint::LintResult result;
      {
        Scope span(tr, Fn::kLintCandidate);
        result = lint::lint_candidate(cand.file.modules.front(), &cand.file,
                                      tc.lint_usable ? &tc.profile : nullptr);
      }
      const bool proven = result.proven_failure();
      out.findings = std::move(result.findings);
      if (req.lint_triage && proven) {
        out.func_ok = false;
        out.triaged = true;
        store();
        return out;
      }
    }
  } else if (prove_active) {
    Scope span(tr, Fn::kVerilogParseCandidate);
    cand = verilog::parse_source(out.source);
    cand_ready = cand.ok() && !cand.file.modules.empty();
  }

  if (prove_active && cand_ready) {
    prove::ProveResult proof;
    {
      Scope span(tr, Fn::kProveEquivalence);
      proof = prove::prove_equivalence(cand.file.modules.front(), &cand.file,
                                       tc.prove_golden->file.modules.front(),
                                       &tc.prove_golden->file, task.stimulus, ctx.prove_opts);
    }
    if (proof.status == prove::ProveStatus::kEquivalent ||
        proof.status == prove::ProveStatus::kInequivalent) {
      out.func_ok = proof.status == prove::ProveStatus::kEquivalent;
      out.proved = true;
      if (!out.func_ok) out.fail_reason = proof.reason;
      store();
      return out;
    }
    out.prove_fallback = true;
  }

  sim::StimulusSpec stimulus = task.stimulus;
  if (req.sim_step_budget != 0) stimulus.step_budget = req.sim_step_budget;
  stimulus.backend = req.sim_backend;
  const verilog::ParseOutput* golden = ctx.lint && tc.lint_usable ? &tc.lint_golden
                                       : prove_active             ? tc.prove_golden
                                                                  : nullptr;
  sim::DiffResult diff;
  if (cand_ready && golden != nullptr) {
    const Clock::time_point start = Clock::now();
    {
      Scope span(tr, Fn::kSimRunDiffTest);
      diff = sim::run_diff_test(cand.file.modules.front(), &cand.file,
                                golden->file.modules.front(), &golden->file, stimulus, tb_rng);
    }
    out.sim_ns = static_cast<double>((Clock::now() - start).count());
  } else {
    // The source-text overload of run_diff_test, split into its calls: parse
    // the candidate, parse the golden, then the AST diff test.
    {
      Scope span(tr, Fn::kVerilogParseCandidate);
      cand = verilog::parse_source(out.source);
    }
    if (!cand.ok() || cand.file.modules.empty()) {
      diff.reason = "dut parse failed";
      if (!cand.diagnostics.empty()) diff.reason += ": " + cand.diagnostics.front().to_string();
    } else {
      verilog::ParseOutput golden_parsed;
      {
        Scope span(tr, Fn::kVerilogParseGolden);
        golden_parsed = verilog::parse_source(task.golden_source);
      }
      if (!golden_parsed.ok() || golden_parsed.file.modules.empty()) {
        throw std::invalid_argument("golden source does not parse");
      }
      const Clock::time_point start = Clock::now();
      {
        Scope span(tr, Fn::kSimRunDiffTest);
        diff = sim::run_diff_test(cand.file.modules.front(), &cand.file,
                                  golden_parsed.file.modules.front(), &golden_parsed.file,
                                  stimulus, tb_rng);
      }
      out.sim_ns = static_cast<double>((Clock::now() - start).count());
    }
  }
  out.func_ok = diff.passed;
  out.simulated = true;
  out.sim_vectors = diff.vectors;
  if (!diff.passed) out.fail_reason = diff.reason;
  store();
  return out;
}

// The work unit of evaluate(): round 0 plus the repair loop, attempt 0 only
// (the benchmark injects no faults, so nothing is retried).
Unit run_unit(const JobCtx& ctx, std::size_t task_i, int sample, double temperature,
              std::uint32_t unit_id) {
  const eval::EvalRequest& req = ctx.job->request;
  const eval::EvalTask& task = ctx.job->suite->tasks[task_i];
  const TaskCtx& tc = (*ctx.tasks)[task_i];
  Tracer::set_unit(unit_id);
  Scope unit_span(ctx.tracer, Fn::kUnit);
  Unit unit;
  try {
    const std::uint64_t unit_seed =
        tc.rng_base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(sample + 1)) ^
        static_cast<std::uint64_t>(temperature * 4096);
    util::Rng rng(unit_seed);
    unit.passes.push_back(run_pass(ctx, task, tc, temperature, rng, nullptr));
    const repair::RepairPolicy& policy = req.repair;
    if (policy.enabled()) {
      const repair::FeedbackBuilder feedback;
      int rounds = 0;
      while (policy.admits_round(rounds, 1 + rounds)) {
        const Pass& prev = unit.passes.back();
        if (policy.stop_on_pass && prev.func_ok) break;
        repair::Evidence evidence;
        evidence.passed = prev.func_ok;
        evidence.compile_failed = !prev.syntax_ok;
        evidence.lint_triaged = prev.triaged;
        evidence.proven_inequiv = prev.proved && !prev.func_ok;
        evidence.sim_mismatch = prev.simulated && !prev.func_ok;
        evidence.findings = &prev.findings;
        evidence.fail_reason = prev.fail_reason;
        repair::RepairHint hint;
        {
          Scope span(ctx.tracer, Fn::kRepairDistill);
          hint = feedback.distill(evidence);
        }
        const llm::AxisDamping damping = repair::damping_for(hint, policy.efficacy);
        ++rounds;
        const auto round = static_cast<std::uint64_t>(rounds);
        util::Rng round_rng(unit_seed ^ (0x8bb84b93962eacc9ULL * round));
        Scope round_span(ctx.tracer, Fn::kRound);
        unit.passes.push_back(run_pass(ctx, task, tc, temperature, round_rng, &damping));
      }
      unit.rounds = rounds;
    }
    // The verdict is the first passing pass, else the last.
    std::size_t verdict = unit.passes.size() - 1;
    for (std::size_t p = 0; p < unit.passes.size(); ++p) {
      if (unit.passes[p].func_ok) {
        verdict = p;
        break;
      }
    }
    unit.syntax_ok = unit.passes[verdict].syntax_ok;
    unit.func_ok = unit.passes[verdict].func_ok;
    unit.repaired = unit.func_ok && verdict >= 1;
  } catch (const std::exception&) {
    unit.faulted = true;
  }
  return unit;
}

// evaluate()'s lint reference profile for one task.
void prepare_lint(Tracer* tr, const eval::EvalTask& task, TaskCtx& tc) {
  {
    Scope s(tr, Fn::kVerilogParseGolden);
    tc.lint_golden = verilog::parse_source(task.golden_source);
  }
  if (!tc.lint_golden.ok() || tc.lint_golden.file.modules.empty()) return;
  const verilog::Module& gm = tc.lint_golden.file.modules.front();
  {
    Scope s(tr, Fn::kLintProfileFromGolden);
    lint::profile_from_golden(gm, &tc.lint_golden.file, &tc.profile);
  }
  const sim::StimulusSpec& stim = task.stimulus;
  tc.profile.sequential = stim.sequential;
  tc.profile.clock = stim.clock;
  tc.profile.reset = stim.reset;
  if (!stim.sequential) {
    int total_bits = 0;
    for (const auto& p : gm.ports) {
      if (p.dir == verilog::Dir::kOutput) continue;
      if (p.name == stim.clock || p.name == stim.reset) continue;
      total_bits += p.width();
    }
    tc.profile.exhaustive_comb = total_bits <= stim.max_exhaustive_bits && total_bits <= 20;
  }
  try {
    Scope s(tr, Fn::kSimElaborateGolden);
    (void)sim::elaborate(gm, &tc.lint_golden.file);
  } catch (const sim::ElabError&) {
    tc.profile.golden_elab_ok = false;
  }
  const llm::TaskSpec& spec = task.spec;
  if (spec.kind == llm::TaskKind::kCombExpr && spec.expr != nullptr &&
      !spec.comb_inputs.empty() && spec.comb_inputs.size() <= 20) {
    const logic::TruthTable tt =
        logic::TruthTable::from_expr(*spec.expr, spec.comb_inputs, spec.comb_output);
    lint::ReferenceProfile::OutputTruth truth;
    truth.port = spec.comb_output;
    const std::uint32_t rows = std::uint32_t{1} << spec.comb_inputs.size();
    for (std::uint32_t row = 0; row < rows; ++row) {
      const logic::Tri v = tt.row(row);
      truth.defined_zero |= v == logic::Tri::kFalse;
      truth.defined_one |= v == logic::Tri::kTrue;
    }
    tc.profile.truth.push_back(std::move(truth));
  }
  tc.lint_usable = true;
}

// evaluate()'s prove eligibility for one task.
void prepare_prove(Tracer* tr, const eval::EvalTask& task, bool lint, TaskCtx& tc) {
  const verilog::ParseOutput* golden = nullptr;
  if (lint && tc.lint_usable) {
    golden = &tc.lint_golden;
  } else if (!lint) {
    {
      Scope s(tr, Fn::kVerilogParseGolden);
      tc.prove_golden_own = verilog::parse_source(task.golden_source);
    }
    if (tc.prove_golden_own.ok() && !tc.prove_golden_own.file.modules.empty()) {
      golden = &tc.prove_golden_own;
    }
  }
  if (golden == nullptr) return;
  bool provable = false;
  {
    Scope s(tr, Fn::kProveGoldenProvable);
    provable = prove::golden_provable(golden->file.modules.front(), &golden->file,
                                      task.stimulus, prove::ProveOptions{0});
  }
  if (provable) tc.prove_golden = golden;
}

// evaluate()'s per-task preparation, in its order: RNG bases, lint
// profiles, cache seeds, prove eligibility.
void prepare_tasks(const JobCtx& ctx, std::vector<TaskCtx>& tasks) {
  const ReplayJob& job = *ctx.job;
  const eval::EvalRequest& req = job.request;
  const std::vector<eval::EvalTask>& suite = job.suite->tasks;
  Scope span(ctx.tracer, Fn::kPrepare);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    tasks[i].rng_base = mix_hash(req.seed, job.model->name() + "|" + suite[i].id);
  }
  if (ctx.lint) {
    for (std::size_t i = 0; i < suite.size(); ++i) prepare_lint(ctx.tracer, suite[i], tasks[i]);
  }
  if (ctx.caching) {
    const eval::CacheLintMode lint_mode = req.lint_triage ? eval::CacheLintMode::kTriage
                                          : ctx.lint      ? eval::CacheLintMode::kObserve
                                                          : eval::CacheLintMode::kOff;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      tasks[i].cache_seed = eval::task_cache_seed(suite[i], req.sim_step_budget, lint_mode,
                                                  req.prove, req.prove_budget, &req.repair);
    }
  }
  if (req.prove && req.sim_step_budget == 0) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].stimulus.step_budget != 0) continue;
      prepare_prove(ctx.tracer, suite[i], ctx.lint, tasks[i]);
    }
  }
}

// Time sim::elaborate and sim::compile alone on one design (root spans).
void isolate_design(Tracer* tracer, const verilog::Module& top,
                    const verilog::SourceFile* file) {
  try {
    sim::ElabDesign design;
    {
      Scope span(tracer, Fn::kSimElaborate);
      design = sim::elaborate(top, file);
    }
    Scope span(tracer, Fn::kSimCompile);
    (void)sim::compile(design);
  } catch (const sim::ElabError&) {
    // A candidate the elaborator rejects fails its diff test the same way.
  }
}

}  // namespace

Replayer::Replayer(Tracer* tracer, std::size_t threads) : tracer_(tracer) {
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

ReplayOutcome Replayer::run(const ReplayJob& job, bool isolate) {
  const eval::EvalRequest& req = job.request;
  JobCtx ctx;
  ctx.job = &job;
  ctx.tracer = tracer_;
  ctx.lint = req.lint || req.lint_triage;
  ctx.caching = req.cache != nullptr;
  ctx.prove_opts.node_budget = req.prove_budget;
  std::vector<TaskCtx> tasks(job.suite->tasks.size());
  ctx.tasks = &tasks;

  const std::size_t n_tasks = tasks.size();
  const std::size_t n_samples = req.n_samples > 0 ? static_cast<std::size_t>(req.n_samples) : 0;
  const std::size_t total = req.temperatures.size() * n_tasks * n_samples;
  const std::uint32_t first_unit = next_unit_;
  next_unit_ += static_cast<std::uint32_t>(total);

  const Clock::time_point start = Clock::now();
  Tracer::set_unit(0);
  prepare_tasks(ctx, tasks);
  auto unit_at = [&](std::size_t i) {
    const std::size_t ti = i / (n_tasks * n_samples);
    const std::size_t rest = i % (n_tasks * n_samples);
    return run_unit(ctx, rest / n_samples, static_cast<int>(rest % n_samples),
                    req.temperatures[ti], first_unit + static_cast<std::uint32_t>(i));
  };
  std::vector<Unit> units(total);
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < total; ++i) units[i] = unit_at(i);
  } else {
    std::vector<std::future<Unit>> futures;
    futures.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      futures.push_back(pool_->submit([&unit_at, i] { return unit_at(i); }));
    }
    for (std::size_t i = 0; i < total; ++i) units[i] = futures[i].get();
  }
  ReplayOutcome out;
  out.wall_s = seconds_since(start);

  // Reduce exactly as evaluate() does: every pass lands in one bucket, the
  // reported temperature is the first with the best pass@1.
  std::set<std::pair<std::size_t, std::uint64_t>> distinct;
  std::vector<eval::SuiteResult> per_temp(req.temperatures.size());
  for (std::size_t ti = 0; ti < per_temp.size(); ++ti) {
    eval::SuiteResult& r = per_temp[ti];
    r.suite_name = job.suite->name;
    r.model_name = job.model->name();
    r.temperature = req.temperatures[ti];
    for (const eval::EvalTask& task : job.suite->tasks) {
      eval::TaskResult t;
      t.task_id = task.id;
      t.modality = task.modality;
      t.n = req.n_samples;
      r.per_task.push_back(t);
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    const Unit& u = units[i];
    const std::size_t ti = i / (n_tasks * n_samples);
    const std::size_t task_i = (i % (n_tasks * n_samples)) / n_samples;
    ++out.ledger.candidates;
    if (u.faulted) {
      ++out.ledger.unit_faults;
      continue;
    }
    per_temp[ti].per_task[task_i].syntax_pass += u.syntax_ok;
    per_temp[ti].per_task[task_i].func_pass += u.func_ok;
    out.ledger.repair_rounds += u.rounds;
    out.ledger.repaired += u.repaired;
    for (const Pass& p : u.passes) {
      ++out.generations;
      distinct.insert({task_i, cache::fnv1a(p.source)});
      if (p.cache_hit) {
        ++out.ledger.cache_hits;
        continue;
      }
      if (ctx.caching) ++out.ledger.cache_misses;
      out.ledger.compile_failures += !p.syntax_ok;
      out.ledger.lint_triaged += p.triaged;
      out.ledger.prove_decided += p.proved;
      out.ledger.prove_fallback += p.prove_fallback;
      out.ledger.simulated += p.simulated;
      out.ledger.sim_vectors += p.sim_vectors;
      out.sim_ns += p.sim_ns;
    }
  }
  out.distinct_sources = static_cast<std::int64_t>(distinct.size());
  std::size_t best = 0;
  for (std::size_t ti = 1; ti < per_temp.size(); ++ti) {
    if (per_temp[ti].pass_at(1) > per_temp[best].pass_at(1)) best = ti;
  }
  if (!per_temp.empty()) out.digest = serve::verdict_digest(per_temp[best]);

  if (isolate && tracer_ != nullptr) {
    // Golden and candidate of every simulated pass, parsed untimed, then
    // elaborated and compiled under their own spans.
    std::vector<verilog::ParseOutput> goldens(n_tasks);
    for (std::size_t t = 0; t < n_tasks; ++t) {
      goldens[t] = verilog::parse_source(job.suite->tasks[t].golden_source);
    }
    auto isolate_unit = [&](std::size_t i) {
      const std::size_t task_i = (i % (n_tasks * n_samples)) / n_samples;
      Tracer::set_unit(first_unit + static_cast<std::uint32_t>(i));
      for (const Pass& p : units[i].passes) {
        if (!p.simulated || p.cache_hit) continue;
        const verilog::ParseOutput cand = verilog::parse_source(p.source);
        if (cand.ok() && !cand.file.modules.empty()) {
          isolate_design(tracer_, cand.file.modules.front(), &cand.file);
        }
        const verilog::ParseOutput& g = goldens[task_i];
        if (g.ok() && !g.file.modules.empty()) {
          isolate_design(tracer_, g.file.modules.front(), &g.file);
        }
      }
    };
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < total; ++i) isolate_unit(i);
    } else {
      std::vector<std::future<void>> futures;
      futures.reserve(total);
      for (std::size_t i = 0; i < total; ++i) {
        futures.push_back(pool_->submit([&isolate_unit, i] { isolate_unit(i); }));
      }
      for (auto& f : futures) f.get();
    }
  }
  return out;
}

}  // namespace haven::perfbench
