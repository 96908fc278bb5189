#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "eval/engine.h"
#include "eval/report.h"
#include "eval/suites.h"
#include "eval/task.h"
#include "llm/model_zoo.h"
#include "util/thread_pool.h"

namespace haven::eval {
namespace {

Suite small_rtllm(std::size_t n_tasks) {
  Suite suite = build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

void expect_same_result(const SuiteResult& a, const SuiteResult& b) {
  EXPECT_EQ(a.suite_name, b.suite_name);
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_DOUBLE_EQ(a.temperature, b.temperature);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].task_id, b.per_task[i].task_id);
    EXPECT_EQ(a.per_task[i].n, b.per_task[i].n);
    EXPECT_EQ(a.per_task[i].syntax_pass, b.per_task[i].syntax_pass);
    EXPECT_EQ(a.per_task[i].func_pass, b.per_task[i].func_pass);
  }
}

// The determinism contract: thread count changes wall-clock, never results.
TEST(EvalEngine, SerialAndParallelRunsAreBitIdentical) {
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const Suite suite = small_rtllm(10);

  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};

  EvalRequest serial = request;
  serial.threads = 1;
  EvalRequest parallel = request;
  parallel.threads = 8;

  const SuiteResult a = EvalEngine(serial).evaluate(model, suite);
  const SuiteResult b = EvalEngine(parallel).evaluate(model, suite);
  expect_same_result(a, b);
  // Deterministic counters match too; only the timing fields may differ.
  EXPECT_EQ(a.counters.candidates, b.counters.candidates);
  EXPECT_EQ(a.counters.compile_failures, b.counters.compile_failures);
  EXPECT_EQ(a.counters.sim_mismatches, b.counters.sim_mismatches);
  EXPECT_EQ(a.counters.sicot_refinements, b.counters.sicot_refinements);
  EXPECT_EQ(a.counters.threads_used, 1);
  EXPECT_EQ(b.counters.threads_used, 8);
}

// An external (shared) worker pool is a pure scheduling knob: results are
// bit-identical to an engine-owned pool and to the serial path. This is the
// seam the haven::serve daemon runs every evaluation through.
TEST(EvalEngine, ExternalPoolIsBitIdenticalToOwnedPool) {
  const llm::SimLlm model = llm::make_model("CodeQwen");
  const Suite suite = small_rtllm(8);

  const EvalRequest request = EvalRequest{}.with_samples(3).with_temperatures({0.2, 0.5});
  const SuiteResult serial =
      EvalEngine(EvalRequest(request).with_threads(1)).evaluate(model, suite);

  util::ThreadPool shared_pool(4);
  const SuiteResult pooled =
      EvalEngine(EvalRequest(request).with_pool(&shared_pool)).evaluate(model, suite);

  expect_same_result(serial, pooled);
  EXPECT_EQ(pooled.counters.threads_used, 4);
  // The pool survives the evaluation and can host another run (the serve
  // daemon reuses one pool for its whole lifetime).
  const SuiteResult again =
      EvalEngine(EvalRequest(request).with_pool(&shared_pool)).evaluate(model, suite);
  expect_same_result(serial, again);
}

TEST(EvalEngine, CountersAreConsistentWithTallies) {
  const llm::SimLlm model = llm::make_model("CodeLlama");
  const Suite suite = small_rtllm(8);

  EvalRequest request;
  request.n_samples = 3;
  request.temperatures = {0.2};  // single temperature: counters == best run
  request.threads = 1;
  const SuiteResult result = EvalEngine(request).evaluate(model, suite);

  const std::int64_t expected_candidates =
      static_cast<std::int64_t>(suite.tasks.size()) * 3;
  EXPECT_EQ(result.counters.candidates, expected_candidates);

  std::int64_t syntax_pass = 0, func_pass = 0;
  for (const auto& task : result.per_task) {
    syntax_pass += task.syntax_pass;
    func_pass += task.func_pass;
  }
  EXPECT_EQ(result.counters.compile_failures, expected_candidates - syntax_pass);
  EXPECT_EQ(result.counters.sim_mismatches, syntax_pass - func_pass);
  EXPECT_EQ(result.counters.sicot_refinements, 0);  // SI-CoT disabled
  EXPECT_GT(result.counters.wall_seconds, 0.0);
  EXPECT_GE(result.counters.generate_seconds, 0.0);
  EXPECT_GT(result.counters.compile_seconds, 0.0);
  EXPECT_EQ(result.counters.threads_used, 1);
  EXPECT_FALSE(summarize(result.counters).empty());
}

TEST(EvalEngine, ProgressCallbackCoversEveryUnitInIndexOrder) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite suite = small_rtllm(3);

  std::vector<EvalProgress> seen;
  EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = 4;  // parallel execution must not reorder the stream
  request.on_progress = [&seen](const EvalProgress& p) {
    seen.push_back(EvalProgress{p.completed, p.total, p.temperature, p.task_id, p.sample});
  };
  EvalEngine(request).evaluate(model, suite);

  const std::size_t total = 2 * 3 * 2;  // temps * tasks * samples
  ASSERT_EQ(seen.size(), total);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].completed, i + 1);
    EXPECT_EQ(seen[i].total, total);
  }
  // Temperature-major order: first half at 0.2, second half at 0.8.
  EXPECT_DOUBLE_EQ(seen.front().temperature, 0.2);
  EXPECT_DOUBLE_EQ(seen[total / 2].temperature, 0.8);
  EXPECT_EQ(seen[0].sample, 0);
  EXPECT_EQ(seen[1].sample, 1);
}

// A task whose golden does not parse faults each of its units that reaches
// simulation, under every knob, and leaves the other tasks' tallies as they
// are on the unmodified suite.
TEST(EvalEngine, UnparsableGoldenFaultsOnlyItsOwnUnits) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite clean = small_rtllm(3);
  Suite broken = clean;
  broken.tasks[1].golden_source = "module broken(input a; endmodule (";

  enum class Knob { kDefault, kLint, kProve, kCache, kRepair };
  auto run = [&](Knob knob, const Suite& suite) {
    cache::ResultCache cache{cache::CacheConfig{}};
    EvalRequest request = EvalRequest{}.with_samples(4).with_temperature(0.2);
    if (knob == Knob::kLint) request.with_lint();
    if (knob == Knob::kProve) request.with_prove();
    if (knob == Knob::kCache) request.with_cache(&cache);
    if (knob == Knob::kRepair) request.with_repair_rounds(2);
    return EvalEngine(request).evaluate(model, suite);
  };
  for (Knob knob : {Knob::kDefault, Knob::kLint, Knob::kProve, Knob::kCache, Knob::kRepair}) {
    SCOPED_TRACE(static_cast<int>(knob));
    const SuiteResult want = run(knob, clean);
    const SuiteResult got = run(knob, broken);
    // Every GPT-4 sample of the task compiles, so each one faults.
    ASSERT_EQ(got.faults.size(), 4u);
    for (const UnitFault& fault : got.faults) {
      EXPECT_EQ(fault.task_id, broken.tasks[1].id);
      EXPECT_EQ(fault.kind, FaultKind::kException);
      EXPECT_EQ(fault.what, "golden source does not parse");
    }
    EXPECT_EQ(got.counters.unit_faults, 4);
    EXPECT_EQ(got.per_task[1].syntax_pass, 0);
    EXPECT_EQ(got.per_task[1].func_pass, 0);
    for (std::size_t t : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_EQ(got.per_task[t].syntax_pass, want.per_task[t].syntax_pass);
      EXPECT_EQ(got.per_task[t].func_pass, want.per_task[t].func_pass);
    }
    // Without repair, a candidate of the broken task that fails to compile
    // is a compile failure in both runs; one that compiles faults instead
    // of simulating. (Repair rounds of a faulted unit are discarded.)
    if (knob != Knob::kRepair) {
      EXPECT_EQ(got.counters.compile_failures, want.counters.compile_failures);
    }
    EXPECT_TRUE(counters_consistent(got.counters)) << counters_inconsistency(got.counters);
  }
}

// A golden that parses, with ports the candidates match, but that the
// elaborator rejects: each compiled candidate of its task faults with the
// golden's elaboration error, under every knob, and the other tasks keep
// their tallies.
TEST(EvalEngine, UnelaborableGoldenFaultsOnlyItsOwnUnits) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const Suite clean = small_rtllm(3);
  Suite broken = clean;
  std::string& golden = broken.tasks[1].golden_source;
  golden.insert(golden.rfind("endmodule"), "  wire [99:0] big;\n");

  enum class Knob { kDefault, kLint, kProve, kCache, kRepair };
  auto run = [&](Knob knob, const Suite& suite) {
    cache::ResultCache cache{cache::CacheConfig{}};
    EvalRequest request = EvalRequest{}.with_samples(4).with_temperature(0.2);
    if (knob == Knob::kLint) request.with_lint();
    if (knob == Knob::kProve) request.with_prove();
    if (knob == Knob::kCache) request.with_cache(&cache);
    if (knob == Knob::kRepair) request.with_repair_rounds(2);
    return EvalEngine(request).evaluate(model, suite);
  };
  for (Knob knob : {Knob::kDefault, Knob::kLint, Knob::kProve, Knob::kCache, Knob::kRepair}) {
    SCOPED_TRACE(static_cast<int>(knob));
    const SuiteResult want = run(knob, clean);
    const SuiteResult got = run(knob, broken);
    ASSERT_EQ(got.faults.size(), 4u);
    for (const UnitFault& fault : got.faults) {
      EXPECT_EQ(fault.task_id, broken.tasks[1].id);
      EXPECT_EQ(fault.kind, FaultKind::kException);
      EXPECT_EQ(fault.what, "golden elaboration failed: signal 'big' has unsupported width 100");
    }
    EXPECT_EQ(got.counters.unit_faults, 4);
    EXPECT_EQ(got.per_task[1].syntax_pass, 0);
    EXPECT_EQ(got.per_task[1].func_pass, 0);
    for (std::size_t t : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_EQ(got.per_task[t].syntax_pass, want.per_task[t].syntax_pass);
      EXPECT_EQ(got.per_task[t].func_pass, want.per_task[t].func_pass);
    }
    if (knob != Knob::kRepair) {
      EXPECT_EQ(got.counters.compile_failures, want.counters.compile_failures);
    }
    EXPECT_TRUE(counters_consistent(got.counters)) << counters_inconsistency(got.counters);
  }
}

// A candidate whose ports differ from the golden's fails before either
// design is built, and counts under the stage that would have judged it: a
// proof on a prove-eligible task, a simulation of no vectors otherwise.
TEST(EvalEngine, PortMismatchCountsUnderTheDecidingStage) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  // Three prove-eligible symbolic tasks and three RTLLM ones.
  Suite suite = build_symbolic44();
  suite.tasks.resize(3);
  const Suite rtllm = small_rtllm(3);
  suite.tasks.insert(suite.tasks.end(), rtllm.tasks.begin(), rtllm.tasks.end());
  for (EvalTask& task : suite.tasks) {
    std::string& golden = task.golden_source;
    golden.insert(golden.find('(') + 1, "input wire spare_in, ");
  }
  for (const bool prove : {false, true}) {
    SCOPED_TRACE(prove);
    EvalRequest request = EvalRequest{}.with_samples(4).with_temperature(0.2);
    if (prove) request.with_prove();
    const EvalCounters c = EvalEngine(request).evaluate(model, suite).counters;
    const std::int64_t compiled = c.candidates - c.compile_failures;
    EXPECT_EQ(c.unit_faults, 0);
    EXPECT_EQ(c.sim_mismatches, compiled);
    EXPECT_EQ(c.sim_vectors, 0);
    EXPECT_EQ(c.proven_equiv + c.prove_fallback, 0);
    EXPECT_EQ(c.simulated + c.proven_inequiv, compiled);
    if (prove) {
      EXPECT_GT(c.proven_inequiv, 0);
    } else {
      EXPECT_EQ(c.proven_inequiv, 0);
    }
    EXPECT_TRUE(counters_consistent(c)) << counters_inconsistency(c);
  }
}

// A verdict that read the testbench stream is never replayed for a repeated
// source. The perfect model emits one source for every sample, and each
// golden below differs from it on one rare input pattern, so whether a
// sample fails depends on whether its stream draws that pattern: some
// samples must pass and some fail, on a random-vector task and on a
// sequential one, at any thread count.
TEST(EvalEngine, StreamDependentVerdictsAreNotShared) {
  const llm::SimLlm model("perfect", llm::HallucinationProfile{}.scaled(0.0));
  util::Rng rng(1);
  llm::TaskSpec adder_spec;
  adder_spec.kind = llm::TaskKind::kAdder;
  adder_spec.width = 8;
  llm::TaskSpec register_spec;
  register_spec.kind = llm::TaskKind::kRegister;
  register_spec.width = 8;
  Suite suite;
  suite.name = "rare-mismatch";
  suite.tasks.push_back(make_task("adder8", adder_spec, llm::PromptStyle::kEngineer, rng));
  suite.tasks.push_back(make_task("reg8", register_spec, llm::PromptStyle::kEngineer, rng));
  auto replace = [](std::string& text, const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, from.size(), to);
  };
  // 17 input bits: 192 random vectors, each a 1-in-256 chance to hit a = A5.
  replace(suite.tasks[0].golden_source, "(({1'b0, a} + b) + cin)",
          "(a == 8'hA5) ? 9'd0 : (({1'b0, a} + b) + cin)");
  replace(suite.tasks[1].golden_source, "q <= d;", "q <= (d[6:0] == 7'h25) ? 8'd0 : d;");
  ASSERT_FALSE(suite.tasks[0].stimulus.sequential);
  ASSERT_TRUE(suite.tasks[1].stimulus.sequential);

  constexpr int kSamples = 12;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const SuiteResult result =
        EvalEngine(
            EvalRequest{}.with_samples(kSamples).with_temperature(0.2).with_threads(threads))
            .evaluate(model, suite);
    for (const TaskResult& task : result.per_task) {
      SCOPED_TRACE(task.task_id);
      EXPECT_EQ(task.syntax_pass, kSamples);
      EXPECT_GT(task.func_pass, 0);
      EXPECT_LT(task.func_pass, kSamples);
    }
    EXPECT_TRUE(counters_consistent(result.counters))
        << counters_inconsistency(result.counters);
  }
}

TEST(EvalRequest, CotModelAccessorIsOptionalStyle) {
  EvalRequest request;
  EXPECT_FALSE(request.has_cot_model());
  EXPECT_EQ(request.cot_model_ptr(), nullptr);
  EXPECT_THROW(request.cot_model(), std::logic_error);

  const llm::SimLlm model = llm::make_model("GPT-4");
  request.set_cot_model(model);
  EXPECT_TRUE(request.has_cot_model());
  EXPECT_EQ(&request.cot_model(), &model);
  EXPECT_EQ(request.cot_model_ptr(), &model);

  request.clear_cot_model();
  EXPECT_FALSE(request.has_cot_model());
}

TEST(EvalEngine, EmptySuiteAndEmptyTemperaturesAreSafe) {
  const llm::SimLlm model = llm::make_model("GPT-4");

  Suite empty_suite;
  empty_suite.name = "empty";
  EvalRequest request;
  request.n_samples = 2;
  request.threads = 8;
  const SuiteResult no_tasks = EvalEngine(request).evaluate(model, empty_suite);
  EXPECT_TRUE(no_tasks.per_task.empty());
  EXPECT_EQ(no_tasks.counters.candidates, 0);
  EXPECT_DOUBLE_EQ(no_tasks.pass_at(1), 0.0);

  EvalRequest no_temps;
  no_temps.temperatures = {};
  const SuiteResult no_temp_result = EvalEngine(no_temps).evaluate(model, small_rtllm(2));
  EXPECT_TRUE(no_temp_result.per_task.empty());
  EXPECT_EQ(no_temp_result.counters.candidates, 0);
  EXPECT_EQ(no_temp_result.suite_name, "RTLLM-v1.1");
}

// Regression for the modality_pass rounding fix: three tasks contributing
// 1/3 + 1/12 + 1/12 tally to 0.49999999999999994; the old
// static_cast<int>(passed + 0.5) double-rounded this up to 1, std::lround
// correctly reports 0 expected passes.
TEST(SuiteResult, ModalityPassRoundsFractionalTalliesCorrectly) {
  SuiteResult result;
  auto add_task = [&result](int n, int c) {
    TaskResult tr;
    tr.task_id = "t" + std::to_string(result.per_task.size());
    tr.modality = symbolic::Modality::kTruthTable;
    tr.n = n;
    tr.func_pass = c;
    result.per_task.push_back(tr);
  };
  add_task(3, 1);
  add_task(12, 1);
  add_task(12, 1);
  const auto [passed, total] = result.modality_pass(symbolic::Modality::kTruthTable);
  EXPECT_EQ(passed, 0);
  EXPECT_EQ(total, 3);

  // Plain fractional tally still rounds to nearest: 0.3 + 0.3 + 0.5 -> 1.
  result.per_task.clear();
  add_task(10, 3);
  add_task(10, 3);
  add_task(10, 5);
  const auto [passed2, total2] = result.modality_pass(symbolic::Modality::kTruthTable);
  EXPECT_EQ(passed2, 1);
  EXPECT_EQ(total2, 3);
}

}  // namespace
}  // namespace haven::eval
