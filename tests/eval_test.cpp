#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "eval/engine.h"
#include "eval/options.h"
#include "eval/passk.h"
#include "eval/report.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "verilog/analyzer.h"

namespace haven::eval {
namespace {

// --- pass@k estimator -----------------------------------------------------------

TEST(PassK, MatchesClosedFormCases) {
  EXPECT_DOUBLE_EQ(pass_at_k(10, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(pass_at_k(10, 10, 1), 1.0);
  EXPECT_DOUBLE_EQ(pass_at_k(10, 10, 5), 1.0);
  EXPECT_NEAR(pass_at_k(10, 1, 1), 0.1, 1e-12);
  EXPECT_NEAR(pass_at_k(10, 5, 1), 0.5, 1e-12);
  // n=10, c=6, k=5: all 5 chosen from the 4 failures is impossible -> 1.0.
  EXPECT_DOUBLE_EQ(pass_at_k(10, 6, 5), 1.0);
  // n=10, c=1, k=5: 1 - C(9,5)/C(10,5) = 1 - 126/252 = 0.5.
  EXPECT_NEAR(pass_at_k(10, 1, 5), 0.5, 1e-12);
  // n=10, c=2, k=5: 1 - C(8,5)/C(10,5) = 1 - 56/252.
  EXPECT_NEAR(pass_at_k(10, 2, 5), 1.0 - 56.0 / 252.0, 1e-12);
}

TEST(PassK, InvalidArgumentsThrow) {
  EXPECT_THROW(pass_at_k(5, 0, 6), std::invalid_argument);
  EXPECT_THROW(pass_at_k(5, 6, 1), std::invalid_argument);
  EXPECT_THROW(pass_at_k(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(pass_at_k(5, -1, 1), std::invalid_argument);
}

TEST(PassK, MonotoneInKAndC) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_LE(pass_at_k(10, c, 1), pass_at_k(10, c, 5) + 1e-12);
  }
  for (int c = 1; c <= 10; ++c) {
    EXPECT_LE(pass_at_k(10, c - 1, 3), pass_at_k(10, c, 3) + 1e-12);
  }
}

TEST(PassK, MeanAveragesOverTasks) {
  EXPECT_NEAR(mean_pass_at_k({{10, 10}, {10, 0}}, 1), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(mean_pass_at_k({}, 1), 0.0);
}

// --- suites -----------------------------------------------------------------------

TEST(Suites, SizesMatchPaperBenchmarks) {
  EXPECT_EQ(build_verilogeval_machine().tasks.size(), 143u);
  EXPECT_EQ(build_verilogeval_human().tasks.size(), 156u);
  EXPECT_EQ(build_verilogeval_v2().tasks.size(), 156u);
  EXPECT_EQ(build_rtllm().tasks.size(), 29u);
  EXPECT_EQ(build_symbolic44().tasks.size(), 44u);
}

TEST(Suites, Symbolic44HasPaperModalityCounts) {
  const Suite suite = build_symbolic44();
  int tt = 0, wf = 0, sd = 0;
  for (const auto& task : suite.tasks) {
    tt += task.modality == symbolic::Modality::kTruthTable;
    wf += task.modality == symbolic::Modality::kWaveform;
    sd += task.modality == symbolic::Modality::kStateDiagram;
  }
  EXPECT_EQ(tt, 10);
  EXPECT_EQ(wf, 13);
  EXPECT_EQ(sd, 21);
}

TEST(Suites, BuildersAreDeterministic) {
  const Suite a = build_verilogeval_human();
  const Suite b = build_verilogeval_human();
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].prompt, b.tasks[i].prompt);
    EXPECT_EQ(a.tasks[i].golden_source, b.tasks[i].golden_source);
  }
}

TEST(Suites, GoldenSourcesCompile) {
  for (const Suite& suite : {build_verilogeval_machine(), build_verilogeval_human(),
                             build_rtllm()}) {
    for (const auto& task : suite.tasks) {
      EXPECT_TRUE(verilog::compile_ok(task.golden_source)) << suite.name << "/" << task.id;
    }
  }
}

TEST(Suites, MachineIsProseOnly) {
  for (const auto& task : build_verilogeval_machine().tasks) {
    EXPECT_EQ(task.modality, symbolic::Modality::kNone) << task.id;
  }
}

TEST(Suites, V2UsesChatFraming) {
  for (const auto& task : build_verilogeval_v2().tasks) {
    EXPECT_NE(task.prompt.find("Question:"), std::string::npos);
    EXPECT_NE(task.prompt.find("Answer:"), std::string::npos);
  }
}

TEST(Suites, SequentialTasksCarryResetProtocol) {
  for (const auto& task : build_verilogeval_human().tasks) {
    if (!task.spec.sequential()) continue;
    EXPECT_TRUE(task.stimulus.sequential);
    EXPECT_FALSE(task.stimulus.reset.empty()) << task.id;
  }
}

// --- engine -----------------------------------------------------------------------

TEST(Engine, PerfectModelScoresFullMarks) {
  llm::HallucinationProfile zero;
  const llm::SimLlm model("Perfect", zero.scaled(0.0));
  const EvalEngine engine(EvalRequest{}.with_samples(2).with_temperature(0.2));
  const SuiteResult result = engine.evaluate(model, build_rtllm());
  EXPECT_DOUBLE_EQ(result.pass_at(1), 1.0);
  EXPECT_DOUBLE_EQ(result.syntax_pass_at(1), 1.0);
}

TEST(Engine, IsDeterministicAcrossRuns) {
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const EvalEngine engine(EvalRequest{}.with_samples(3).with_temperature(0.2));
  const Suite suite = build_rtllm();
  const SuiteResult a = engine.evaluate(model, suite);
  const SuiteResult b = engine.evaluate(model, suite);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].func_pass, b.per_task[i].func_pass);
    EXPECT_EQ(a.per_task[i].syntax_pass, b.per_task[i].syntax_pass);
  }
}

TEST(Engine, FuncPassImpliesSyntaxPass) {
  const llm::SimLlm model = llm::make_model("GPT-3.5");
  const EvalEngine engine(EvalRequest{}.with_samples(4).with_temperature(0.2));
  const SuiteResult result = engine.evaluate(model, build_rtllm());
  for (const auto& task : result.per_task) {
    EXPECT_LE(task.func_pass, task.syntax_pass);
    EXPECT_LE(task.syntax_pass, task.n);
  }
}

TEST(Engine, StrongerModelBeatsWeakerOnAverage) {
  const EvalEngine engine(EvalRequest{}.with_samples(4).with_temperature(0.2));
  const Suite human = build_verilogeval_human();
  const SuiteResult strong = engine.evaluate(llm::make_model("OriGen-DeepSeek"), human);
  const SuiteResult weak = engine.evaluate(llm::make_model("CodeLlama"), human);
  EXPECT_GT(strong.pass_at(1), weak.pass_at(1));
}

// --- flag grammar ---------------------------------------------------------------------

RequestOptions parse_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return RequestOptions::parse(static_cast<int>(argv.size()), argv.data());
}

// Malformed numbers are usage errors (exit 2), never a silent zero or the
// value's numeric prefix.
TEST(RequestOptionsDeathTest, MalformedNumbersExitTwo) {
  for (const char* flag : {"--n=abc", "--prove-budget=1e6", "--repair-efficacy=abc",
                           "--seed=0x10", "--temps=0.2,x", "--cache-mb=1e3", "--inject=5%",
                           "--inject=5", "--threads=four", "--deadline-ms=1.5",
                           "--sim-budget=-1", "--repair-rounds=2x", "--retries=-2",
                           "--deadline-ms=-5", "--cache-mb= -1", "--seed= 5"}) {
    const std::string arg = flag;
    EXPECT_EXIT(parse_flags({arg}), ::testing::ExitedWithCode(2),
                arg.substr(0, arg.find('=')) + " wants")
        << arg;
  }
}

TEST(RequestOptions, WellFormedNumbersParse) {
  const RequestOptions o = parse_flags(
      {"--n=3", "--temps=0.2, 0.5", "--seed=7", "--threads=4", "--deadline-ms=50",
       "--retries=2", "--sim-budget=1000", "--inject=0.3", "--inject-seed=9",
       "--prove-budget=64", "--repair-rounds=2", "--repair-budget=3", "--repair-efficacy=0.5",
       "--cache-mb=64"});
  EXPECT_EQ(o.req.n_samples, 3);
  EXPECT_EQ(o.req.temperatures, (std::vector<double>{0.2, 0.5}));
  EXPECT_EQ(o.req.seed, 7u);
  EXPECT_EQ(o.req.threads, 4);
  EXPECT_EQ(o.req.deadline_ms, 50);
  EXPECT_EQ(o.req.retry.max_retries, 2);
  EXPECT_EQ(o.req.sim_step_budget, 1000u);
  EXPECT_DOUBLE_EQ(o.inject, 0.3);
  EXPECT_EQ(o.inject_seed, 9u);
  EXPECT_EQ(o.req.prove_budget, 64u);
  EXPECT_EQ(o.req.repair.max_rounds, 2);
  EXPECT_EQ(o.req.repair.attempt_budget, 3);
  EXPECT_DOUBLE_EQ(o.req.repair.efficacy, 0.5);
  EXPECT_EQ(o.cache_mb, 64u);
}

// Every field a request knob writes, for comparing two requests.
auto knob_fields(const EvalRequest& r) {
  return std::make_tuple(r.n_samples, r.temperatures, r.seed, r.use_sicot, r.deadline_ms,
                         r.sim_step_budget, r.retry.max_retries, r.lint, r.lint_triage,
                         r.prove, r.prove_budget, r.repair.max_rounds,
                         r.repair.attempt_budget, r.repair.efficacy);
}

// One grammar, two surfaces: for every value row with a serve key, the
// command line and the serve line protocol accept the same values, set the
// same request from them, and reject the same values.
TEST(RequestOptionsDeathTest, ServeKnobsTakeWhatTheirFlagsTake) {
  struct Row {
    const char* flag;
    const char* knob;
    std::vector<std::string> good;
    std::vector<std::string> bad;
  };
  const std::vector<Row> rows = {
      {"--n", "n", {"1", "3", "2147483647"}, {"0", "-3", "abc", "", "1.5", "2147483648"}},
      {"--temps", "temps", {"0.2", "0.2, 0.8", ",0.5,"}, {"", "x", "0.2,y", ","}},
      {"--seed", "seed", {"0", "7", "18446744073709551615"}, {"-1", "12z", "0x10", ""}},
      {"--deadline-ms", "unit-deadline", {"0", "50"}, {"-5", "1.5", "x"}},
      {"--sim-budget", "budget", {"0", "1000"}, {"-1", "1e3"}},
      {"--retries", "retries", {"0", "2"}, {"-2", "two"}},
      {"--prove-budget", "prove-budget", {"0", "64"}, {"-1", "lots", "1e6"}},
      {"--repair-rounds", "repair-rounds", {"0", "3"}, {"-1", "x", "2x"}},
      {"--repair-budget", "repair-budget", {"0", "2"}, {"-1", "1.5"}},
      {"--repair-efficacy", "repair-efficacy", {"0", "0.5", "1"},
       {"1.5", "-0.1", "abc", "nan"}},
  };
  for (const Row& row : rows) {
    for (const std::string& v : row.good) {
      EvalRequest served;
      std::string error;
      ASSERT_TRUE(apply_knob(served, row.knob, v, &error))
          << row.knob << "=" << v << ": " << error;
      EXPECT_EQ(knob_fields(served),
                knob_fields(parse_flags({std::string(row.flag) + "=" + v}).request()))
          << row.flag << "=" << v;
    }
    for (const std::string& v : row.bad) {
      EvalRequest served;
      std::string error;
      EXPECT_FALSE(apply_knob(served, row.knob, v, &error)) << row.knob << "=" << v;
      EXPECT_EQ(error.rfind(std::string("knob '") + row.knob + "' wants ", 0), 0u) << error;
      EXPECT_EQ(knob_fields(served), knob_fields(EvalRequest{})) << "rejected value applied";
      EXPECT_EXIT(parse_flags({std::string(row.flag) + "=" + v}), ::testing::ExitedWithCode(2),
                  std::string(row.flag) + " wants")
          << row.flag << "=" << v;
    }
  }
}

// A boolean row is bare on the command line and takes 0|1 as a serve knob.
TEST(RequestOptions, BooleanKnobsTakeZeroOrOne) {
  const std::vector<std::pair<const char*, const char*>> rows = {
      {"--sicot", "sicot"},
      {"--lint", "lint"},
      {"--lint-triage", "triage"},
      {"--prove", "prove"},
  };
  for (const auto& [flag, knob] : rows) {
    EvalRequest on, off;
    std::string error;
    ASSERT_TRUE(apply_knob(on, knob, "1", &error)) << error;
    ASSERT_TRUE(apply_knob(off, knob, "0", &error)) << error;
    EXPECT_EQ(knob_fields(on), knob_fields(parse_flags({flag}).request())) << flag;
    EXPECT_EQ(knob_fields(off), knob_fields(EvalRequest{})) << knob;
    for (const char* bad : {"2", "-1", "yes", ""}) {
      EXPECT_FALSE(apply_knob(off, knob, bad, &error)) << knob << "=" << bad;
      EXPECT_NE(error.find("wants 0 or 1"), std::string::npos) << error;
    }
  }
  std::string error;
  EvalRequest r;
  EXPECT_FALSE(apply_knob(r, "threads", "4", &error));  // command line only
  EXPECT_EQ(error, "unknown knob 'threads'");
}

// Flags deleted from the grammar are unknown, not silently accepted.
TEST(RequestOptionsDeathTest, DeletedFlagsAreUnknown) {
  for (const char* flag : {"--fail-fast", "--sim-backend=interp", "--no-prove", "--no-cache"}) {
    EXPECT_EXIT(parse_flags({flag}), ::testing::ExitedWithCode(2), "unknown flag") << flag;
  }
}

// --- report helpers ------------------------------------------------------------------

TEST(Report, FormatsPercentagesAndPassTotals) {
  EXPECT_EQ(pct(0.7731), "77.3");
  EXPECT_EQ(pct(0.0), "0.0");
  EXPECT_EQ(pass_total({6, 10}), "6/10(60.0%)");
  EXPECT_EQ(pass_total({0, 0}), "0/0(0.0%)");
}

}  // namespace
}  // namespace haven::eval
