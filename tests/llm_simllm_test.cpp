#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/suites.h"
#include "eval/task.h"
#include "llm/codegen.h"
#include "llm/instruction.h"
#include "llm/model_zoo.h"
#include "llm/simllm.h"
#include "sim/testbench.h"
#include "verilog/analyzer.h"

namespace haven::llm {
namespace {

std::string counter_prompt() {
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  return render_instruction(spec, {});
}

TEST(SimLlm, ZeroProfileIsPerfect) {
  HallucinationProfile zero;
  zero = zero.scaled(0.0);
  const SimLlm model("Perfect", zero);
  util::Rng rng(1);
  GenerationConfig config;
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  const std::string out = model.generate(counter_prompt(), config, rng);
  EXPECT_EQ(out, generate_source(spec));
}

TEST(SimLlm, AlwaysEmitsSomething) {
  const SimLlm model = make_model("GPT-3.5");
  util::Rng rng(2);
  GenerationConfig config;
  for (const char* prompt : {"", "total nonsense", "Design a 4-bit up counter with output "
                                                   "'q'. Use synchronous active-high reset "
                                                   "'rst'."}) {
    const std::string out = model.generate(prompt, config, rng);
    EXPECT_FALSE(out.empty());
    EXPECT_NE(out.find("module"), std::string::npos);
  }
}

TEST(SimLlm, SystematicDrawsAreDeterministicPerPrompt) {
  const SimLlm model = make_model("CodeQwen");
  const std::string prompt = counter_prompt();
  // With temperature 0 the stochastic part still exists; compare the
  // systematic axis decision across fresh rngs at stochastic-avoiding seeds:
  // run many rngs — if the axis is systematic for this prompt, every call
  // fires; otherwise firing tracks the (small) stochastic probability.
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    util::Rng rng(5000 + i);
    fired += model.draw_axis(HalluAxis::kKnowConvention, prompt, 0.4, 0.2, rng);
  }
  EXPECT_TRUE(fired == 100 || fired < 40) << fired;
}

TEST(SimLlm, FamilySharesSystematicDraws) {
  HallucinationProfile p;
  const SimLlm a("ModelA", p, "shared-family");
  const SimLlm b("ModelB", p, "shared-family");
  const SimLlm c("ModelC", p);  // own family
  int agree_ab = 0, agree_ac = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t key = 0x1234 + static_cast<std::uint64_t>(i) * 977;
    util::Rng r1(1), r2(1), r3(1);
    const bool fa = a.draw_axis(HalluAxis::kSymTruthTable, key, 0.4, 0.0, r1);
    const bool fb = b.draw_axis(HalluAxis::kSymTruthTable, key, 0.4, 0.0, r2);
    const bool fc = c.draw_axis(HalluAxis::kSymTruthTable, key, 0.4, 0.0, r3);
    agree_ab += fa == fb;
    agree_ac += fa == fc;
  }
  EXPECT_EQ(agree_ab, 200);
  EXPECT_LT(agree_ac, 200);
}

TEST(SimLlm, LowerProbabilityFiresOnSubsetOfTasks) {
  HallucinationProfile high;
  high.know_convention = 0.6;
  HallucinationProfile low = high;
  low.know_convention = 0.15;
  const SimLlm strong("Tuned", low, "fam");
  const SimLlm weak("Base", high, "fam");
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t key = 0x9999 + static_cast<std::uint64_t>(i) * 31;
    util::Rng r1(1), r2(1);
    const bool tuned_fires = strong.draw_axis(HalluAxis::kKnowConvention, key, 0.4, 0.0, r1);
    const bool base_fires = weak.draw_axis(HalluAxis::kKnowConvention, key, 0.4, 0.0, r2);
    if (tuned_fires) {
      EXPECT_TRUE(base_fires);  // subset property (paired coins)
    }
  }
}

TEST(SimLlm, HigherTemperatureFailsMoreOften) {
  const SimLlm model = make_model("CodeQwen");
  const std::string prompt = counter_prompt();
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  const std::string golden = generate_source(spec);
  auto failure_rate = [&](double temperature) {
    GenerationConfig config;
    config.temperature = temperature;
    int fails = 0;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
      util::Rng rng(10'000 + i);
      const std::string out = model.generate(prompt, config, rng);
      util::Rng tb(1);
      sim::StimulusSpec stim;
      stim.sequential = true;
      stim.reset = "rst";
      if (!verilog::compile_ok(out) || !sim::run_diff_test(out, golden, stim, tb).passed) {
        ++fails;
      }
    }
    return static_cast<double>(fails) / n;
  };
  // The prompt's systematic draws are shared; only stochastic failures vary
  // with temperature, so the rate must be non-decreasing.
  EXPECT_LE(failure_rate(0.2), failure_rate(0.8) + 0.02);
}

TEST(SimLlm, FallbackWithHeaderKeepsInterface) {
  HallucinationProfile always_confused;
  always_confused = always_confused.scaled(0.0);
  always_confused.comprehension = 1.0;
  const SimLlm model("Confused", always_confused);
  util::Rng rng(3);
  const std::string prompt = counter_prompt();
  const std::string out = model.generate(prompt, {}, rng);
  // Interface preserved (compiles, has the right ports), but functionally a
  // stub.
  EXPECT_TRUE(verilog::compile_ok(out)) << out;
  EXPECT_NE(out.find("q"), std::string::npos);
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  util::Rng tb(4);
  sim::StimulusSpec stim;
  stim.sequential = true;
  stim.reset = "rst";
  EXPECT_FALSE(sim::run_diff_test(out, generate_source(spec), stim, tb).passed);
}

TEST(SimLlm, CorruptionsAreObservableInAggregate) {
  // A model with exactly one axis maxed must fail most samples on tasks that
  // exercise the axis, and none on unrelated tasks.
  HallucinationProfile only_attr;
  only_attr = only_attr.scaled(0.0);
  only_attr.know_attribute = 1.0;
  const SimLlm model("AttrBreaker", only_attr);

  TaskSpec seq_spec;
  seq_spec.kind = TaskKind::kRegister;
  seq_spec.width = 4;
  seq_spec.seq.reset = ResetKind::kAsync;
  const std::string seq_prompt = render_instruction(seq_spec, {});
  const std::string seq_golden = generate_source(seq_spec);

  TaskSpec comb_spec;
  comb_spec.kind = TaskKind::kCombExpr;
  comb_spec.expr = logic::Expr::and_(logic::Expr::var("a"), logic::Expr::var("b"));
  comb_spec.comb_inputs = {"a", "b"};
  const std::string comb_prompt = render_instruction(comb_spec, {});
  const std::string comb_golden = generate_source(comb_spec);

  // Temperature 1.0 puts the stochastic remainder at full strength, so an
  // axis with probability 1 fires on every sample.
  GenerationConfig hot;
  hot.temperature = 1.0;
  int seq_fails = 0, comb_fails = 0;
  for (int i = 0; i < 40; ++i) {
    util::Rng rng(100 + i);
    const std::string seq_out = model.generate(seq_prompt, hot, rng);
    util::Rng tb1(1);
    sim::StimulusSpec stim;
    stim.sequential = true;
    stim.reset = "rst";
    seq_fails += !sim::run_diff_test(seq_out, seq_golden, stim, tb1).passed;

    util::Rng rng2(200 + i);
    const std::string comb_out = model.generate(comb_prompt, {}, rng2);
    util::Rng tb2(2);
    comb_fails += !sim::run_diff_test(comb_out, comb_golden, sim::StimulusSpec{}, tb2).passed;
  }
  EXPECT_EQ(seq_fails, 40);   // attribute axis always corrupts sequential logic
  EXPECT_EQ(comb_fails, 0);   // and never touches pure combinational tasks
}

// One preparation reused across samples must replay the string path
// exactly: the same source, and `rng` left where the string overload leaves
// it. A spec that generate() moved out of, or damaged inside, the shared
// preparation would show as a diverging later sample.
TEST(SimLlm, PreparedPromptReplaysTheStringPath) {
  std::vector<std::string> prompts;
  for (const eval::Suite& suite :
       {eval::build_verilogeval_machine(), eval::build_verilogeval_human(),
        eval::build_verilogeval_v2(), eval::build_rtllm()}) {
    prompts.push_back(suite.tasks.front().prompt);
  }
  // Prompts that fail to parse, or carry only a header.
  for (const char* text : {"", "???", "Question: Answer:",
                           "Implement the truth table below.\n(garbled payload)\n0 0\n1\n",
                           "module only_a_header(input a, output y);"}) {
    prompts.emplace_back(text);
  }
  AxisDamping damping;
  damping.set(HalluAxis::kLogicCorner, 0.25);
  damping.set(HalluAxis::kKnowSyntax, 0.5);
  damping.set(HalluAxis::kComprehension, 0.0);
  GenerationConfig hot;
  hot.temperature = 0.8;
  for (const char* card : {"GPT-4", "CodeLlama", "RTLCoder-DeepSeek"}) {
    const SimLlm model = make_model(card);
    for (const std::string& text : prompts) {
      const PreparedPrompt prepared = prepare_prompt(text);
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE(std::string(card) + " seed " + std::to_string(seed) + ": " + text);
        util::Rng fresh(seed), reused(seed);
        EXPECT_EQ(model.generate(prepared, hot, reused), model.generate(text, hot, fresh));
        EXPECT_EQ(reused.next(), fresh.next());
        EXPECT_EQ(model.generate_with_hints(prepared, hot, damping, reused),
                  model.generate_with_hints(text, hot, damping, fresh));
        EXPECT_EQ(reused.next(), fresh.next());
      }
    }
  }
}

TEST(ModelZoo, AllCardsResolve) {
  EXPECT_GE(model_zoo().size(), 19u);
  for (const auto& card : model_zoo()) {
    const SimLlm model = make_model(card.name);
    EXPECT_EQ(model.name(), card.name);
  }
  EXPECT_EQ(find_model_card("NotAModel"), nullptr);
  EXPECT_THROW(make_model("NotAModel"), std::out_of_range);
}

TEST(ModelZoo, OrderingOfKeyProfiles) {
  // Basic sanity on calibration: stronger models have lower axis values.
  const auto* gpt4 = find_model_card("GPT-4");
  const auto* gpt35 = find_model_card("GPT-3.5");
  const auto* origen = find_model_card("OriGen-DeepSeek");
  const auto* codellama = find_model_card("CodeLlama");
  ASSERT_TRUE(gpt4 && gpt35 && origen && codellama);
  EXPECT_LT(gpt4->profile.misalignment, gpt35->profile.misalignment);
  EXPECT_LT(origen->profile.know_convention, gpt35->profile.know_convention);
  EXPECT_GT(codellama->profile.comprehension, gpt4->profile.comprehension);
  // GPT-4o-mini shares GPT-4's family.
  EXPECT_EQ(find_model_card("GPT-4o-mini")->family, "GPT-4");
}

}  // namespace
}  // namespace haven::llm
