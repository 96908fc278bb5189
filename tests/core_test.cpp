// End-to-end tests of the HavenPipeline: dataset generation, fine-tuning and
// SI-CoT inference wired together, plus the headline integration property —
// HaVen beats its own base model.
#include <gtest/gtest.h>

#include "core/haven.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "verilog/analyzer.h"

namespace haven {
namespace {

HavenConfig small_config(const std::string& base) {
  HavenConfig config;
  config.base_model = base;
  config.corpus_size = 400;  // keep unit tests quick
  config.l_count = 120;
  return config;
}

TEST(HavenPipeline, BuildReportsPlausibleDatasetSizes) {
  const HavenPipeline pipe = HavenPipeline::build(small_config(llm::kBaseCodeQwen));
  const HavenBuildReport& report = pipe.report();
  EXPECT_EQ(report.corpus_files, 400u);
  EXPECT_GT(report.vanilla_pairs, 200u);
  EXPECT_GT(report.k_samples, 50u);
  EXPECT_EQ(report.l_samples, 120u);
  EXPECT_EQ(report.kl_samples, report.k_samples + report.l_samples);
}

TEST(HavenPipeline, FineTuningReducesTargetedAxes) {
  const HavenPipeline pipe = HavenPipeline::build(small_config(llm::kBaseCodeQwen));
  const auto& base = pipe.report().base_profile;
  const auto& tuned = pipe.report().tuned_profile;
  EXPECT_LT(tuned.know_convention, base.know_convention * 0.6);
  EXPECT_LT(tuned.know_syntax, base.know_syntax * 0.6);
  EXPECT_LT(tuned.logic_expression, base.logic_expression * 0.7);
  EXPECT_LT(tuned.misalignment, base.misalignment * 0.6);
  // The paper's premise: symbolic axes barely move under fine-tuning.
  EXPECT_GT(tuned.sym_state_diagram, base.sym_state_diagram * 0.9);
}

TEST(HavenPipeline, UnknownBaseThrows) {
  HavenConfig config;
  config.base_model = "NotAModel";
  EXPECT_THROW(HavenPipeline::build(config), std::out_of_range);
}

TEST(HavenPipeline, BuildIsDeterministic) {
  const HavenPipeline a = HavenPipeline::build(small_config(llm::kBaseDeepSeek));
  const HavenPipeline b = HavenPipeline::build(small_config(llm::kBaseDeepSeek));
  EXPECT_DOUBLE_EQ(a.report().tuned_profile.know_convention,
                   b.report().tuned_profile.know_convention);
  EXPECT_EQ(a.report().k_samples, b.report().k_samples);
}

TEST(HavenPipeline, NamingFollowsPaper) {
  EXPECT_EQ(HavenPipeline::build(small_config(llm::kBaseDeepSeek)).codegen_model().name(),
            "HaVen-DeepSeek");
  EXPECT_EQ(HavenPipeline::build(small_config(llm::kBaseCodeQwen)).codegen_model().name(),
            "HaVen-CodeQwen");
}

TEST(HavenPipeline, GenerateProducesVerilogEndToEnd) {
  const HavenPipeline pipe = HavenPipeline::build(small_config(llm::kBaseCodeQwen));
  util::Rng rng(1);
  const std::string out = pipe.generate(
      "Implement the truth table below.\n"
      "a b out\n"
      "0 0 0\n"
      "0 1 0\n"
      "1 0 0\n"
      "1 1 1\n"
      "module top_module(input a, input b, output out);\n",
      0.2, rng);
  EXPECT_NE(out.find("module top_module"), std::string::npos);
  EXPECT_TRUE(verilog::compile_ok(out)) << out;
}

TEST(HavenPipeline, RefinePromptInterpretsSymbolicPayloads) {
  const HavenPipeline pipe = HavenPipeline::build(small_config(llm::kBaseCodeQwen));
  util::Rng rng(2);
  const std::string refined = pipe.refine_prompt(
      "Implement the truth table below.\na b out\n0 0 1\n1 1 0\n"
      "module top_module(input a, input b, output out);\n",
      0.2, rng);
  EXPECT_NE(refined.find("Rules:"), std::string::npos);
}

TEST(HavenPipeline, SiCotDisabledPassesPromptThrough) {
  HavenConfig config = small_config(llm::kBaseCodeQwen);
  config.use_sicot = false;
  const HavenPipeline pipe = HavenPipeline::build(config);
  util::Rng rng(3);
  const std::string prompt = "a b out\n0 0 1\n1 1 0\n";
  EXPECT_EQ(pipe.refine_prompt(prompt, 0.2, rng), prompt);
}

// Integration property: the headline result at miniature scale — the full
// HaVen pipeline beats its base model on the human-style benchmark.
TEST(HavenIntegration, HavenBeatsBaseModelOnHumanSuite) {
  const HavenPipeline pipe = HavenPipeline::build(small_config(llm::kBaseCodeQwen));
  const eval::EvalRequest base_req = eval::EvalRequest{}.with_samples(3).with_temperature(0.2);
  const eval::Suite human = eval::build_verilogeval_human();

  const eval::SuiteResult base_result =
      eval::EvalEngine(base_req).evaluate(llm::make_model(llm::kBaseCodeQwen), human);
  const eval::SuiteResult haven_result =
      eval::EvalEngine(eval::EvalRequest(base_req).with_sicot().set_cot_model(pipe.cot_model()))
          .evaluate(pipe.codegen_model(), human);

  EXPECT_GT(haven_result.pass_at(1), base_result.pass_at(1) + 0.15);
}

TEST(HavenIntegration, KLCompositionMonotone) {
  // Fig 4 property at miniature scale: more K (or L) data never hurts.
  auto pass_for = [&](double kf, double lf) {
    HavenConfig config = small_config(llm::kBaseCodeQwen);
    config.k_fraction = kf;
    config.l_fraction = lf;
    const HavenPipeline pipe = HavenPipeline::build(config);
    eval::EvalRequest req;
    req.n_samples = 2;
    req.temperatures = {0.2};
    req.use_sicot = true;
    req.set_cot_model(pipe.cot_model());
    return eval::EvalEngine(req)
        .evaluate(pipe.codegen_model(), eval::build_verilogeval_human())
        .pass_at(1);
  };
  const double none = pass_for(0.0, 0.0);
  const double k_only = pass_for(1.0, 0.0);
  const double full = pass_for(1.0, 1.0);
  EXPECT_GE(k_only, none - 0.01);
  EXPECT_GE(full, k_only - 0.01);
  EXPECT_GT(full, none);
}

}  // namespace
}  // namespace haven
