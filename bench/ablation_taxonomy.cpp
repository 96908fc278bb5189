// Taxonomy ablation (beyond the paper's figures): how much does each
// hallucination class cost? For a base model, zero out one class of axes at
// a time and measure the VerilogEval-human pass@1 recovered. This quantifies
// the paper's claim that all three classes — symbolic, knowledge, logical —
// matter, and shows which interventions buy what.
#include "bench_common.h"

#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace haven;
  using namespace haven::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Chaos chaos(args);
  const eval::Suite human = eval::build_verilogeval_human();

  std::cout << "== Taxonomy ablation: pass@1 recovered by curing each class ==\n"
            << "(base model: CodeQwen; VerilogEval-human)\n\n";

  const llm::ModelCard* card = llm::find_model_card(llm::kBaseCodeQwen);
  const llm::HallucinationProfile base = card->profile;

  struct Arm {
    const char* label;
    llm::HallucinationProfile profile;
  };
  auto cure_symbolic = base;
  cure_symbolic.sym_truth_table = cure_symbolic.sym_waveform =
      cure_symbolic.sym_state_diagram = 0.0;
  auto cure_knowledge = base;
  cure_knowledge.know_convention = cure_knowledge.know_syntax =
      cure_knowledge.know_attribute = 0.0;
  auto cure_logical = base;
  cure_logical.logic_expression = cure_logical.logic_corner =
      cure_logical.logic_instruction = 0.0;
  auto cure_alignment = base;
  cure_alignment.misalignment = 0.0;
  cure_alignment.comprehension = 0.0;

  const Arm arms[] = {
      {"Base (all hallucination classes active)", base},
      {"- symbolic hallucination cured", cure_symbolic},
      {"- knowledge hallucination cured", cure_knowledge},
      {"- logical hallucination cured", cure_logical},
      {"- alignment/comprehension cured", cure_alignment},
      {"Oracle (all cured)", base.scaled(0.0)},
  };

  const int k = eval::reported_k(args.req.n_samples);
  util::TablePrinter table({"Arm", "pass@1", "pass@" + std::to_string(k), "delta p@1 vs base"});
  double base_p1 = 0;
  const eval::EvalEngine engine(args.request());
  for (const Arm& arm : arms) {
    // Same family for every arm: paired coins isolate the cured class.
    const llm::SimLlm model(arm.label, arm.profile, llm::kBaseCodeQwen);
    const eval::SuiteResult r = engine.evaluate(model, human);
    args.report_lint(r);
    const double p1 = r.pass_at(1);
    if (arm.label == arms[0].label) base_p1 = p1;
    table.add_row({arm.label, eval::pct(p1), eval::pct(r.pass_at(k)),
                   util::format("%+.1f", (p1 - base_p1) * 100.0)});
    std::cout << "  done: " << arm.label << "\n" << std::flush;
  }

  std::cout << "\n" << table.to_string() << "\n";
  std::cout << "Expected shape: every class contributes; knowledge+alignment dominate the\n"
               "suite-wide gap (they touch every task), symbolic dominates the 44 symbolic\n"
               "tasks — which is why the paper pairs fine-tuning (knowledge/logical) with\n"
               "SI-CoT (symbolic) rather than relying on either alone.\n";
  return 0;
}
