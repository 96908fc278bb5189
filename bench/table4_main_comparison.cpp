// Table IV reproduction: HaVen vs baseline models on VerilogEval v1
// (machine & human, pass@1/pass@5), RTLLM v1.1 (syntax & functional
// pass@5), and VerilogEval v2 (pass@1/pass@5).
//
// Baselines run without SI-CoT; the three HaVen rows are produced by the
// full pipeline (dataset generation + fine-tuning) with SI-CoT inference.
// Paper-reported values are printed beside each measurement; absolute
// levels need not match (different substrate), the ordering should.
#include "bench_common.h"

namespace haven::bench {
namespace {

struct PaperRow {
  const char* model;
  // machine p1/p5, human p1/p5, rtllm syn5/func5, v2 p1/p5
  const char* vals[8];
};

// Values transcribed from Table IV of the paper.
const PaperRow kPaper[] = {
    {"GPT-3.5", {"46.7", "69.1", "26.7", "45.8", "89.7", "37.9", "n/a", "n/a"}},
    {"GPT-4", {"60.0", "70.6", "43.5", "55.8", "100.0", "65.5", "44.2", "n/a"}},
    {"Starcoder", {"46.8", "54.5", "18.1", "26.1", "93.1", "27.6", "n/a", "n/a"}},
    {"CodeLlama", {"43.1", "47.1", "18.2", "22.7", "86.2", "31.0", "n/a", "n/a"}},
    {"DeepSeek-Coder", {"52.2", "55.4", "30.2", "33.9", "93.1", "44.8", "28.2", "n/a"}},
    {"CodeQwen", {"46.5", "54.9", "22.5", "26.1", "86.2", "41.4", "n/a", "n/a"}},
    {"ChipNeMo", {"43.4", "n/a", "22.4", "n/a", "n/a", "n/a", "n/a", "n/a"}},
    {"Thakur et al.", {"44.0", "52.6", "30.3", "43.9", "86.2", "24.1", "n/a", "n/a"}},
    {"RTLCoder-Mistral", {"62.5", "72.2", "36.7", "45.5", "96.6", "48.3", "n/a", "n/a"}},
    {"RTLCoder-DeepSeek", {"61.2", "76.5", "41.6", "50.1", "93.1", "48.3", "36.5", "n/a"}},
    {"BetterV-CodeLlama", {"64.2", "75.4", "40.9", "50.0", "n/a", "n/a", "n/a", "n/a"}},
    {"BetterV-DeepSeek", {"67.8", "79.1", "45.9", "53.3", "n/a", "n/a", "n/a", "n/a"}},
    {"BetterV-CodeQwen", {"68.1", "79.4", "46.1", "53.7", "n/a", "n/a", "n/a", "n/a"}},
    {"AutoVCoder-CodeLlama", {"63.7", "72.9", "44.5", "52.8", "93.1", "48.3", "n/a", "n/a"}},
    {"AutoVCoder-DeepSeek", {"69.0", "79.3", "46.9", "53.7", "100.0", "51.7", "n/a", "n/a"}},
    {"AutoVCoder-CodeQwen", {"68.7", "79.9", "48.5", "55.9", "100.0", "51.7", "n/a", "n/a"}},
    {"OriGen-DeepSeek", {"74.1", "82.4", "54.4", "60.1", "n/a", "65.5", "n/a", "n/a"}},
    {"HaVen-CodeLlama", {"74.7", "80.0", "51.3", "59.0", "95.4", "54.7", "46.4", "55.8"}},
    {"HaVen-DeepSeek", {"78.8", "84.5", "57.3", "64.2", "92.8", "66.0", "58.3", "63.4"}},
    {"HaVen-CodeQwen", {"77.3", "81.2", "61.1", "64.8", "92.8", "62.2", "54.6", "62.9"}},
};

const PaperRow* paper_row(const std::string& model) {
  for (const auto& row : kPaper) {
    if (model == row.model) return &row;
  }
  return nullptr;
}

}  // namespace
}  // namespace haven::bench

int main(int argc, char** argv) {
  using namespace haven;
  using namespace haven::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Chaos chaos(args);
  BenchRecorder recorder("table4_main_comparison", args);

  std::cout << "== Table IV: HaVen vs baselines ==\n";
  std::cout << "(cells: measured% [paper%]; n=" << args.req.n_samples << ", temps="
            << args.req.temperatures.size() << ")\n\n";

  const eval::Suite machine = eval::build_verilogeval_machine();
  const eval::Suite human = eval::build_verilogeval_human();
  const eval::Suite rtllm = eval::build_rtllm();
  const eval::Suite v2 = eval::build_verilogeval_v2();

  const int k = eval::reported_k(args.req.n_samples);
  const std::string at_k = "@" + std::to_string(k);
  util::TablePrinter table({"Model", "Mach p@1", "Mach p" + at_k, "Hum p@1", "Hum p" + at_k,
                            "RTLLM syn" + at_k, "RTLLM func" + at_k, "v2 p@1", "v2 p" + at_k});

  auto evaluate = [&](const llm::SimLlm& model, const eval::EvalEngine& engine) {
    const eval::SuiteResult rm = engine.evaluate(model, machine);
    const eval::SuiteResult rh = engine.evaluate(model, human);
    const eval::SuiteResult rr = engine.evaluate(model, rtllm);
    const eval::SuiteResult rv = engine.evaluate(model, v2);
    for (const auto* r : {&rm, &rh, &rr, &rv}) {
      args.report_lint(*r);
      recorder.add(*r);
    }
    args.report_cache(rv);
    const PaperRow* paper = paper_row(model.name());
    auto cell = [&](double v, int paper_idx) {
      std::string s = eval::pct(v);
      if (paper != nullptr) s += " [" + std::string(paper->vals[paper_idx]) + "]";
      return s;
    };
    table.add_row({model.name(), cell(rm.pass_at(1), 0), cell(rm.pass_at(k), 1),
                   cell(rh.pass_at(1), 2), cell(rh.pass_at(k), 3),
                   cell(rr.syntax_pass_at(k), 4), cell(rr.pass_at(k), 5),
                   cell(rv.pass_at(1), 6), cell(rv.pass_at(k), 7)});
    std::cout << "  done: " << model.name() << "\n" << std::flush;
  };

  const eval::EvalEngine base_engine(args.request());
  for (const auto& card : llm::model_zoo()) {
    evaluate(llm::SimLlm(card.name, card.profile), base_engine);
  }
  table.add_separator();

  for (const char* base : {llm::kBaseCodeLlama, llm::kBaseDeepSeek, llm::kBaseCodeQwen}) {
    const HavenPipeline pipe = build_haven(base);
    const eval::EvalEngine engine(args.sicot_request(pipe.cot_model()));
    evaluate(pipe.codegen_model(), engine);
  }

  std::cout << "\n" << table.to_string() << "\n";
  std::cout << "Expected shape: HaVen rows lead functional correctness on all benchmarks;\n"
               "HaVen-DeepSeek best on machine, HaVen-CodeQwen best on human;\n"
               "HaVen-CodeLlama weakest of the three fine-tuned bases.\n";
  recorder.write();
  return 0;
}
