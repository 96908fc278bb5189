// Experimental-protocol ablation (paper §IV-A: "Following RTLCoder, we set
// the temperature of each model to 0.2, 0.5 and 0.8, reporting the best
// performance"). This bench shows pass@1/pass@5 at each temperature
// separately for a base model and for HaVen, justifying the best-of
// protocol: low temperature maximizes pass@1 (fewer stochastic slips);
// higher temperatures trade pass@1 for resampling diversity.
#include "bench_common.h"

#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace haven;
  using namespace haven::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Chaos chaos(args);
  const eval::Suite human = eval::build_verilogeval_human();

  std::cout << "== Temperature protocol: per-temperature pass@k (VerilogEval-human) ==\n\n";

  const int k = eval::reported_k(args.req.n_samples);
  util::TablePrinter table({"Model", "T", "pass@1", "pass@" + std::to_string(k)});

  // The explicit per-temperature sweep (no best-of selection) is this
  // bench's point: override EvalRequest::temperatures with one T at a time.
  auto sweep = [&](const llm::SimLlm& model, const llm::SimLlm* cot) {
    for (double t : {0.2, 0.5, 0.8}) {
      eval::EvalRequest req = cot != nullptr ? args.sicot_request(*cot) : args.request();
      req.temperatures = {t};
      const eval::SuiteResult r = eval::EvalEngine(std::move(req)).evaluate(model, human);
      args.report_lint(r);
      table.add_row({model.name(), util::format("%.1f", t), eval::pct(r.pass_at(1)),
                     eval::pct(r.pass_at(k))});
      std::cout << "  done: " << model.name() << " T=" << t << "\n" << std::flush;
    }
    table.add_separator();
  };

  sweep(llm::make_model("GPT-4"), nullptr);
  sweep(llm::make_model(llm::kBaseCodeQwen), nullptr);
  const HavenPipeline pipe = build_haven(llm::kBaseCodeQwen);
  sweep(pipe.codegen_model(), &pipe.cot_model());

  std::cout << "\n" << table.to_string() << "\n";
  std::cout << "Expected shape: pass@1 decreases with temperature (stochastic hallucination\n"
               "scales with T); pass@5 is flatter (resampling recovers some failures) — the\n"
               "reason the protocol reports the best temperature per metric.\n";
  return 0;
}
