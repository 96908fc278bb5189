// Fig 4 reproduction: ablation of KL-dataset composition. {0%, 50%, 100%}
// portions of the K-dataset and the L-dataset are mixed to fine-tune the
// CodeGen-LLM (CodeQwen), evaluated on VerilogEval(v1)-Human with SI-CoT.
// Reports the 3x3 grid of pass@1 / pass@5.
#include "bench_common.h"

#include "util/csv.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace haven;
  using namespace haven::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Chaos chaos(args);
  const eval::Suite human = eval::build_verilogeval_human();

  std::cout << "== Fig 4: Ablation of KL-dataset composition (CodeQwen) ==\n\n";

  const double fractions[] = {0.0, 0.5, 1.0};
  util::TablePrinter p1_table({"pass@1", "L=0%", "L=50%", "L=100%"});
  const int k = eval::reported_k(args.req.n_samples);
  util::TablePrinter p5_table({"pass@" + std::to_string(k), "L=0%", "L=50%", "L=100%"});
  util::CsvWriter csv({"k_fraction", "l_fraction", "pass1", "pass" + std::to_string(k)});

  for (double kf : fractions) {
    std::vector<std::string> row1 = {util::format("K=%.0f%%", kf * 100)};
    std::vector<std::string> row5 = {util::format("K=%.0f%%", kf * 100)};
    for (double lf : fractions) {
      HavenConfig config;
      config.base_model = llm::kBaseCodeQwen;
      config.k_fraction = kf;
      config.l_fraction = lf;
      const HavenPipeline pipe = HavenPipeline::build(config);
      const eval::EvalEngine engine(args.sicot_request(pipe.cot_model()));
      const eval::SuiteResult r = engine.evaluate(pipe.codegen_model(), human);
      args.report_lint(r);
      row1.push_back(eval::pct(r.pass_at(1)));
      row5.push_back(eval::pct(r.pass_at(k)));
      csv.add_row({util::format("%.1f", kf), util::format("%.1f", lf),
                   eval::pct(r.pass_at(1)), eval::pct(r.pass_at(k))});
      std::cout << "  done: K=" << kf * 100 << "% L=" << lf * 100 << "%\n" << std::flush;
    }
    p1_table.add_row(row1);
    p5_table.add_row(row5);
  }

  std::cout << "\n" << p1_table.to_string() << "\n" << p5_table.to_string() << "\n";
  std::cout << "CSV:\n" << csv.to_string() << "\n";
  std::cout << "Expected shape (paper Fig 4): both K and L portions monotonically improve\n"
               "pass@k; the K-dataset's contribution is larger than the L-dataset's.\n";
  return 0;
}
