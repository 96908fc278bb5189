// Substrate microbenchmarks (google-benchmark): throughput of the parser,
// analyzer, simulator, QM minimizer, and the end-to-end candidate check.
// Not a paper artifact — engineering due diligence for the simulator-based
// evaluation methodology (the whole Table IV run hinges on these numbers).
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "llm/codegen.h"
#include "llm/model_zoo.h"
#include "logic/exprgen.h"
#include "logic/qm.h"
#include "sim/simulator.h"
#include "verilog/analyzer.h"
#include "verilog/parser.h"

namespace {

const char* kFsmSource = R"(
module det(input clk, input rst, input x, output reg z);
  localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2;
  reg [1:0] state, nstate;
  always @(posedge clk)
    if (rst) state <= S0;
    else state <= nstate;
  always @(*) begin
    nstate = S0;
    z = 1'b0;
    case (state)
      S0: nstate = x ? S1 : S0;
      S1: nstate = x ? S1 : S2;
      S2: begin nstate = x ? S1 : S0; z = x; end
      default: nstate = S0;
    endcase
  end
endmodule
)";

void BM_LexParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(haven::verilog::parse_source(kFsmSource));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(std::strlen(kFsmSource)));
}
BENCHMARK(BM_LexParse);

void BM_Analyze(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(haven::verilog::analyze_source(kFsmSource));
  }
}
BENCHMARK(BM_Analyze);

void BM_SimulatorClockCycles(benchmark::State& state) {
  auto parsed = haven::verilog::parse_source(kFsmSource);
  haven::sim::ElabDesign design =
      haven::sim::elaborate(parsed.file.modules.front(), &parsed.file);
  haven::sim::Simulator sim(design);
  sim.poke("rst", 1);
  sim.clock_cycle();
  sim.poke("rst", 0);
  std::uint64_t x = 0x9e3779b9;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1;
    sim.poke("x", (x >> 33) & 1);
    sim.clock_cycle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorClockCycles);

void BM_QuineMcCluskey(benchmark::State& state) {
  haven::util::Rng rng(42);
  haven::logic::ExprGenConfig config;
  config.num_vars = static_cast<std::size_t>(state.range(0));
  haven::logic::ExprGenerator gen(config);
  const haven::logic::TruthTable tt = gen.generate_table(rng, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(haven::logic::minimize(tt));
  }
}
BENCHMARK(BM_QuineMcCluskey)->Arg(3)->Arg(4)->Arg(6)->Arg(8);

// One candidate end to end: evaluate() on a one-task suite with n = 1 and
// one temperature, serially, with a fresh seed per iteration.
void BM_CandidateCheck(benchmark::State& state) {
  const haven::eval::Suite human = haven::eval::build_verilogeval_human();
  std::vector<haven::eval::Suite> singles;
  for (const auto& task : human.tasks) singles.push_back({human.name, {task}});
  const haven::llm::SimLlm model = haven::llm::make_model("GPT-4");
  haven::eval::EvalEngine engine(
      haven::eval::EvalRequest{}.with_samples(1).with_temperature(0.2).with_threads(1));
  std::size_t i = 0;
  for (auto _ : state) {
    engine.request().seed = i;
    benchmark::DoNotOptimize(engine.evaluate(model, singles[i++ % singles.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CandidateCheck);

// Whole-suite evaluation through the parallel engine. Arg = worker threads
// (1 = serial path, 0 = one per hardware thread); results are identical
// across thread counts, only wall-clock changes.
void BM_EvalEngineSuite(benchmark::State& state) {
  const haven::eval::Suite rtllm = haven::eval::build_rtllm();
  const haven::llm::SimLlm model = haven::llm::make_model("GPT-4");
  haven::eval::EvalRequest req;
  req.n_samples = 2;
  req.temperatures = {0.2};
  req.threads = static_cast<int>(state.range(0));
  const haven::eval::EvalEngine engine(req);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(model, rtllm));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rtllm.tasks.size() * 2));
}
BENCHMARK(BM_EvalEngineSuite)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Same suite with static analysis on. Arg = triage (0 = lint only, 1 = skip
// the differential simulation for candidates with a proven-failure finding);
// the Arg(1) vs Arg(0) delta is the simulation time triage buys back.
void BM_EvalEngineLintTriage(benchmark::State& state) {
  const haven::eval::Suite rtllm = haven::eval::build_rtllm();
  const haven::llm::SimLlm model = haven::llm::make_model("GPT-4");
  haven::eval::EvalRequest req;
  req.n_samples = 2;
  req.temperatures = {0.2};
  req.threads = 1;
  req.lint = true;
  req.lint_triage = state.range(0) != 0;
  const haven::eval::EvalEngine engine(req);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(model, rtllm));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rtllm.tasks.size() * 2));
}
BENCHMARK(BM_EvalEngineLintTriage)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GoldenCodegen(benchmark::State& state) {
  haven::util::Rng rng(7);
  haven::llm::TaskSpec spec = haven::llm::generate_task(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(haven::llm::generate_source(spec));
  }
}
BENCHMARK(BM_GoldenCodegen);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): under --bench-json the binary
// runs one EvalEngine suite through BenchArgs (honoring the cache flags) and
// writes a BENCH_eval.json record — the CI warm-cache job drives this path
// twice against the same --cache-dir and diffs the `results` arrays.
// Without --bench-json it behaves like a normal google-benchmark binary
// (haven flags are stripped before benchmark::Initialize).
int main(int argc, char** argv) {
  const haven::bench::BenchArgs args = haven::bench::BenchArgs::parse(argc, argv);
  if (!args.bench_json.empty()) {
    const haven::eval::Suite rtllm = haven::eval::build_rtllm();
    const haven::llm::SimLlm model = haven::llm::make_model("GPT-4");
    const haven::eval::EvalEngine engine(args.request());
    haven::bench::BenchRecorder recorder("micro_substrates", args);
    const haven::eval::SuiteResult result = engine.evaluate(model, rtllm);
    recorder.add(result);
    std::cerr << "  " << haven::eval::summarize(result) << "\n";
    std::cerr << "  " << haven::eval::summarize(result.counters) << "\n";
    args.report_lint(result);
    args.report_cache(result);
    return recorder.write() ? 0 : 1;
  }
  std::vector<char*> bm_argv;
  bm_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) bm_argv.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
