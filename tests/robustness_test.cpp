// Robustness fuzzing: the evaluation loop feeds *hallucinated* code to the
// parser, analyzer and simulator thousands of times per run — none of those
// components may ever crash or hang on damaged input, and the SimLlm must
// never throw regardless of prompt or profile.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/hash.h"
#include "cot/sicot.h"
#include "eval/engine.h"
#include "eval/suites.h"
#include "eval/task.h"
#include "llm/hallucination.h"
#include "llm/model_zoo.h"
#include "llm/simllm.h"
#include "sim/testbench.h"
#include "util/fault.h"
#include "util/thread_pool.h"
#include "verilog/analyzer.h"
#include "verilog/lexer.h"
#include "verilog/parser.h"
#include "verilog/pretty.h"

namespace haven {
namespace {

TEST(Robustness, RepeatedSyntaxCorruptionNeverCrashesFrontend) {
  util::Rng rng(0xf0);
  const eval::Suite suite = eval::build_rtllm();
  for (const auto& task : suite.tasks) {
    std::string source = task.golden_source;
    // Stack up to 4 corruption layers; parse + analyze at each depth.
    for (int layer = 0; layer < 4; ++layer) {
      source = llm::corrupt_syntax(source, rng);
      const verilog::SourceAnalysis analysis = verilog::analyze_source(source);
      // No expectations on the verdict — only that we got here alive with
      // coherent diagnostics.
      for (const auto& m : analysis.modules) {
        for (const auto& e : m.diagnostics) EXPECT_FALSE(e.message.empty());
      }
    }
  }
}

TEST(Robustness, ParserHandlesAdversarialSnippets) {
  const char* snippets[] = {
      "module",                          // truncated header
      "module ;",                        // missing name
      "module m();",                     // missing endmodule
      "module m(input); endmodule",      // missing port name
      "module m(input a); assign = 1; endmodule",
      "module m(input a); always @ endmodule",
      "module m(input a); case endcase endmodule",
      "module m(input [a:b] x); endmodule",
      "module m(input a); assign y = (((((; endmodule",
      "endmodule module endmodule",
      "module m(input a, output y); assign y = 4'bxxzz?; endmodule",
      "module m #(parameter) (input a); endmodule",
      "module m(input a); wire w = ; endmodule",
      "\xff\xfe garbage \x01\x02",
      "module m(input a); for (;;) endmodule",
  };
  for (const char* snippet : snippets) {
    const verilog::ParseOutput out = verilog::parse_source(snippet);
    // Must terminate and must not report success-with-no-diagnostics for
    // clearly broken input.
    if (out.ok()) {
      EXPECT_FALSE(out.file.modules.empty()) << snippet;
    } else {
      EXPECT_FALSE(out.diagnostics.empty()) << snippet;
    }
  }
}

// The frontend's every observable output, pinned over a fixed corpus: each
// token (kind, text, line, column), the parse and analyzer diagnostics, and
// the printed form of every parsed module. The corpus is the golden of every
// task of the four suites, three zoo cards' candidates for each task (their
// text is itself printed by print_module), and byte-mutated copies of each
// that stress the lexer's punctuation, literal and error paths. A change to
// the lexer, parser, analyzer or pretty printer that moves any byte of
// their output moves the digest.
TEST(Robustness, FrontendOutputsArePinned) {
  std::vector<std::string> corpus;
  const llm::GenerationConfig config{.temperature = 0.8};
  const char* cards[] = {"GPT-4", "CodeLlama", "RTLCoder-Mistral"};
  for (const eval::Suite& suite :
       {eval::build_verilogeval_machine(), eval::build_verilogeval_human(),
        eval::build_verilogeval_v2(), eval::build_rtllm()}) {
    for (const eval::EvalTask& task : suite.tasks) corpus.push_back(task.golden_source);
    for (std::size_t c = 0; c < std::size(cards); ++c) {
      const llm::SimLlm model = llm::make_model(cards[c]);
      util::Rng rng(0x5eed + c);
      for (const eval::EvalTask& task : suite.tasks) {
        corpus.push_back(model.generate(task.prompt, config, rng));
      }
    }
  }
  // Two mutated copies of each, with 1-4 insertions or replacements of bytes
  // the lexer treats specially, drawn by a fixed LCG.
  static constexpr char kBytes[] = "+-*/%=?:;,.()[]{}#@&|^~!<>'\"\\`$\n\v\x01\x80";
  const std::string_view alphabet(kBytes, sizeof kBytes);  // keeps the trailing NUL
  std::uint64_t lcg = 0x243f6a8885a308d3ULL;
  const auto draw = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((lcg >> 33) % bound);
  };
  const std::size_t originals = corpus.size();
  for (std::size_t i = 0; i < 2 * originals; ++i) {
    std::string mutated = corpus[i % originals];
    for (std::size_t edits = 1 + draw(4); edits > 0; --edits) {
      const std::size_t at = draw(mutated.size() + 1);
      const char byte = alphabet[draw(alphabet.size())];
      if (draw(2) == 0 || at == mutated.size()) {
        mutated.insert(at, 1, byte);
      } else {
        mutated[at] = byte;
      }
    }
    corpus.push_back(std::move(mutated));
  }

  cache::Hasher h;
  for (const std::string& source : corpus) {
    h.bytes(source);
    for (const verilog::Token& t : verilog::Lexer::tokenize(source)) {
      h.u32(static_cast<std::uint32_t>(t.kind)).bytes(std::string(t.text));
      h.i32(t.line).i32(t.column);
    }
    const verilog::ParseOutput parsed = verilog::parse_source(source);
    for (const verilog::Diagnostic& d : parsed.diagnostics) h.bytes(d.to_string());
    for (const verilog::Module& m : parsed.file.modules) h.bytes(verilog::print_module(m));
    const verilog::SourceAnalysis analysis = verilog::analyze_source(source);
    for (const verilog::ModuleAnalysis& m : analysis.modules) {
      h.bytes(m.module_name);
      for (const verilog::Diagnostic& d : m.diagnostics) h.bytes(d.to_string());
    }
  }
  EXPECT_EQ(corpus.size(), 5808u);
  EXPECT_EQ(cache::to_hex(h.digest()), "6c9ac019333d6724a955e9cda5647d15");
}

TEST(Robustness, SimLlmNeverThrowsOnAnyZooModelOrPrompt) {
  const char* prompts[] = {
      "",
      "???",
      "Implement the truth table below.\n(garbled payload)\n0 0\n1\n",
      "A[out=?]-[x=9]->B\nImplement this FSM\n",
      "Design a 0-bit counter.",
      "Design a 99-bit shift register shifting sideways.",
      "Question: Answer:",
      "module only_a_header(input a, output y);",
      // Digit runs past int: they read as absent, never as an exception.
      "Design a 99999999999-bit adder: sum = a + b + cin.",
      "Design a clock divider that divides 'clk' by 99999999999.",
      "Design a 4-bit up counter that wraps modulo-99999999999.",
      "Implement the waveform below.\na: 0 1 0 1\nb: 0 0 1 1\nout: 0 1 1 0\n"
      "time(ns): 0 99999999999 20 30\n",
  };
  llm::GenerationConfig config;
  for (const auto& card : llm::model_zoo()) {
    const llm::SimLlm model(card.name, card.profile, card.family);
    for (const char* prompt : prompts) {
      for (int s = 0; s < 3; ++s) {
        util::Rng rng(static_cast<std::uint64_t>(s) + 77);
        std::string out;
        EXPECT_NO_THROW(out = model.generate(prompt, config, rng)) << card.name << prompt;
        EXPECT_FALSE(out.empty());
      }
    }
  }
}

// SI-CoT parses symbolic payloads itself, before the model sees the prompt:
// a waveform with an out-of-range time, raw or interpreted, is a payload it
// cannot read, and the prompt passes through.
TEST(Robustness, SiCotRefineNeverThrowsOnOutOfRangeTimes) {
  const llm::SimLlm model = llm::make_model("GPT-4");
  const cot::SiCotPipeline pipeline(&model);
  const std::string raw =
      "Implement the waveform below.\na: 0 1 0 1\nb: 0 0 1 1\nout: 0 1 1 0\n"
      "time(ns): 0 99999999999 20 30\n";
  const std::string interpreted =
      "Implement the rules below.\nVariables: 1. a(input); 2. out(output)\n"
      "Rules: When time is 0ns, a=0, out=1; When time is 99999999999ns, a=1, out=0; \n";
  for (const std::string& prompt : {raw, interpreted}) {
    util::Rng rng(5);
    cot::SiCotResult refined;
    ASSERT_NO_THROW(refined = pipeline.refine(prompt, 0.2, rng)) << prompt;
    EXPECT_FALSE(refined.transformed) << refined.prompt;
    EXPECT_EQ(refined.prompt, prompt);
    EXPECT_FALSE(llm::parse_instruction(prompt).ok());
  }
}

TEST(Robustness, DiffTestSurvivesHallucinatedCandidates) {
  // Stress the full check path with a maximally-hallucinating model: every
  // candidate is damaged somehow, and every one must produce a verdict.
  llm::HallucinationProfile chaos;
  chaos = chaos.scaled(0.0);
  chaos.know_syntax = 0.3;
  chaos.know_convention = 0.5;
  chaos.know_attribute = 0.5;
  chaos.logic_corner = 0.5;
  chaos.sym_state_diagram = 0.8;
  chaos.misalignment = 0.5;
  const llm::SimLlm model("Chaos", chaos);
  eval::Suite suite = eval::build_verilogeval_human();
  suite.tasks.resize(40);
  llm::GenerationConfig config;
  config.temperature = 0.8;
  int verdicts = 0;
  for (const auto& task : suite.tasks) {
    util::Rng rng(task.spec.fingerprint());
    const std::string candidate = model.generate(task.prompt, config, rng);
    if (!verilog::compile_ok(candidate)) {
      ++verdicts;  // syntax verdict
      continue;
    }
    util::Rng tb = rng.fork();
    const sim::DiffResult diff =
        sim::run_diff_test(candidate, task.golden_source, task.stimulus, tb);
    EXPECT_TRUE(diff.passed || !diff.reason.empty());
    ++verdicts;
  }
  EXPECT_EQ(verdicts, 40);
}

TEST(Robustness, SimulatorBoundsRunawayLoops) {
  // A for loop that never terminates must be cut off, flagged as
  // non-convergent, and must not hang the process.
  const verilog::ParseOutput out = verilog::parse_source(R"(
module runaway(input a, output reg [31:0] y);
  integer i;
  always @(*) begin
    y = 0;
    for (i = 0; i < 10; i = i + 0)
      y = y + 1;
  end
endmodule
)");
  ASSERT_TRUE(out.ok());
  sim::Simulator s(sim::elaborate(out.file.modules.front(), &out.file));
  s.poke("a", 1);
  EXPECT_FALSE(s.converged());
}

// --- fault-tolerance: the eval engine must survive anything below it -------

// A model that never hallucinates: candidates compile and simulate, so any
// fault recorded below is provably the harness's own machinery firing.
llm::SimLlm perfect_model() {
  return llm::SimLlm("Perfect", llm::HallucinationProfile{}.scaled(0.0));
}

eval::Suite tiny_rtllm(std::size_t n_tasks) {
  eval::Suite suite = eval::build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

std::int64_t func_pass_sum(const eval::SuiteResult& r) {
  std::int64_t sum = 0;
  for (const auto& t : r.per_task) sum += t.func_pass;
  return sum;
}

// Single-temperature accounting invariant: every candidate lands in exactly
// one terminal bucket, whatever faults were injected along the way.
void expect_exact_accounting(const eval::SuiteResult& r) {
  const auto& c = r.counters;
  EXPECT_EQ(c.candidates,
            c.unit_faults + c.compile_failures + c.sim_mismatches + func_pass_sum(r));
  EXPECT_EQ(static_cast<std::int64_t>(r.faults.size()), c.unit_faults);
}

TEST(FaultTolerance, DeadlineCutsOffRunawaySimulation) {
  eval::Suite suite = tiny_rtllm(1);
  // Make the stimulus absurdly heavy whichever shape the task has: without
  // the watchdog this test would run for hours, not milliseconds.
  suite.tasks[0].stimulus.cycles = 10'000'000;
  suite.tasks[0].stimulus.random_vectors = 10'000'000;
  suite.tasks[0].stimulus.max_exhaustive_bits = 0;

  eval::EvalRequest request;
  request.n_samples = 1;
  request.temperatures = {0.2};
  request.threads = 1;
  request.deadline_ms = 50;
  const eval::SuiteResult result =
      eval::EvalEngine(request).evaluate(perfect_model(), suite);

  EXPECT_EQ(result.counters.unit_faults, 1);
  EXPECT_EQ(result.counters.deadline_exceeded, 1);
  ASSERT_EQ(result.faults.size(), 1u);
  EXPECT_EQ(result.faults[0].kind, eval::FaultKind::kDeadline);
  EXPECT_EQ(result.faults[0].task_id, suite.tasks[0].id);
  EXPECT_EQ(result.faults[0].attempts, 1);  // deadline blows are not retried
  expect_exact_accounting(result);
}

TEST(FaultTolerance, SimStepBudgetBoundsEverySimulation) {
  const eval::Suite suite = tiny_rtllm(2);
  eval::EvalRequest request;
  request.n_samples = 1;
  request.temperatures = {0.2};
  request.threads = 1;
  request.sim_step_budget = 50;  // far below any real diff test
  const eval::SuiteResult result =
      eval::EvalEngine(request).evaluate(perfect_model(), suite);

  EXPECT_EQ(result.counters.unit_faults, result.counters.candidates);
  EXPECT_EQ(result.counters.cycles_aborted, result.counters.candidates);
  for (const auto& fault : result.faults) {
    EXPECT_EQ(fault.kind, eval::FaultKind::kSimBudget);
  }
  expect_exact_accounting(result);
}

// Run one chaos evaluation with all three sites armed at `p`.
eval::SuiteResult chaos_run(double p, int threads, int max_retries,
                            util::FaultInjector* injector) {
  injector->arm(util::kSiteLlmGenerate, p);
  injector->arm(util::kSiteEvalCompile, p);
  injector->arm(util::kSiteSimRun, p);
  injector->install();
  eval::EvalRequest request;
  request.n_samples = 3;
  request.temperatures = {0.8};
  request.threads = threads;
  request.retry.max_retries = max_retries;
  const eval::SuiteResult result =
      eval::EvalEngine(request).evaluate(llm::make_model("GPT-4"), tiny_rtllm(8));
  injector->uninstall();
  return result;
}

TEST(FaultTolerance, ChaosSweepCompletesWithExactAccounting) {
  for (const double p : {0.01, 0.1, 0.3}) {
    util::FaultInjector injector(0xC405);
    eval::SuiteResult result;
    ASSERT_NO_THROW(result = chaos_run(p, 4, /*max_retries=*/0, &injector)) << p;
    expect_exact_accounting(result);
    for (const auto& fault : result.faults) {
      EXPECT_EQ(fault.kind, eval::FaultKind::kInjected) << fault.what;
      EXPECT_EQ(fault.attempts, 1);
    }
    // Every injected fault terminated exactly one unit (no retries armed).
    EXPECT_EQ(injector.total_injected(), result.counters.unit_faults) << p;
    EXPECT_EQ(result.counters.retries, 0);
  }
  // At 30% per site some faults must actually have fired.
  util::FaultInjector injector(0xC405);
  const eval::SuiteResult heavy = chaos_run(0.3, 4, 0, &injector);
  EXPECT_GT(heavy.counters.unit_faults, 0);
}

TEST(FaultTolerance, RetriesRecoverInjectedFaultsWithExactTally) {
  util::FaultInjector with_retries(0xC405);
  const eval::SuiteResult retried = chaos_run(0.3, 4, /*max_retries=*/2, &with_retries);
  expect_exact_accounting(retried);

  // Injection bookkeeping: every fired fault either consumed a retry or
  // terminally failed its unit.
  std::int64_t terminal_injected = 0;
  for (const auto& fault : retried.faults) {
    terminal_injected += fault.kind == eval::FaultKind::kInjected;
  }
  EXPECT_EQ(with_retries.total_injected(), terminal_injected + retried.counters.retries);
  EXPECT_GT(retried.counters.retries, 0);

  // Retries strictly help: fewer terminal faults than the no-retry run.
  util::FaultInjector no_retries(0xC405);
  const eval::SuiteResult plain = chaos_run(0.3, 4, 0, &no_retries);
  EXPECT_LT(retried.counters.unit_faults, plain.counters.unit_faults);
}

TEST(FaultTolerance, ChaosRunsAreThreadCountInvariant) {
  util::FaultInjector serial_injector(0xC405);
  util::FaultInjector parallel_injector(0xC405);
  const eval::SuiteResult serial = chaos_run(0.2, 1, 1, &serial_injector);
  const eval::SuiteResult parallel = chaos_run(0.2, 8, 1, &parallel_injector);

  EXPECT_EQ(serial.counters.candidates, parallel.counters.candidates);
  EXPECT_EQ(serial.counters.unit_faults, parallel.counters.unit_faults);
  EXPECT_EQ(serial.counters.compile_failures, parallel.counters.compile_failures);
  EXPECT_EQ(serial.counters.sim_mismatches, parallel.counters.sim_mismatches);
  EXPECT_EQ(serial.counters.retries, parallel.counters.retries);
  EXPECT_EQ(serial_injector.total_injected(), parallel_injector.total_injected());
  ASSERT_EQ(serial.faults.size(), parallel.faults.size());
  for (std::size_t i = 0; i < serial.faults.size(); ++i) {
    EXPECT_EQ(serial.faults[i].kind, parallel.faults[i].kind);
    EXPECT_EQ(serial.faults[i].task_id, parallel.faults[i].task_id);
    EXPECT_EQ(serial.faults[i].sample, parallel.faults[i].sample);
    EXPECT_EQ(serial.faults[i].attempts, parallel.faults[i].attempts);
  }
  ASSERT_EQ(serial.per_task.size(), parallel.per_task.size());
  for (std::size_t i = 0; i < serial.per_task.size(); ++i) {
    EXPECT_EQ(serial.per_task[i].func_pass, parallel.per_task[i].func_pass);
    EXPECT_EQ(serial.per_task[i].syntax_pass, parallel.per_task[i].syntax_pass);
  }
}

TEST(FaultTolerance, DisabledInjectionIsBitIdenticalToNoInjector) {
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");
  const eval::Suite suite = tiny_rtllm(6);
  eval::EvalRequest request;
  request.n_samples = 2;
  request.temperatures = {0.2, 0.8};
  request.threads = 4;
  request.retry.max_retries = 3;  // attempt 0 must be bit-identical

  const eval::SuiteResult plain = eval::EvalEngine(request).evaluate(model, suite);

  util::FaultInjector injector(0xC405);
  injector.arm(util::kSiteLlmGenerate, 0.0);
  injector.arm(util::kSiteEvalCompile, 0.0);
  injector.arm(util::kSiteSimRun, 0.0);
  injector.install();
  const eval::SuiteResult armed = eval::EvalEngine(request).evaluate(model, suite);
  injector.uninstall();

  EXPECT_EQ(injector.total_injected(), 0);
  EXPECT_DOUBLE_EQ(plain.temperature, armed.temperature);
  EXPECT_EQ(plain.counters.candidates, armed.counters.candidates);
  EXPECT_EQ(plain.counters.compile_failures, armed.counters.compile_failures);
  EXPECT_EQ(plain.counters.sim_mismatches, armed.counters.sim_mismatches);
  EXPECT_EQ(plain.counters.unit_faults, 0);
  EXPECT_EQ(armed.counters.unit_faults, 0);
  EXPECT_EQ(armed.counters.retries, 0);
  ASSERT_EQ(plain.per_task.size(), armed.per_task.size());
  for (std::size_t i = 0; i < plain.per_task.size(); ++i) {
    EXPECT_EQ(plain.per_task[i].func_pass, armed.per_task[i].func_pass);
    EXPECT_EQ(plain.per_task[i].syntax_pass, armed.per_task[i].syntax_pass);
  }
}

TEST(FaultTolerance, FailFastOnSharedPoolDrainsBeforeUnwinding) {
  // Regression: when an exception leaves evaluate() on an external (shared)
  // pool, unwinding its frame while queued units still reference it is a
  // use-after-free once the pool runs them (first seen with an
  // abort-on-fault mode; a throwing serve subscriber takes the same path).
  // The exception must wait out every outstanding unit first. One worker
  // and a fault site deep in the unit (after generate + compile) keep a
  // long tail of units queued when the first reduction throws.
  util::ThreadPool pool(1);
  util::FaultInjector injector(0xC405);
  injector.arm(util::kSiteSimRun, 1.0);  // every unit faults at simulation
  injector.install();
  eval::EvalRequest request;
  request.n_samples = 4;
  request.temperatures = {0.2};
  request.pool = &pool;
  request.retry.max_retries = 0;
  request.on_progress = [](const eval::EvalProgress&) {
    throw std::runtime_error("subscriber failed");
  };
  EXPECT_THROW(eval::EvalEngine(request).evaluate(llm::make_model("GPT-4"), tiny_rtllm(8)),
               std::runtime_error);
  // Every unit ran to completion before the exception escaped (a shared
  // pool's queue is never dropped): a unit still in flight would keep firing
  // the injector, so the count must be quiescent once evaluate() has
  // returned...
  const std::int64_t injected_at_return = injector.total_injected();
  EXPECT_GT(injected_at_return, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(injector.total_injected(), injected_at_return);
  injector.uninstall();
  // ...and the pool stays usable for unrelated work.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

// The perfect model emits one source for every sample, and a 4-bit adder
// (9 input bits) is swept exhaustively, so every sample after the first
// clean one repeats a verdict that reads no testbench stream. A repeat must
// still cross each injection site a fresh check crosses: faults land on the
// same units whether or not an earlier unit already judged the source.
TEST(FaultTolerance, RepeatedCandidatesCrossEveryInjectionSite) {
  llm::TaskSpec spec;
  spec.kind = llm::TaskKind::kAdder;
  spec.width = 4;
  util::Rng task_rng(1);
  eval::Suite suite;
  suite.name = "adder4";
  suite.tasks.push_back(eval::make_task("adder4", spec, llm::PromptStyle::kEngineer, task_rng));
  ASSERT_FALSE(suite.tasks[0].stimulus.sequential);
  constexpr int kSamples = 16;
  const eval::EvalRequest request = eval::EvalRequest{}
                                        .with_samples(kSamples)
                                        .with_temperature(0.2)
                                        .with_threads(1)
                                        .with_retries(0);
  for (const std::string_view site : {util::kSiteEvalCompile, util::kSiteSimRun}) {
    SCOPED_TRACE(site);
    util::FaultInjector injector(0xC405);
    injector.arm(site, 0.5);
    injector.install();
    const eval::SuiteResult result = eval::EvalEngine(request).evaluate(perfect_model(), suite);
    injector.uninstall();

    std::string pattern(kSamples, '.');
    for (const eval::UnitFault& fault : result.faults) {
      EXPECT_EQ(fault.kind, eval::FaultKind::kInjected);
      pattern[static_cast<std::size_t>(fault.sample)] = 'F';
    }
    const std::size_t first_clean = pattern.find('.');
    ASSERT_NE(first_clean, std::string::npos) << pattern;
    EXPECT_NE(pattern.find('F', first_clean), std::string::npos) << pattern;
    EXPECT_EQ(injector.total_injected(), result.counters.unit_faults);
    EXPECT_EQ(result.per_task[0].func_pass, kSamples - result.counters.unit_faults);
  }
}

}  // namespace
}  // namespace haven
