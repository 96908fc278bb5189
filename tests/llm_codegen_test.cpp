// Golden code generation: every kind must produce code that (a) compiles
// under the analyzer and (b) behaves per the spec in the simulator. The
// CodegenOptions fault knobs must produce *observably wrong* code.
#include <gtest/gtest.h>

#include "lint/lint.h"
#include "llm/codegen.h"
#include "sim/simulator.h"
#include "sim/testbench.h"
#include "verilog/analyzer.h"
#include "verilog/parser.h"

namespace haven::llm {
namespace {

sim::Simulator simulate(const std::string& source) {
  verilog::ParseOutput out = verilog::parse_source(source);
  EXPECT_TRUE(out.ok()) << (out.diagnostics.empty() ? source : out.diagnostics[0].to_string());
  return sim::Simulator(sim::elaborate(out.file.modules.front(), &out.file));
}

TEST(Codegen, EveryGeneratedKindCompiles) {
  util::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const TaskSpec spec = generate_task(rng);
    const std::string source = generate_source(spec);
    EXPECT_TRUE(verilog::compile_ok(source))
        << task_kind_name(spec.kind) << ":\n" << source;
  }
}

TEST(Codegen, CounterCountsModulo) {
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  spec.modulus = 5;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.clock_cycle();
  s.poke("rst", 0);
  for (std::uint64_t want : {1u, 2u, 3u, 4u, 0u, 1u}) {
    s.clock_cycle();
    EXPECT_EQ(s.peek("q").bits(), want);
  }
}

TEST(Codegen, DownCounterWrapsFromZero) {
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 3;
  spec.count_down = true;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.clock_cycle();
  s.poke("rst", 0);
  s.clock_cycle();
  EXPECT_EQ(s.peek("q").bits(), 7u);  // 0 - 1 wraps at 3 bits
}

TEST(Codegen, ActiveLowEnableGatesCounter) {
  TaskSpec spec;
  spec.kind = TaskKind::kCounter;
  spec.width = 4;
  spec.seq.enable = EnableKind::kActiveLow;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.poke("en_n", 1);  // disabled
  s.clock_cycle();
  s.poke("rst", 0);
  s.clock_cycle();
  EXPECT_EQ(s.peek("q").bits(), 0u);  // held
  s.poke("en_n", 0);  // enabled
  s.clock_cycle();
  EXPECT_EQ(s.peek("q").bits(), 1u);
}

TEST(Codegen, NegedgeClockRegister) {
  TaskSpec spec;
  spec.kind = TaskKind::kRegister;
  spec.width = 2;
  spec.seq.negedge_clock = true;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 1);
  s.poke("rst", 0);
  s.poke("d", 2);
  s.poke("clk", 0);  // negedge samples
  EXPECT_EQ(s.peek("q").bits(), 2u);
}

TEST(Codegen, AdderProducesCarry) {
  TaskSpec spec;
  spec.kind = TaskKind::kAdder;
  spec.width = 4;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("a", 0xF);
  s.poke("b", 0x1);
  s.poke("cin", 0);
  EXPECT_EQ(s.peek("sum").bits(), 0u);
  EXPECT_EQ(s.peek("cout").bits(), 1u);
  s.poke("cin", 1);
  EXPECT_EQ(s.peek("sum").bits(), 1u);
}

TEST(Codegen, DecoderIsOneHot) {
  TaskSpec spec;
  spec.kind = TaskKind::kDecoder;
  spec.sel_width = 3;
  sim::Simulator s = simulate(generate_source(spec));
  for (std::uint64_t sel = 0; sel < 8; ++sel) {
    s.poke("sel", sel);
    EXPECT_EQ(s.peek("y").bits(), 1ull << sel);
  }
}

TEST(Codegen, AluOperations) {
  TaskSpec spec;
  spec.kind = TaskKind::kAlu;
  spec.width = 8;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("a", 0xF0);
  s.poke("b", 0x0F);
  s.poke("op", 0);
  EXPECT_EQ(s.peek("y").bits(), 0xFFu);
  s.poke("op", 1);
  EXPECT_EQ(s.peek("y").bits(), 0xE1u);
  s.poke("op", 2);
  EXPECT_EQ(s.peek("y").bits(), 0x00u);
  s.poke("op", 3);
  EXPECT_EQ(s.peek("y").bits(), 0xFFu);
}

TEST(Codegen, ClockDividerDividesByFour) {
  TaskSpec spec;
  spec.kind = TaskKind::kClockDivider;
  spec.divide_by = 4;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.clock_cycle();
  s.poke("rst", 0);
  // clk_out toggles every 2 input cycles: period 4.
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 8; ++i) {
    s.clock_cycle();
    samples.push_back(s.peek("clk_out").bits());
  }
  EXPECT_EQ(samples, (std::vector<std::uint64_t>{0, 1, 1, 0, 0, 1, 1, 0}));
}

TEST(Codegen, EdgeDetectorPulsesOnce) {
  TaskSpec spec;
  spec.kind = TaskKind::kEdgeDetector;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.poke("sig", 0);
  s.clock_cycle();
  s.poke("rst", 0);
  s.clock_cycle();
  s.poke("sig", 1);
  EXPECT_EQ(s.peek("pulse").bits(), 1u);  // combinational rising detect
  s.clock_cycle();                         // prev catches up
  EXPECT_EQ(s.peek("pulse").bits(), 0u);
}

TEST(Codegen, FsmImplementsDiagram) {
  TaskSpec spec;
  spec.kind = TaskKind::kFsm;
  auto parsed = symbolic::parse_state_diagram(
      "A[out=0]-[x=0]->B\nA[out=0]-[x=1]->A\nB[out=1]-[x=0]->A\nB[out=1]-[x=1]->B\n");
  ASSERT_TRUE(parsed.diagram.has_value());
  spec.diagram = *parsed.diagram;
  sim::Simulator s = simulate(generate_source(spec));
  s.poke("clk", 0);
  s.poke("rst", 1);
  s.poke("x", 0);
  s.clock_cycle();
  s.poke("rst", 0);
  EXPECT_EQ(s.peek("out").bits(), 0u);  // state A
  s.clock_cycle();                       // x=0: A -> B
  EXPECT_EQ(s.peek("out").bits(), 1u);
  s.poke("x", 1);
  s.clock_cycle();                       // x=1: B -> B
  EXPECT_EQ(s.peek("out").bits(), 1u);
  s.poke("x", 0);
  s.clock_cycle();                       // x=0: B -> A
  EXPECT_EQ(s.peek("out").bits(), 0u);
}

TEST(Codegen, MinimalFormIsEquivalentToOriginal) {
  util::Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    TaskSpec spec = generate_task(rng);
    if (spec.kind != TaskKind::kCombExpr) continue;
    TaskSpec minimal = spec;
    minimal.want_minimal = true;
    util::Rng tb_rng(99);
    const auto diff = sim::run_diff_test(generate_source(minimal), generate_source(spec),
                                         sim::StimulusSpec{}, tb_rng);
    EXPECT_TRUE(diff.passed) << diff.reason;
  }
}


// Parameterized sweep: for every task kind, random specs must compile and
// the golden implementation must be self-consistent under the differential
// testbench (golden vs golden with a different RNG).
class PerKindCodegen : public ::testing::TestWithParam<TaskKind> {};

TEST_P(PerKindCodegen, GoldenCompilesAndSelfChecks) {
  const TaskKind kind = GetParam();
  util::Rng rng(0xc0de + static_cast<int>(kind));
  TaskGenConfig config;
  // Force the requested kind by zeroing every other weight.
  config.w_comb = kind == TaskKind::kCombExpr;
  config.w_fsm = kind == TaskKind::kFsm;
  config.w_counter = kind == TaskKind::kCounter;
  config.w_shift = kind == TaskKind::kShiftRegister;
  config.w_register = kind == TaskKind::kRegister;
  config.w_adder = kind == TaskKind::kAdder;
  config.w_mux = kind == TaskKind::kMux;
  config.w_decoder = kind == TaskKind::kDecoder;
  config.w_comparator = kind == TaskKind::kComparator;
  config.w_parity = kind == TaskKind::kParity;
  config.w_alu = kind == TaskKind::kAlu;
  config.w_clock_divider = kind == TaskKind::kClockDivider;
  config.w_edge_detector = kind == TaskKind::kEdgeDetector;

  for (int i = 0; i < 8; ++i) {
    const TaskSpec spec = generate_task(rng, config);
    ASSERT_EQ(spec.kind, kind);
    const std::string source = generate_source(spec);
    ASSERT_TRUE(verilog::compile_ok(source)) << source;

    sim::StimulusSpec stim;
    stim.sequential = spec.sequential();
    if (stim.sequential && spec.seq.reset != ResetKind::kNone) {
      stim.reset = spec.seq.reset_name();
      stim.reset_active_low = spec.seq.reset_active_low;
    }
    util::Rng tb(500 + i);
    const auto diff = sim::run_diff_test(source, source, stim, tb);
    EXPECT_TRUE(diff.passed) << diff.reason << "\n" << source;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PerKindCodegen,
    ::testing::Values(TaskKind::kCombExpr, TaskKind::kFsm, TaskKind::kCounter,
                      TaskKind::kShiftRegister, TaskKind::kRegister, TaskKind::kAdder,
                      TaskKind::kMux, TaskKind::kDecoder, TaskKind::kComparator,
                      TaskKind::kParity, TaskKind::kAlu, TaskKind::kClockDivider,
                      TaskKind::kEdgeDetector),
    [](const ::testing::TestParamInfo<TaskKind>& info) {
      return task_kind_name(info.param);
    });

// --- fault knobs produce observable failures ------------------------------------

TEST(CodegenFaults, IncompleteCaseFailsFunctionally) {
  TaskSpec spec;
  spec.kind = TaskKind::kCombExpr;
  spec.expr = logic::Expr::and_(logic::Expr::var("a"), logic::Expr::var("b"));
  spec.comb_inputs = {"a", "b"};
  CodegenOptions faulty;
  faulty.comb_as_incomplete_case = true;
  const std::string bad = generate_source(spec, faulty);
  EXPECT_TRUE(verilog::compile_ok(bad));  // compiles (it is "just" incomplete)
  util::Rng rng(1);
  const auto diff = sim::run_diff_test(bad, generate_source(spec), sim::StimulusSpec{}, rng);
  EXPECT_FALSE(diff.passed);
}

TEST(CodegenFaults, FsmWritingStateInCombDiverges) {
  util::Rng rng(31);
  TaskSpec spec;
  spec.kind = TaskKind::kFsm;
  spec.diagram = symbolic::generate_state_diagram(rng);
  CodegenOptions faulty;
  faulty.fsm_write_state_in_comb = true;
  sim::StimulusSpec stim;
  stim.sequential = true;
  stim.reset = "rst";
  stim.cycles = 64;
  util::Rng tb_rng(2);
  const auto diff =
      sim::run_diff_test(generate_source(spec, faulty), generate_source(spec), stim, tb_rng);
  EXPECT_FALSE(diff.passed);
}

TEST(CodegenFaults, OmittedCaseItemBreaksReachableFsm) {
  util::Rng rng(32);
  symbolic::StateDiagramGenConfig config;
  config.min_states = 4;
  config.max_states = 4;
  TaskSpec spec;
  spec.kind = TaskKind::kFsm;
  spec.diagram = symbolic::generate_state_diagram(rng, config);
  CodegenOptions faulty;
  faulty.include_default_case = false;
  faulty.omit_case_item = 1;
  sim::StimulusSpec stim;
  stim.sequential = true;
  stim.reset = "rst";
  stim.cycles = 96;
  util::Rng tb_rng(3);
  const auto diff =
      sim::run_diff_test(generate_source(spec, faulty), generate_source(spec), stim, tb_rng);
  EXPECT_FALSE(diff.passed);
}

TEST(CodegenFaults, BlockingInClockedBreaksEdgeDetector) {
  TaskSpec spec;
  spec.kind = TaskKind::kEdgeDetector;
  CodegenOptions faulty;
  faulty.nonblocking_in_clocked = false;
  // With blocking assignment, sig_prev updates before pulse is recomputed in
  // the same instant -> the single-register design still works in many sims,
  // but differences are at least lint-visible.
  const std::string bad = generate_source(spec, faulty);
  verilog::ParseOutput parsed = verilog::parse_source(bad);
  ASSERT_TRUE(parsed.ok() && !parsed.file.modules.empty());
  const lint::LintResult r = lint::lint_module(parsed.file.modules.front(), &parsed.file);
  bool warned = false;
  for (const auto& f : r.findings) warned = warned || f.rule == lint::Rule::kBlockingInSeq;
  EXPECT_TRUE(warned);
}

TEST(CodegenFaults, MalformedSpecThrows) {
  TaskSpec spec;
  spec.kind = TaskKind::kCombExpr;  // expr left null
  EXPECT_THROW(generate_source(spec), std::invalid_argument);
}

}  // namespace
}  // namespace haven::llm
