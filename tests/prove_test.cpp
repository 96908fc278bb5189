// haven::prove unit tests: AIG/BDD kernels, the equivalence verdict on
// hand-written pairs (cross-checked against the diff testbench), the
// unsupported/budget escape hatches, and the golden self-proof calibration
// sweep over every suite (DESIGN.md §12). Engine-level verdict identity
// lives in eval_prove_diff_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "eval/suites.h"
#include "prove/aig.h"
#include "prove/bdd.h"
#include "prove/lower.h"
#include "prove/prove.h"
#include "sim/program.h"
#include "sim/testbench.h"
#include "util/rng.h"
#include "verilog/parser.h"

namespace haven::prove {
namespace {

TEST(Aig, ConstantAndUnitFolds) {
  Budget budget(0);
  Aig aig(&budget);
  const Lit a = aig.add_input();
  const Lit b = aig.add_input();
  EXPECT_EQ(aig.land(kFalse, a), kFalse);
  EXPECT_EQ(aig.land(kTrue, a), a);
  EXPECT_EQ(aig.land(a, a), a);
  EXPECT_EQ(aig.land(a, lit_not(a)), kFalse);
  EXPECT_EQ(aig.lor(a, lit_not(a)), kTrue);
  EXPECT_EQ(aig.lxor(a, a), kFalse);
  EXPECT_EQ(aig.lxor(a, lit_not(a)), kTrue);
  // Structural hashing: the same AND built twice (in either operand order)
  // is one node.
  const Lit ab1 = aig.land(a, b);
  const Lit ab2 = aig.land(b, a);
  EXPECT_EQ(ab1, ab2);
}

TEST(Aig, BudgetChargesAndThrows) {
  Budget budget(5);  // inputs charge too: 3 inputs + 2 ANDs exhaust it
  Aig aig(&budget);
  const Lit a = aig.add_input();
  const Lit b = aig.add_input();
  const Lit c = aig.add_input();
  (void)aig.land(a, b);
  (void)aig.land(b, c);
  EXPECT_EQ(budget.used(), 5u);
  EXPECT_THROW((void)aig.land(a, c), BudgetExceededError);
}

// The strash and BDD tables' map: every inserted key is found again, with
// its value, after the table has doubled several times, and a key that
// differs in one bit is absent.
TEST(FlatMap, FindsEveryKeyAcrossGrowth) {
  FlatMap<std::uint64_t, Mix64> map;
  const auto key = [](std::uint64_t i) { return i << 32 | (i * 7); };
  for (std::uint32_t i = 1; i <= 5000; ++i) map.insert(key(i), i);
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    const std::uint32_t* hit = map.find(key(i));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(*hit, i);
    EXPECT_EQ(map.find(key(i) ^ 1), nullptr) << i;
  }
}

TEST(Bdd, CanonicityAndTerminalCases) {
  Budget budget(0);
  Bdd bdd(&budget);
  const Bdd::Ref x = bdd.var(0);
  const Bdd::Ref y = bdd.var(1);
  EXPECT_EQ(bdd.land(x, Bdd::kTrueRef), x);
  EXPECT_EQ(bdd.land(x, Bdd::kFalseRef), Bdd::kFalseRef);
  EXPECT_EQ(bdd.land(x, x), x);
  EXPECT_EQ(bdd.land(x, Bdd::lnot(x)), Bdd::kFalseRef);
  // x & y built twice is the same reference (unique table + and-cache).
  EXPECT_EQ(bdd.land(x, y), bdd.land(y, x));
  // De Morgan at the reference level: ~(~x & ~y) == x | y != FALSE.
  const Bdd::Ref nor = bdd.land(Bdd::lnot(x), Bdd::lnot(y));
  EXPECT_NE(Bdd::lnot(nor), Bdd::kFalseRef);
}

// --- prove_equivalence on source pairs --------------------------------------

ProveResult prove_sources(const std::string& dut_src, const std::string& golden_src,
                          const sim::StimulusSpec& spec, const ProveOptions& opts = {}) {
  verilog::ParseOutput dut = verilog::parse_source(dut_src);
  verilog::ParseOutput golden = verilog::parse_source(golden_src);
  EXPECT_TRUE(dut.ok() && !dut.file.modules.empty()) << dut_src;
  EXPECT_TRUE(golden.ok() && !golden.file.modules.empty()) << golden_src;
  return prove_equivalence(dut.file.modules.front(), &dut.file, golden.file.modules.front(),
                           &golden.file, spec, opts);
}

// The prover's verdict must agree with the diff testbench on the same pair.
void expect_matches_simulation(const std::string& dut_src, const std::string& golden_src,
                               const sim::StimulusSpec& spec, ProveStatus status) {
  util::Rng rng(0x5eed);
  const sim::DiffResult diff = sim::run_diff_test(dut_src, golden_src, spec, rng);
  if (status == ProveStatus::kEquivalent) {
    EXPECT_TRUE(diff.passed) << diff.reason;
  } else {
    EXPECT_FALSE(diff.passed);
  }
}

constexpr char kGoldenMux[] =
    "module top(input wire s, input wire a, input wire b, output wire y);\n"
    "  assign y = s ? a : b;\n"
    "endmodule\n";

TEST(Prove, SelfEquivalenceCollapsesWithoutBdd) {
  const ProveResult r = prove_sources(kGoldenMux, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  // Shared lowering + structural hashing: golden-vs-self folds to constant
  // FALSE before any decision procedure runs.
  EXPECT_FALSE(r.used_bdd);
}

TEST(Prove, StructurallyDifferentEquivalentNeedsBdd) {
  // Same mux, AND/OR decomposition: y = (s & a) | (~s & b).
  const std::string dut =
      "module top(input wire s, input wire a, input wire b, output wire y);\n"
      "  assign y = (s & a) | (~s & b);\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, kGoldenMux, sim::StimulusSpec{}, r.status);
}

TEST(Prove, DeMorganEquivalent) {
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = ~(a & b);\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = ~a | ~b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, AdderDecompositionEquivalent) {
  const std::string golden =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = a + b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = (a ^ b) + ((a & b) << 1);\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, CaseVersusTernaryEquivalent) {
  const std::string dut =
      "module top(input wire s, input wire a, input wire b, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      1'b1: y = a;\n"
      "      default: y = b;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, kGoldenMux, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, kGoldenMux, sim::StimulusSpec{}, r.status);
}

TEST(Prove, InequivalentGateSwap) {
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a | b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kInequivalent);
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

TEST(Prove, LatchingDutFallsBackToSimulation) {
  const std::string golden =
      "module top(input wire a, output wire y);\n"
      "  assign y = a;\n"
      "endmodule\n";
  // y is assigned on some but not all paths (a comb latch): the lowering
  // cannot model the stateful settle, so the prover must defer to the
  // testbench — NOT guess a verdict.
  const std::string dut =
      "module top(input wire a, output reg y);\n"
      "  always @(*) if (a) y = 1'b1;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kUnsupported);
  EXPECT_NE(r.reason.find("latches"), std::string::npos) << r.reason;
  // The simulated fallback then fails the candidate (dut X where golden is
  // defined on the a=0 vector).
  util::Rng rng(7);
  EXPECT_FALSE(sim::run_diff_test(dut, golden, sim::StimulusSpec{}, rng).passed);
}

TEST(Prove, InterfaceMismatchMatchesTestbenchReason) {
  const std::string dut =
      "module top(input wire a, output wire y);\n"
      "  assign y = a;\n"
      "endmodule\n";
  const std::string golden =
      "module top(input wire a, input wire b, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kInequivalent);
  EXPECT_EQ(r.reason, "missing port 'b'");
  util::Rng rng(1);
  const sim::DiffResult diff = sim::run_diff_test(dut, golden, sim::StimulusSpec{}, rng);
  EXPECT_FALSE(diff.passed);
  EXPECT_EQ(diff.reason, r.reason);
}

TEST(Prove, SequentialSpecUnsupported) {
  sim::StimulusSpec spec;
  spec.sequential = true;
  const std::string golden =
      "module top(input wire clk, input wire d, output reg q);\n"
      "  always @(posedge clk) q <= d;\n"
      "endmodule\n";
  EXPECT_EQ(prove_sources(golden, golden, spec).status, ProveStatus::kUnsupported);
  verilog::ParseOutput g = verilog::parse_source(golden);
  EXPECT_FALSE(spec_provable(g.file.modules.front(), spec));
  EXPECT_FALSE(golden_provable(g.file.modules.front(), &g.file, spec));
}

TEST(Prove, WideInputSpaceUnsupported) {
  // 32 input bits exceeds the exhaustive sweep (max_exhaustive_bits = 12
  // default): the testbench would fall back to random vectors, where a proof
  // is no longer verdict-identical.
  const std::string golden =
      "module top(input wire [31:0] a, output wire [31:0] y);\n"
      "  assign y = ~a;\n"
      "endmodule\n";
  const ProveResult r = prove_sources(golden, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kUnsupported);
  verilog::ParseOutput g = verilog::parse_source(golden);
  EXPECT_FALSE(spec_provable(g.file.modules.front(), sim::StimulusSpec{}));
}

TEST(Prove, TinyBudgetExceeded) {
  const std::string golden =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = a + b;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s);\n"
      "  assign s = b + a;\n"
      "endmodule\n";
  ProveOptions opts;
  opts.node_budget = 3;
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{}, opts);
  EXPECT_EQ(r.status, ProveStatus::kBudgetExceeded);
}

TEST(Prove, GoldenXBitsAreUnconstrained) {
  // The golden reads past its input's width, so y is X on every vector
  // (4-state semantics, matching the simulator's out-of-range bit-select).
  // The testbench only checks golden-defined bits, so ANY dut passes.
  const std::string golden =
      "module top(input wire [1:0] a, output wire y);\n"
      "  assign y = a[2];\n"
      "endmodule\n";
  const std::string dut =
      "module top(input wire [1:0] a, output wire y);\n"
      "  assign y = a[0] ^ a[1];\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

// --- the executor, one opcode at a time --------------------------------------

// A W-bit binary literal with random 0/1/x/z digits (about a third of the
// samples carry unknown bits); half the samples are small values, so shift
// counts, indices and exponents land in range.
std::string random_literal(util::Rng& rng, int w) {
  const std::uint64_t mask = w >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  std::uint64_t bits = rng.next() & mask;
  if (rng.next() & 1) bits = rng.next() % static_cast<std::uint64_t>(w + 3) & mask;
  const std::uint64_t xz = rng.next() % 3 == 0 ? rng.next() & rng.next() & mask : 0;
  std::string digits;
  for (int i = w - 1; i >= 0; --i) {
    if ((xz >> i) & 1) digits += (rng.next() & 1) ? 'x' : 'z';
    else digits += ((bits >> i) & 1) ? '1' : '0';
  }
  return std::to_string(w) + "'b" + digits;
}

// Lowers `src` with no swept inputs, so every word must be a constant, and
// requires each signal to equal the compiled simulator's settled value.
void expect_lowering_matches_simulator(const std::string& src) {
  verilog::ParseOutput parsed = verilog::parse_source(src);
  ASSERT_TRUE(parsed.ok()) << src;
  const sim::ElabDesign design = sim::elaborate(parsed.file.modules.front(), &parsed.file);
  Budget budget(0);
  Aig aig(&budget);
  std::vector<Word> words;
  try {
    words = lower_design(&aig, sim::compile(design), {});
  } catch (const UnsupportedError& e) {
    FAIL() << e.reason << "\n" << src;
  }
  const sim::CompiledSimulator simulator(design);
  ASSERT_TRUE(simulator.converged()) << src;
  ASSERT_EQ(words.size(), design.signals.size());
  for (std::size_t s = 0; s < words.size(); ++s) {
    const sim::Value want = simulator.peek(design.signals[s].name);
    ASSERT_EQ(words[s].width(), want.width()) << design.signals[s].name << "\n" << src;
    std::uint64_t bits = 0, xz = 0;
    for (int i = 0; i < want.width(); ++i) {
      const Bit& b = words[s].bits[static_cast<std::size_t>(i)];
      ASSERT_TRUE(aig.is_const(b.v) && aig.is_const(b.x)) << src;
      bits |= std::uint64_t{b.v == kTrue} << i;
      xz |= std::uint64_t{b.x == kTrue} << i;
    }
    EXPECT_TRUE(sim::Value::with_xz(bits, xz, want.width()).identical(want))
        << design.signals[s].name << ": lowered " << bits << "/" << xz << " simulated "
        << want.to_string() << "\n" << src;
  }
}

// Every opcode the executor handles, on constant operands with X/Z bits at
// widths 1-64: initial blocks set the operands (so the comb body is
// triggered), and the body applies one operator or statement shape.
TEST(ProveLower, EveryOpMatchesTheCompiledSimulator) {
  const std::vector<std::string> exprs = {
      "a & b", "a | b", "a ^ b", "a + b", "a - b", "a * b", "a / b", "a % b", "a ** b",
      "a << b", "a >> b", "a == b", "a != b", "a === b", "a !== b", "a < b", "a <= b",
      "a > b", "a >= b", "a && b", "a || b", "~a", "-a", "!a", "&a", "|a", "^a", "~&a",
      "~|a", "~^a", "c ? a : b", "a[b]", "a ~^ b"};
  const std::vector<std::string> bodies = {
      "begin y = 64'd0; y[b] = c; end",
      "begin y = {64{c}}; y[3] = a[0]; y[70] = c; end",
      "{y[40:33], y[32:0]} = a - b;",
      "if (c) y = a; else y = b;",
      "case (a) LA: y = 64'd1; LB, LC: y = 64'd2; default: y = 64'd3; endcase",
      "casez (a) LA: y = 64'd1; LB: y = 64'd2; default: y = 64'd3; endcase",
      "casex (a) LA: y = 64'd1; LB: y = 64'd2; default: y = a ^ b; endcase"};
  util::Rng rng(0x0b5e55);
  for (int w = 1; w <= 64; ++w) {
    for (int sample = 0; sample < 2; ++sample) {
      const std::string head = "module m(output reg [63:0] y);\n  reg [" + std::to_string(w - 1) +
                               ":0] a, b;\n  reg c;\n  initial begin a = " +
                               random_literal(rng, w) + "; b = " + random_literal(rng, w) +
                               "; c = " + random_literal(rng, 1) + "; end\n";
      std::vector<std::string> cases;
      for (const std::string& e : exprs) cases.push_back("always @* y = " + e + ";");
      if (w < 64) cases.push_back("always @* y = {c, a};");
      if (2 * w <= 64) cases.push_back("always @* y = {a, b} ^ {2{b}};");
      const int lo = static_cast<int>(rng.next() % static_cast<std::uint64_t>(w + 2));
      const int hi = lo + static_cast<int>(rng.next() % 8);
      cases.push_back("always @* y = a[" + std::to_string(hi) + ":" + std::to_string(lo) + "];");
      for (std::string body : bodies) {
        for (const char* label : {"LA", "LB", "LC"}) {
          const std::size_t at = body.find(label);
          if (at != std::string::npos) body.replace(at, 2, random_literal(rng, w));
        }
        cases.push_back("always @* " + body);
      }
      for (const std::string& c : cases)
        expect_lowering_matches_simulator(head + "  " + c + "\nendmodule\n");
    }
  }
}

// A comb body whose only reads are its own write-before-read targets runs
// on every backend at construction, and the prover agrees with both.
TEST(Prove, SelfOnlyReaderAgreesWithSimulation) {
  const std::string dut =
      "module top_module(input a, output reg y);\n"
      "  reg t;\n"
      "  always @* begin t = 1'b1; y = t; end\n"
      "endmodule\n";
  const std::string golden = "module top_module(input a, output y); assign y = a | 1'b1; endmodule\n";
  sim::StimulusSpec spec;
  EXPECT_EQ(prove_sources(dut, golden, spec).status, ProveStatus::kEquivalent);
  for (const sim::SimBackend backend : {sim::SimBackend::kCompiled, sim::SimBackend::kInterpreter}) {
    spec.backend = backend;
    util::Rng rng(11);
    const sim::DiffResult diff = sim::run_diff_test(dut, golden, spec, rng);
    EXPECT_TRUE(diff.passed) << diff.reason;
  }
}

// Blocking bit-select writes after a full default are decided, and agree
// with the testbench on the equivalent form and on a mutant.
TEST(Prove, DynamicBitSelectWritesDecided) {
  const std::string golden =
      "module top(input [1:0] sel, input d, output [3:0] y);\n"
      "  assign y = {3'b0, d} << sel;\n"
      "endmodule\n";
  const std::string dut =
      "module top(input [1:0] sel, input d, output reg [3:0] y);\n"
      "  always @* begin y = 4'b0; y[sel] = d; y[3'd5] = 1'b1; end\n"
      "endmodule\n";
  const std::string mutant =
      "module top(input [1:0] sel, input d, output reg [3:0] y);\n"
      "  always @* begin y = 4'b0; y[sel] = ~d; end\n"
      "endmodule\n";
  const ProveResult eq = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(eq.status, ProveStatus::kEquivalent) << eq.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, eq.status);
  const ProveResult ne = prove_sources(mutant, golden, sim::StimulusSpec{});
  EXPECT_EQ(ne.status, ProveStatus::kInequivalent) << ne.reason;
  expect_matches_simulation(mutant, golden, sim::StimulusSpec{}, ne.status);
}

// Two processes driving disjoint bits of one signal run on the levelized
// schedule the simulator uses, so the prover now decides them.
TEST(Prove, DisjointBitWritersDecided) {
  const std::string golden =
      "module top(input a, input b, output [3:0] y); assign y = {b, a, a, b}; endmodule\n";
  const std::string dut =
      "module top(input a, input b, output reg [3:0] y);\n"
      "  always @* y[1:0] = {a, b};\n"
      "  always @* y[3:2] = {b, a};\n"
      "endmodule\n";
  const ProveResult r = prove_sources(dut, golden, sim::StimulusSpec{});
  EXPECT_EQ(r.status, ProveStatus::kEquivalent) << r.reason;
  expect_matches_simulation(dut, golden, sim::StimulusSpec{}, r.status);
}

// Shapes the levelizer keeps event-driven fall back to simulation, with the
// failed rule as the reason; the testbench still decides them.
TEST(Prove, UnlevelizedShapesFallBackToSimulation) {
  std::string chain = "module top(input a, output y);\n  wire t0;\n  assign t0 = a;\n";
  for (int i = 1; i <= 70; ++i) {
    const std::string t = "t" + std::to_string(i);
    chain += "  wire " + t + ";\n  assign " + t + " = ~t" + std::to_string(i - 1) + ";\n";
  }
  chain += "  assign y = t70;\nendmodule\n";
  const struct {
    std::string dut, golden, reason;
    bool passes;
  } cases[] = {
      {"module top(input [3:0] a, output reg [3:0] y);\n  integer i;\n"
       "  always @* for (i = 0; i < 4; i = i + 1) y[i] = a[3 - i];\nendmodule\n",
       "module top(input [3:0] a, output [3:0] y); assign y = {a[0], a[1], a[2], a[3]}; "
       "endmodule\n",
       "for-loop in a combinational process", false},  // i re-triggers the body
      {chain, "module top(input a, output y); assign y = a; endmodule\n",
       "combinational chain deeper", true},
      {"module top(input a, output y); assign y = 1'b1 ? a : ghost; endmodule\n",
       "module top(input a, output y); assign y = a; endmodule\n",
       "combinational process may fault", true},
      {"module top(input a, output [1:0] y); assign y[0] = a; assign y[1] = ~a; endmodule\n",
       "module top(input a, output [1:0] y); assign y = {~a, a}; endmodule\n",
       "unsupported continuous-assignment target", true},
  };
  for (const auto& c : cases) {
    const ProveResult r = prove_sources(c.dut, c.golden, sim::StimulusSpec{});
    EXPECT_EQ(r.status, ProveStatus::kUnsupported) << c.dut;
    EXPECT_NE(r.reason.find(c.reason), std::string::npos) << r.reason;
    util::Rng rng(12);
    const sim::DiffResult diff = sim::run_diff_test(c.dut, c.golden, sim::StimulusSpec{}, rng);
    EXPECT_EQ(diff.passed, c.passes) << diff.reason << "\n" << c.dut;
  }
}

// --- golden self-proof calibration ------------------------------------------

// Every provable suite golden must prove equivalent to itself: the lowering
// is deterministic and the shared AIG strashes both copies onto the same
// nodes. Any kInequivalent here would be a soundness bug; any kUnsupported
// contradicts golden_provable's dry run.
void calibrate_suite(const eval::Suite& suite, int* provable, int* comb) {
  for (const eval::EvalTask& task : suite.tasks) {
    if (task.stimulus.sequential) continue;
    ++*comb;
    verilog::ParseOutput g = verilog::parse_source(task.golden_source);
    ASSERT_TRUE(g.ok() && !g.file.modules.empty()) << task.id;
    const verilog::Module& gm = g.file.modules.front();
    if (!golden_provable(gm, &g.file, task.stimulus)) continue;
    ++*provable;
    const ProveResult r = prove_equivalence(gm, &g.file, gm, &g.file, task.stimulus);
    EXPECT_EQ(r.status, ProveStatus::kEquivalent)
        << suite.name << "/" << task.id << ": " << r.reason;
  }
}

TEST(ProveCalibration, EverySuiteGoldenSelfProves) {
  int provable = 0;
  int comb = 0;
  calibrate_suite(eval::build_verilogeval_machine(), &provable, &comb);
  calibrate_suite(eval::build_verilogeval_human(), &provable, &comb);
  calibrate_suite(eval::build_verilogeval_v2(), &provable, &comb);
  calibrate_suite(eval::build_rtllm(), &provable, &comb);
  calibrate_suite(eval::build_symbolic44(), &provable, &comb);
  // The fast-path must actually cover a real share of the corpus.
  EXPECT_GT(provable, 0);
  EXPECT_GT(comb, 0);
}

// The two comb modalities of the symbolic suite (waveform- and truth-table-
// specified tasks) both calibrate: the modality only changes the prompt, not
// the golden, so provability is modality-independent.
TEST(ProveCalibration, SymbolicSuiteBothModalities) {
  const eval::Suite suite = eval::build_symbolic44();
  int provable = 0;
  int comb = 0;
  calibrate_suite(suite, &provable, &comb);
  EXPECT_GT(provable, 0);
}

}  // namespace
}  // namespace haven::prove
