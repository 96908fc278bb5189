// Differential tests: sim::CompiledSimulator vs the sim::Simulator oracle.
//
// Every design is driven through both backends with identical stimulus and
// compared on every elaborated signal after every poke — plus convergence
// flags, lazy-error messages, and (for event-driven programs) the exact
// step/activation counters. Suite-level parity over the built-in tasks
// lives in eval_backend_diff_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/compile.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "verilog/parser.h"

namespace haven::sim {
namespace {

ElabDesign elab(const std::string& src) {
  verilog::ParseOutput out = verilog::parse_source(src);
  EXPECT_TRUE(out.ok()) << (out.diagnostics.empty() ? "" : out.diagnostics[0].to_string());
  return elaborate(out.file.modules.front(), &out.file);
}

void expect_same_state(const Simulator& interp, const CompiledSimulator& comp,
                       const ElabDesign& design, const std::string& context) {
  for (const auto& sig : design.signals) {
    const Value a = interp.peek(sig.name);
    const Value b = comp.peek(sig.name);
    EXPECT_TRUE(a.identical(b)) << context << ": signal '" << sig.name << "' interp="
                                << a.to_string() << " compiled=" << b.to_string();
  }
  EXPECT_EQ(interp.converged(), comp.converged()) << context;
}

// Drive all inputs of both backends with the same deterministic pseudo-random
// vectors and compare the full signal state after every poke.
void drive_diff(const std::string& src, int vectors = 100) {
  const ElabDesign design = elab(src);
  Simulator interp(design);
  CompiledSimulator comp(design);
  expect_same_state(interp, comp, design, "after construction");

  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int v = 0; v < vectors; ++v) {
    for (const auto& input : design.inputs) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t val = x >> 16;
      interp.poke(input, val);
      comp.poke(input, val);
      expect_same_state(interp, comp, design,
                        "vector " + std::to_string(v) + " input " + input);
    }
  }
  // Drive X through every input as well.
  for (const auto& input : design.inputs) {
    interp.poke_x(input);
    comp.poke_x(input);
    expect_same_state(interp, comp, design, "poke_x " + input);
  }
}

bool is_levelized(const std::string& src) { return compile(elab(src)).levelized; }

TEST(CompiledSim, ContAssignChainLevelized) {
  const std::string src = R"(
module m(input a, input b, output y);
  wire t1, t2, t3;
  assign t1 = a ^ b;
  assign t2 = ~t1;
  assign t3 = t2 & a;
  assign y = t3 | b;
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src);
}

TEST(CompiledSim, AluOpsParity) {
  const std::string src = R"(
module alu(input [3:0] op, input [7:0] a, input [7:0] b, output [7:0] y, output zero);
  assign y = (op == 4'd0) ? a + b :
             (op == 4'd1) ? a - b :
             (op == 4'd2) ? a & b :
             (op == 4'd3) ? a | b :
             (op == 4'd4) ? a ^ b :
             (op == 4'd5) ? ~a :
             (op == 4'd6) ? a << b[2:0] :
             (op == 4'd7) ? a >> b[2:0] :
             (op == 4'd8) ? {8{a[0]}} :
             (op == 4'd9) ? a * b :
             (op == 4'd10) ? a / b :
             (op == 4'd11) ? a % b :
             (op == 4'd12) ? {a[3:0], b[3:0]} :
             (op == 4'd13) ? ((a < b) ? 8'd1 : 8'd0) :
             (op == 4'd14) ? ((a >= b) ? 8'd1 : 8'd0) :
             a ^ 8'hff;
  assign zero = y == 8'd0;
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src, 200);
}

TEST(CompiledSim, ReductionsAndLogicalOpsParity) {
  drive_diff(R"(
module m(input [7:0] a, input [7:0] b, output [6:0] y);
  assign y = {&a, |a, ^a, ~&a, ~|a, ~^a, (a && b) || !(a != b)};
endmodule
)");
}

TEST(CompiledSim, FsmCaseLevelizedParity) {
  const std::string src = R"(
module fsm(input clk, input rst, input in, output reg [1:0] state, output reg out);
  reg [1:0] next;
  always @(*) begin
    out = state == 2'd2;
    case (state)
      2'd0: next = in ? 2'd1 : 2'd0;
      2'd1: next = in ? 2'd2 : 2'd0;
      2'd2: next = in ? 2'd2 : 2'd3;
      default: next = 2'd0;
    endcase
  end
  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else state <= next;
  end
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  const ElabDesign design = elab(src);
  Simulator interp(design);
  CompiledSimulator comp(design);
  std::uint64_t x = 99;
  auto cycle = [&](std::uint64_t rst, std::uint64_t in) {
    interp.poke("rst", rst);
    comp.poke("rst", rst);
    interp.poke("in", in);
    comp.poke("in", in);
    interp.clock_cycle();
    comp.clock_cycle();
    expect_same_state(interp, comp, design, "fsm cycle");
  };
  cycle(1, 0);
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    cycle(0, (x >> 40) & 1);
  }
}

TEST(CompiledSim, LatchShapedBodyFallsBackAndMatches) {
  // Incomplete if: y latches its old value, which only the event-driven
  // schedule reproduces; the compiler must refuse to levelize it.
  const std::string src = R"(
module m(input en, input d, output reg y);
  always @(*) if (en) y = d;
endmodule
)";
  EXPECT_FALSE(is_levelized(src));
  drive_diff(src);
}

TEST(CompiledSim, WriteBeforeReadTempLevelized) {
  // Blocking temp read-after-write inside one body: `t`'s entry value is
  // dead at every read, so one final-input execution already computes the
  // event-driven fixpoint and the compiler may levelize the process.
  const std::string src = R"(
module m(input [3:0] a, input [3:0] b, output reg [3:0] y);
  reg [3:0] t;
  always @(*) begin
    t = a ^ b;
    y = t + a;
  end
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src);
}

TEST(CompiledSim, SelfOnlyReaderRunsAtConstruction) {
  // The body reads nothing but its own write-before-read target, so only its
  // self-watch entry triggers it: the levelized sweep must still run it when
  // the constructor marks every signal dirty, as the interpreter does.
  const std::string src = R"(
module top_module(input a, output reg y);
  reg t;
  always @* begin
    t = 1'b1;
    y = t;
  end
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src);
  EXPECT_EQ(CompiledSimulator(elab(src)).peek("y").to_string(), "1'b1");
}

TEST(CompiledSim, BitSelectWritesLevelized) {
  // Blocking bit-select writes in comb bodies: dynamic indices after a full
  // default (in range, out of range, X), constant indices covering every
  // bit, and constant X / out-of-range indices that write nothing.
  const std::string src = R"(
module m(input [2:0] sel, input d, input [7:0] base, output reg [7:0] y,
         output reg [3:0] z, output reg [1:0] w, output reg [7:0] v);
  always @(*) begin
    y = base;
    y[sel] = d;
  end
  always @(*) begin
    z = 4'b0;
    z[sel] = d;
    z[1] = ~d;
    z[4'd9] = d;
    z[1'bx] = d;
  end
  always @(*) begin
    w[0] = d;
    w[1] = sel[0];
  end
  always @(*) begin
    v = y;
    v[{1'b0, sel[1:0]} + 3'd4] = y[sel];
  end
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src, 200);
}

TEST(CompiledSim, BitSelectLatchAndSelfReadsFallBack) {
  // A dynamic bit write with no full default may keep old bits (a latch);
  // an index read of the target before any full write sees the previous
  // activation; a body reading a signal it bit-writes re-triggers itself on
  // the interpreter. All stay event-driven, and match.
  const std::string latch = R"(
module m(input [1:0] sel, input d, output reg [3:0] y);
  always @(*) y[sel] = d;
endmodule
)";
  EXPECT_FALSE(is_levelized(latch));
  EXPECT_STREQ(compile(elab(latch)).levelize_failure,
               "signal latches: assigned on some but not all paths");
  drive_diff(latch);
  const std::string self_index = R"(
module m(input [1:0] sel, input d, output reg [3:0] y);
  always @(*) begin
    y[y[1:0]] = d;
    y = {2'b0, sel};
  end
endmodule
)";
  EXPECT_FALSE(is_levelized(self_index));
  drive_diff(self_index);
  const std::string self_read = R"(
module m(input [1:0] sel, input d, output reg [3:0] y, output reg o);
  always @(*) begin
    y = 4'b0;
    y[sel] = d;
    o = ^y;
  end
endmodule
)";
  EXPECT_STREQ(compile(elab(self_read)).levelize_failure,
               "reads a signal it writes through a bit select");
  drive_diff(self_read);
}

TEST(CompiledSim, ReadBeforeWriteSelfFeedbackFallsBack) {
  // Here the first statement reads `t` from the previous iteration before
  // the body overwrites it — genuine state feedback that only the delta
  // loop reproduces; the compiler must refuse to levelize it.
  const std::string src = R"(
module m(input [3:0] a, input [3:0] b, output reg [3:0] y);
  reg [3:0] t;
  always @(*) begin
    y = t + a;
    t = a ^ b;
  end
endmodule
)";
  EXPECT_FALSE(is_levelized(src));
  drive_diff(src);
}

TEST(CompiledSim, PartialSelfWriteLevelizedWhenWrittenFirst) {
  // The body writes only t[1:0] and reads the whole of t afterwards. The
  // bits it writes are written before the read; the bits it never writes
  // (t[3:2], power-up X here) read the same value under either schedule, so
  // the process still levelizes.
  const std::string src = R"(
module m(input [1:0] a, input [1:0] b, output reg [3:0] y);
  reg [3:0] t;
  always @(*) begin
    t[1:0] = a ^ b;
    y = t & {2'd0, a};
  end
endmodule
)";
  EXPECT_TRUE(is_levelized(src));
  drive_diff(src);
}

TEST(CompiledSim, CombLoopXFixpointConvergesOnBoth) {
  // A zero-delay loop through 4-state logic settles at the X fixpoint:
  // pessimistic but convergent — and must never be levelized.
  const std::string src = R"(
module m(input a, output y);
  assign y = ~y | a;
endmodule
)";
  EXPECT_FALSE(is_levelized(src));
  const ElabDesign design = elab(src);
  Simulator interp(design);
  CompiledSimulator comp(design);
  interp.poke("a", 0);
  comp.poke("a", 0);
  EXPECT_TRUE(interp.converged());
  EXPECT_TRUE(comp.converged());
  EXPECT_TRUE(comp.peek("y").is_all_x());
  expect_same_state(interp, comp, design, "x fixpoint");
}

TEST(CompiledSim, TrueOscillationDetectedOnBoth) {
  // if(X) takes the else branch and defines y, after which the body toggles
  // it forever: a genuine zero-delay oscillation on both backends.
  const std::string src = R"(
module osc(input a, output reg y);
  always @(*)
    if (y) y = 1'b0;
    else y = 1'b1;
endmodule
)";
  EXPECT_FALSE(is_levelized(src));
  const ElabDesign design = elab(src);
  Simulator interp(design);
  CompiledSimulator comp(design);
  interp.poke("a", 0);
  comp.poke("a", 0);
  EXPECT_FALSE(interp.converged());
  EXPECT_FALSE(comp.converged());
}

TEST(CompiledSim, NonblockingSwapParity) {
  drive_diff(R"(
module m(input clk, input [3:0] seed, output reg [3:0] a, output reg [3:0] b);
  initial begin
    a = 4'd3;
    b = 4'd12;
  end
  always @(posedge clk) begin
    a <= b ^ seed;
    b <= a;
  end
endmodule
)");
}

TEST(CompiledSim, ForLoopAndDynamicIndexParity) {
  drive_diff(R"(
module m(input [7:0] data, input [2:0] idx, output reg [7:0] rev, output reg sel);
  integer i;
  always @(*) begin
    for (i = 0; i < 8; i = i + 1)
      rev[i] = data[7 - i];
    sel = data[idx];
  end
endmodule
)", 20);  // the induction variable self-retrigger makes the interpreter
          // burn the full delta cap per poke — keep the vector count small
}

TEST(CompiledSim, ConcatLvalueParity) {
  drive_diff(R"(
module m(input [7:0] a, input [7:0] b, input cin, output [7:0] sum, output cout);
  assign {cout, sum} = a + b + cin;
endmodule
)");
}

TEST(CompiledSim, CasezCasexParity) {
  drive_diff(R"(
module m(input [3:0] a, output reg [1:0] yz, output reg [1:0] yx);
  always @(*) begin
    casez (a)
      4'b1zzz: yz = 2'd3;
      4'b01zz: yz = 2'd2;
      4'b001z: yz = 2'd1;
      default: yz = 2'd0;
    endcase
    casex (a)
      4'b1xxx: yx = 2'd3;
      4'b01xx: yx = 2'd2;
      default: yx = 2'd0;
    endcase
  end
endmodule
)");
}

TEST(CompiledSim, PartSelectsAndXPropagationParity) {
  drive_diff(R"(
module m(input [15:0] w, input [3:0] n, output [7:0] hi, output [7:0] lo, output [3:0] mix);
  assign hi = w[15:8];
  assign lo = w[7:0];
  assign mix = n[0] ? w[3:0] : w[11:8];
endmodule
)");
}

TEST(CompiledSim, DerivedClockDividerParity) {
  drive_diff(R"(
module m(input clk, output reg tick, output reg [3:0] slow);
  always @(posedge clk) tick <= ~tick;
  always @(posedge tick) slow <= slow + 4'd1;
  initial begin
    tick = 0;
    slow = 0;
  end
endmodule
)", 200);
}

TEST(CompiledSim, HierarchyFlatteningParity) {
  drive_diff(R"(
module m(input a, input b, input cin, output sum, output cout);
  wire s1, c1, c2;
  half_adder ha1(.x(a), .y(b), .s(s1), .c(c1));
  half_adder ha2(.x(s1), .y(cin), .s(sum), .c(c2));
  assign cout = c1 | c2;
endmodule
module half_adder(input x, input y, output s, output c);
  assign s = x ^ y;
  assign c = x & y;
endmodule
)");
}

TEST(CompiledSim, StepAndActivationCountsMatchEventDriven) {
  const std::string src = R"(
module m(input en, input [3:0] d, output reg [3:0] y);
  always @(*) if (en) y = d;
endmodule
)";
  const ElabDesign design = elab(src);
  ASSERT_FALSE(compile(design).levelized);
  Simulator interp(design);
  CompiledSimulator comp(design);
  std::uint64_t x = 7;
  for (int v = 0; v < 50; ++v) {
    for (const auto& input : design.inputs) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      interp.poke(input, x >> 32);
      comp.poke(input, x >> 32);
    }
  }
  EXPECT_EQ(interp.steps(), comp.steps());
  EXPECT_EQ(interp.activations(), comp.activations());
}

TEST(CompiledSim, BudgetExceededParityEventDriven) {
  const std::string src = R"(
module m(input en, input [3:0] d, output reg [3:0] y);
  always @(*) if (en) y = d;
endmodule
)";
  const ElabDesign design = elab(src);
  ASSERT_FALSE(compile(design).levelized);
  // Find the budget that the stimulus needs, then set one below it.
  Simulator probe(design);
  probe.poke("en", 1);
  probe.poke("d", 5);
  const std::uint64_t needed = probe.steps();
  Simulator interp(design, needed - 1);
  CompiledSimulator comp(design, needed - 1);
  std::string interp_msg, comp_msg;
  try {
    interp.poke("en", 1);
    interp.poke("d", 5);
  } catch (const BudgetExceeded& e) {
    interp_msg = e.what();
  }
  try {
    comp.poke("en", 1);
    comp.poke("d", 5);
  } catch (const BudgetExceeded& e) {
    comp_msg = e.what();
  }
  EXPECT_FALSE(interp_msg.empty());
  EXPECT_EQ(interp_msg, comp_msg);
}

TEST(CompiledSim, LazyUndeclaredIdentifierParity) {
  // The bad identifier sits in a branch that never executes until en=1; both
  // backends must stay healthy before then and fault identically after.
  const std::string src = R"(
module m(input en, input d, output reg y);
  always @(*) begin
    if (en) y = ghost;
    else y = d;
  end
endmodule
)";
  EXPECT_FALSE(is_levelized(src));
  const ElabDesign design = elab(src);
  Simulator interp(design);
  CompiledSimulator comp(design);
  interp.poke("d", 1);
  comp.poke("d", 1);
  EXPECT_TRUE(interp.peek("y").identical(comp.peek("y")));
  std::string interp_msg, comp_msg;
  try {
    interp.poke("en", 1);
  } catch (const ElabError& e) {
    interp_msg = e.what();
  }
  try {
    comp.poke("en", 1);
  } catch (const ElabError& e) {
    comp_msg = e.what();
  }
  EXPECT_EQ(interp_msg, "evaluation of undeclared identifier 'ghost'");
  EXPECT_EQ(interp_msg, comp_msg);
}

TEST(CompiledSim, TernaryXMergeParity) {
  const ElabDesign design = elab(R"(
module m(input c, input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = c ? a : b;
endmodule
)");
  Simulator interp(design);
  CompiledSimulator comp(design);
  interp.poke("a", 0b1010);
  comp.poke("a", 0b1010);
  interp.poke("b", 0b1001);
  comp.poke("b", 0b1001);
  interp.poke_x("c");
  comp.poke_x("c");
  // Agreeing bits stay defined, disagreeing bits go X.
  EXPECT_TRUE(interp.peek("y").identical(comp.peek("y")));
  EXPECT_EQ(comp.peek("y").to_string(), "4'b10xx");
}

TEST(CompiledSim, HandleFastPathMatchesStringPath) {
  const ElabDesign design = elab(R"(
module m(input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
)");
  Simulator interp(design);
  CompiledSimulator comp(design);
  const SignalHandle iclk = interp.resolve("clk"), id = interp.resolve("d"),
                     iq = interp.resolve("q");
  const SignalHandle cclk = comp.resolve("clk"), cd = comp.resolve("d"),
                     cq = comp.resolve("q");
  EXPECT_EQ(iclk.slot, cclk.slot);  // handles are shared signal ids
  for (std::uint64_t v = 0; v < 50; ++v) {
    interp.poke(id, v * 7);
    comp.poke(cd, v * 7);
    interp.poke(iclk, 0);
    comp.poke(cclk, 0);
    interp.poke(iclk, 1);
    comp.poke(cclk, 1);
    EXPECT_TRUE(interp.peek(iq).identical(comp.peek(cq)));
    EXPECT_TRUE(interp.peek("q").identical(comp.peek(cq)));
  }
  EXPECT_THROW(comp.resolve("nope"), ElabError);
  EXPECT_THROW(interp.resolve("nope"), ElabError);
  EXPECT_THROW(comp.poke(cq, 1), ElabError);  // non-input through the handle
  EXPECT_THROW(interp.poke(iq, 1), ElabError);
}

TEST(CompiledSim, InitialBlocksRunOnceParity) {
  drive_diff(R"(
module m(input [3:0] a, output [3:0] y, output reg [3:0] base);
  initial base = 4'd9;
  assign y = a + base;
endmodule
)");
}

TEST(CompiledSim, WidthMismatchAndUnsizedLiteralsParity) {
  drive_diff(R"(
module m(input [2:0] a, input [6:0] b, output [9:0] y, output [3:0] z);
  assign y = a + b + 13;
  assign z = {1'b1, a} - b[3:0];
endmodule
)");
}

}  // namespace
}  // namespace haven::sim
