#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/testbench.h"

namespace haven::sim {
namespace {

const char* kGoldenAnd = "module m(input a, input b, output y); assign y = a & b; endmodule";

TEST(Testbench, IdenticalCombinationalPasses) {
  util::Rng rng(1);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(kGoldenAnd, kGoldenAnd, spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
  EXPECT_EQ(r.vectors, 4);  // exhaustive over 2 bits
}

TEST(Testbench, EquivalentButDifferentFormPasses) {
  util::Rng rng(2);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, input b, output y); assign y = ~(~a | ~b); endmodule", kGoldenAnd,
      spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
}

TEST(Testbench, WrongOperatorFails) {
  // The paper's symbolic hallucination example: + instead of &.
  util::Rng rng(3);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, input b, output y); assign y = a | b; endmodule", kGoldenAnd, spec,
      rng);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.reason.find("output 'y'"), std::string::npos);
}

TEST(Testbench, ParseFailureFails) {
  util::Rng rng(4);
  StimulusSpec spec;
  const DiffResult r = run_diff_test("def adder(): pass", kGoldenAnd, spec, rng);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.reason.find("parse"), std::string::npos);
}

TEST(Testbench, MissingPortFails) {
  util::Rng rng(5);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, output y); assign y = a; endmodule", kGoldenAnd, spec, rng);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.reason.find("missing port"), std::string::npos);
}

TEST(Testbench, ExtraPortFails) {
  util::Rng rng(6);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, input b, input c, output y); assign y = a & b & c; endmodule",
      kGoldenAnd, spec, rng);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.reason.find("extra port"), std::string::npos);
}

TEST(Testbench, WidthMismatchFails) {
  util::Rng rng(7);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, input b, output [1:0] y); assign y = a & b; endmodule", kGoldenAnd,
      spec, rng);
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.reason.find("width"), std::string::npos);
}

TEST(Testbench, CombinationalLoopFails) {
  util::Rng rng(8);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(
      "module m(input a, input b, output y); assign y = ~y | (a & b & ~y); endmodule",
      kGoldenAnd, spec, rng);
  EXPECT_FALSE(r.passed);
}

const char* kGoldenCounter = R"(
module cnt(input clk, input rst, output reg [3:0] q);
  always @(posedge clk)
    if (rst) q <= 4'd0;
    else q <= q + 4'd1;
endmodule
)";

TEST(Testbench, SequentialIdenticalPasses) {
  util::Rng rng(9);
  StimulusSpec spec;
  spec.sequential = true;
  spec.reset = "rst";
  const DiffResult r = run_diff_test(kGoldenCounter, kGoldenCounter, spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
  EXPECT_GT(r.vectors, 10);
}

TEST(Testbench, SequentialWrongStepFails) {
  util::Rng rng(10);
  StimulusSpec spec;
  spec.sequential = true;
  spec.reset = "rst";
  const DiffResult r = run_diff_test(R"(
module cnt(input clk, input rst, output reg [3:0] q);
  always @(posedge clk)
    if (rst) q <= 4'd0;
    else q <= q + 4'd2;
endmodule
)",
                                     kGoldenCounter, spec, rng);
  EXPECT_FALSE(r.passed);
}

TEST(Testbench, SyncVsAsyncResetDetectedByMidTestReset) {
  // DUT uses synchronous reset while the golden is asynchronous: outputs
  // diverge in the window where reset is asserted without a clock edge.
  const char* golden_async = R"(
module d(input clk, input rst, input din, output reg q);
  always @(posedge clk or posedge rst)
    if (rst) q <= 1'b0;
    else q <= din;
endmodule
)";
  const char* dut_sync = R"(
module d(input clk, input rst, input din, output reg q);
  always @(posedge clk)
    if (rst) q <= 1'b0;
    else q <= din;
endmodule
)";
  util::Rng rng(11);
  StimulusSpec spec;
  spec.sequential = true;
  spec.reset = "rst";
  spec.cycles = 64;
  const DiffResult r = run_diff_test(dut_sync, golden_async, spec, rng);
  EXPECT_FALSE(r.passed);
}

TEST(Testbench, ActiveLowResetProtocol) {
  const char* golden = R"(
module d(input clk, input rst_n, input din, output reg q);
  always @(posedge clk or negedge rst_n)
    if (!rst_n) q <= 1'b0;
    else q <= din;
endmodule
)";
  util::Rng rng(12);
  StimulusSpec spec;
  spec.sequential = true;
  spec.reset = "rst_n";
  spec.reset_active_low = true;
  const DiffResult r = run_diff_test(golden, golden, spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
}

TEST(Testbench, MissingDefaultCaseCaughtByXCheck) {
  // Golden drives y for every select value; DUT leaves a latch/X hole on the
  // missing branch. The golden-defined-bits comparison flags it.
  const char* golden = R"(
module m(input [1:0] s, output reg y);
  always @(*)
    case (s)
      2'b00: y = 1'b0;
      2'b01: y = 1'b1;
      2'b10: y = 1'b1;
      default: y = 1'b0;
    endcase
endmodule
)";
  const char* dut = R"(
module m(input [1:0] s, output reg y);
  always @(*)
    case (s)
      2'b00: y = 1'b0;
      2'b01: y = 1'b1;
      2'b10: y = 1'b1;
    endcase
endmodule
)";
  util::Rng rng(13);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(dut, golden, spec, rng);
  EXPECT_FALSE(r.passed);
}

TEST(Testbench, GoldenXBitsAreUnconstrained) {
  // Golden itself leaves s==2'b11 undefined: any DUT value passes there.
  const char* golden = R"(
module m(input [1:0] s, output reg y);
  always @(*)
    case (s)
      2'b00: y = 1'b0;
      2'b01: y = 1'b1;
      2'b10: y = 1'b1;
      default: y = 1'bx;
    endcase
endmodule
)";
  const char* dut = R"(
module m(input [1:0] s, output reg y);
  always @(*)
    case (s)
      2'b00: y = 1'b0;
      2'b01: y = 1'b1;
      default: y = 1'b1;
    endcase
endmodule
)";
  util::Rng rng(14);
  StimulusSpec spec;
  const DiffResult r = run_diff_test(dut, golden, spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
}

TEST(Testbench, RandomVectorsForWideInputs) {
  const char* golden = R"(
module m(input [15:0] a, input [15:0] b, output [16:0] s);
  assign s = a + b;
endmodule
)";
  util::Rng rng(15);
  StimulusSpec spec;
  spec.random_vectors = 64;
  const DiffResult r = run_diff_test(golden, golden, spec, rng);
  EXPECT_TRUE(r.passed) << r.reason;
  EXPECT_EQ(r.vectors, 64);
}

TEST(Testbench, GoldenParseFailureThrows) {
  util::Rng rng(16);
  StimulusSpec spec;
  EXPECT_THROW(run_diff_test(kGoldenAnd, "garbage", spec, rng), std::invalid_argument);
}

TEST(Testbench, FsmSequenceDetector) {
  // 101 overlapping sequence detector, Mealy. Golden vs a re-implementation
  // with renamed states must pass; with swapped transition must fail.
  const char* golden = R"(
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
  const char* renamed = R"(
module det(input clk, input rst, input x, output reg z);
  localparam IDLE = 2'd2, GOT1 = 2'd0, GOT10 = 2'd1;
  reg [1:0] s, ns;
  always @(posedge clk)
    if (rst) s <= IDLE;
    else s <= ns;
  always @(*) begin
    ns = IDLE;
    z = 1'b0;
    case (s)
      IDLE: ns = x ? GOT1 : IDLE;
      GOT1: ns = x ? GOT1 : GOT10;
      GOT10: begin ns = x ? GOT1 : IDLE; z = x; end
      default: ns = IDLE;
    endcase
  end
endmodule
)";
  const char* swapped = R"(
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
      S0: nstate = x ? S0 : S1;
      S1: nstate = x ? S2 : S1;
      S2: begin nstate = x ? S1 : S0; z = x; end
      default: nstate = S0;
    endcase
  end
endmodule
)";
  util::Rng rng(17);
  StimulusSpec spec;
  spec.sequential = true;
  spec.reset = "rst";
  spec.cycles = 96;
  DiffResult r1 = run_diff_test(renamed, golden, spec, rng);
  EXPECT_TRUE(r1.passed) << r1.reason;
  DiffResult r2 = run_diff_test(swapped, golden, spec, rng);
  EXPECT_FALSE(r2.passed);
}

// A DUT-side ElabError — at construction or while the stimulus runs — fails
// the DUT with a "dut ..." reason on both backends; only a golden-side one
// is a broken task.
TEST(Testbench, DutSideElabErrorsFailTheDut) {
  const std::string golden =
      "module m(input clk, input d, output reg q); always @(posedge clk) q <= d; endmodule";
  const std::string unknown_edge =
      "module m(input clk, input d, output reg q); always @(posedge clock) q <= d; endmodule";
  const std::string undeclared_read =
      "module m(input clk, input d, output reg q); always @(posedge clk) q <= e; endmodule";
  StimulusSpec spec;
  spec.sequential = true;
  for (const SimBackend backend : {SimBackend::kCompiled, SimBackend::kInterpreter}) {
    spec.backend = backend;
    util::Rng rng(18);
    const DiffResult edge = run_diff_test(unknown_edge, golden, spec, rng);
    EXPECT_FALSE(edge.passed);
    EXPECT_EQ(edge.reason, "dut elaboration failed: edge on unknown signal 'clock'");
    const DiffResult read = run_diff_test(undeclared_read, golden, spec, rng);
    EXPECT_FALSE(read.passed);
    EXPECT_EQ(read.reason,
              "dut simulation failed: evaluation of undeclared identifier 'e'");
  }
  // The same faults on the golden side still throw.
  util::Rng rng(19);
  EXPECT_THROW(run_diff_test(golden, unknown_edge, spec, rng), std::logic_error);
}

// Every failure reason names the vector or cycle it was found at. Repair
// hints and cached verdicts carry these strings, so each label kind is pinned
// byte for byte.
TEST(Testbench, MismatchReasonsNameTheVector) {
  const auto reason = [](const std::string& dut, const std::string& golden,
                         const StimulusSpec& spec) {
    util::Rng rng(20);
    const DiffResult r = run_diff_test(dut, golden, spec, rng);
    EXPECT_FALSE(r.passed);
    return r.reason;
  };
  const StimulusSpec comb;
  EXPECT_EQ(reason("module m(input a, input b, output y); assign y = a | b; endmodule",
                   kGoldenAnd, comb),
            "vector 1: output 'y': golden=1'b0 dut=1'b1");
  // Feedback through the mux oscillates once a = 1, at vector 1.
  EXPECT_EQ(reason("module m(input a, input b, output y); assign y = a ? ~y : 1'b0; endmodule",
                   kGoldenAnd, comb),
            "dut failed to converge (vector 1)");
  // 13 input bits exceed the exhaustive limit. (A constant assign reads no
  // signal, never runs and stays X, so each side reads `a`.)
  EXPECT_EQ(reason("module m(input [12:0] a, output y); assign y = a[0] | ~a[0]; endmodule",
                   "module m(input [12:0] a, output y); assign y = a[0] & ~a[0]; endmodule",
                   comb),
            "random vector 0: output 'y': golden=1'b0 dut=1'b1");

  StimulusSpec seq;
  seq.sequential = true;
  seq.reset = "rst";
  const auto counter = [](const char* sens, const char* reset_value, const char* step) {
    return std::string("module c(input clk, input rst, output reg [7:0] q);\n  always @(") +
           sens + ")\n    if (rst) q <= " + reset_value + ";\n    else q <= " + step +
           ";\nendmodule\n";
  };
  const std::string async_golden = counter("posedge clk or posedge rst", "8'd0", "q + 8'd1");
  const std::string sync_golden = counter("posedge clk", "8'd0", "q + 8'd1");
  // Resets to the wrong value: defined on both sides as soon as reset rises.
  EXPECT_EQ(reason(counter("posedge clk or posedge rst", "8'd1", "q + 8'd1"), async_golden, seq),
            "initial reset assertion: output 'q': golden=8'b00000000 dut=8'b00000001");
  // A synchronous reset to the wrong value shows once clocked through reset.
  EXPECT_EQ(reason(counter("posedge clk", "8'd1", "q + 8'd1"), sync_golden, seq),
            "after reset: output 'q': golden=8'b00000000 dut=8'b00000001");
  EXPECT_EQ(reason(counter("negedge clk or posedge rst", "8'd0", "q + 8'd1"), async_golden, seq),
            "cycle 0: output 'q': golden=8'b00000001 dut=8'b00000000");
  // Counting on both edges first diverges at a falling edge.
  EXPECT_EQ(reason(counter("posedge clk or negedge clk or posedge rst", "8'd0", "q + 8'd1"),
                   async_golden, seq),
            "cycle 1 (half): output 'q': golden=8'b00000001 dut=8'b00000010");
  // A synchronous reset agrees once clocked through reset, and diverges at
  // the first mid-run assertion, before any clock edge (cycle 48 / 3 = 16).
  EXPECT_EQ(reason(sync_golden, async_golden, seq),
            "mid-test reset assertion: output 'q': golden=8'b00000000 dut=8'b00010000");
}

}  // namespace
}  // namespace haven::sim
