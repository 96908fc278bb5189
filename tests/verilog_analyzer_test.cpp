#include <gtest/gtest.h>

#include "verilog/analyzer.h"

namespace haven::verilog {
namespace {

ModuleAnalysis analyze_one(const std::string& src) {
  SourceAnalysis sa = analyze_source(src);
  EXPECT_TRUE(sa.parse_errors.empty())
      << (sa.parse_errors.empty() ? "" : sa.parse_errors[0].to_string());
  EXPECT_FALSE(sa.modules.empty());
  return sa.modules.front();
}

// --- semantic errors -----------------------------------------------------------

TEST(Analyzer, CleanModulePasses) {
  EXPECT_TRUE(compile_ok(
      "module m(input a, input b, output y); assign y = a & b; endmodule"));
}

TEST(Analyzer, UndeclaredIdentifierIsError) {
  const auto a = analyze_one(
      "module m(input a, output y); assign y = a & ghost; endmodule");
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.diagnostics[0].message.find("ghost"), std::string::npos);
}

TEST(Analyzer, AssignToInputIsError) {
  const auto a = analyze_one("module m(input a, output y); assign a = y; endmodule");
  EXPECT_FALSE(a.ok());
}

TEST(Analyzer, ProceduralAssignToWireIsError) {
  // Table II knowledge hallucination: forgetting to declare outputs as reg.
  const auto a = analyze_one(
      "module m(input a, output y); always @(*) y = a; endmodule");
  EXPECT_FALSE(a.ok());
}

TEST(Analyzer, ContinuousAssignToRegIsError) {
  const auto a = analyze_one(
      "module m(input a, output reg y); assign y = a; endmodule");
  EXPECT_FALSE(a.ok());
}

TEST(Analyzer, DoubleDriverIsError) {
  const auto a = analyze_one(R"(
module m(input a, input clk, output y);
  reg r;
  wire y;
  assign y = r;
  always @(posedge clk) r <= a;
endmodule
)");
  EXPECT_TRUE(a.ok());
  const auto b = analyze_one(R"(
module m2(input a, input clk, output y);
  reg t;
  always @(posedge clk) t <= a;
  assign y = t;
  wire u;
  assign u = a;
endmodule
)");
  EXPECT_TRUE(b.ok());
}

TEST(Analyzer, DuplicateDeclarationIsError) {
  const auto a = analyze_one(
      "module m(input a, output y); wire t; wire t; assign y = a; assign t = a; endmodule");
  EXPECT_FALSE(a.ok());
}

TEST(Analyzer, SensitivityOnUndeclaredSignalIsError) {
  const auto a = analyze_one(
      "module m(input a, output reg y); always @(posedge clkk) y <= a; endmodule");
  EXPECT_FALSE(a.ok());
}

TEST(Analyzer, InstanceUnknownPortIsError) {
  SourceAnalysis sa = analyze_source(R"(
module child(input a, output y); assign y = a; endmodule
module top(input x, output z);
  child c (.a(x), .nonexistent(z));
endmodule
)");
  EXPECT_FALSE(sa.ok());
}

// --- attribute extraction ---------------------------------------------------------

TEST(Analyzer, DetectsAsyncReset) {
  const auto a = analyze_one(R"(
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk or posedge rst)
    if (rst) q <= 0;
    else q <= d;
endmodule
)");
  EXPECT_TRUE(a.attributes.has_clock);
  EXPECT_TRUE(a.attributes.async_reset);
  EXPECT_FALSE(a.attributes.sync_reset);
}

TEST(Analyzer, DetectsSyncReset) {
  const auto a = analyze_one(R"(
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= d;
endmodule
)");
  EXPECT_TRUE(a.attributes.sync_reset);
  EXPECT_FALSE(a.attributes.async_reset);
}

TEST(Analyzer, DetectsActiveLowResetAndNegedgeClock) {
  const auto a = analyze_one(R"(
module m(input clk, input rst_n, input d, output reg q);
  always @(negedge clk or negedge rst_n)
    if (!rst_n) q <= 0;
    else q <= d;
endmodule
)");
  EXPECT_TRUE(a.attributes.negedge_clock);
  EXPECT_TRUE(a.attributes.async_reset);
  EXPECT_TRUE(a.attributes.active_low_reset);
}

TEST(Analyzer, DetectsEnable) {
  const auto a = analyze_one(R"(
module m(input clk, input en, input d, output reg q);
  always @(posedge clk)
    if (en) q <= d;
    else q <= q;
endmodule
)");
  EXPECT_TRUE(a.attributes.has_enable);
}

// --- topic classification ----------------------------------------------------------

TEST(Analyzer, ClassifiesCounter) {
  const auto a = analyze_one(R"(
module cnt(input clk, input rst, output reg [3:0] q);
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kCounter));
}

TEST(Analyzer, ClassifiesShiftRegister) {
  const auto a = analyze_one(R"(
module sr(input clk, input din, output reg [7:0] q);
  always @(posedge clk)
    q <= {q[6:0], din};
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kShiftRegister));
}

TEST(Analyzer, ClassifiesFsm) {
  const auto a = analyze_one(R"(
module detector(input clk, input rst, input x, output reg out);
  localparam A = 1'b0, B = 1'b1;
  reg state, next_state;
  always @(posedge clk or posedge rst)
    if (rst) state <= A;
    else state <= next_state;
  always @(*) begin
    next_state = state;
    out = 1'b0;
    case (state)
      A: begin next_state = x ? A : B; out = 1'b0; end
      B: begin next_state = x ? B : A; out = 1'b1; end
      default: next_state = A;
    endcase
  end
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kFsm));
}

TEST(Analyzer, ClassifiesClockDivider) {
  const auto a = analyze_one(R"(
module div(input clk, input rst, output reg clk_out);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) begin
      cnt <= 0;
      clk_out <= 0;
    end else if (cnt == 4'd9) begin
      cnt <= 0;
      clk_out <= ~clk_out;
    end else begin
      cnt <= cnt + 1;
    end
  end
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kClockDivider));
}

TEST(Analyzer, ClassifiesAdderAndParity) {
  const auto a = analyze_one(R"(
module add(input [3:0] a, input [3:0] b, output [4:0] s, output p);
  assign s = a + b;
  assign p = ^s;
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kAdder));
  EXPECT_TRUE(a.topics.contains(Topic::kParity));
}

TEST(Analyzer, ClassifiesMux) {
  const auto a = analyze_one(R"(
module mux2(input sel, input a, input b, output y);
  assign y = sel ? b : a;
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kMultiplexer));
}

TEST(Analyzer, ClassifiesAlu) {
  const auto a = analyze_one(R"(
module alu(input [1:0] op, input [7:0] a, input [7:0] b, output reg [7:0] y);
  always @(*)
    case (op)
      2'b00: y = a + b;
      2'b01: y = a - b;
      2'b10: y = a & b;
      default: y = a | b;
    endcase
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kAlu));
}

TEST(Analyzer, FallbackCombinational) {
  const auto a = analyze_one("module inv(input a, output y); assign y = ~a; endmodule");
  EXPECT_TRUE(a.topics.contains(Topic::kCombinational));
}

TEST(Analyzer, FallbackRegister) {
  const auto a = analyze_one(R"(
module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
)");
  EXPECT_TRUE(a.topics.contains(Topic::kRegister));
}

TEST(Analyzer, TopicNamesAreStable) {
  EXPECT_EQ(topic_name(Topic::kFsm), "fsm");
  EXPECT_EQ(topic_name(Topic::kClockDivider), "clock_divider");
}


TEST(Analyzer, MultipleAlwaysDriversIsError) {
  const auto a = analyze_one(R"(
module m(input clk, input a, input b, output reg q);
  always @(posedge clk) q <= a;
  always @(posedge clk) q <= b;
endmodule
)");
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.diagnostics[0].message.find("multiple drivers"), std::string::npos);
}

TEST(Analyzer, SingleAlwaysMultipleAssignsIsFine) {
  const auto a = analyze_one(R"(
module m(input clk, input rst, input a, output reg q);
  always @(posedge clk)
    if (rst) q <= 1'b0;
    else q <= a;
endmodule
)");
  EXPECT_TRUE(a.ok());
}

TEST(Analyzer, CompileOkRejectsParseFailure) {
  EXPECT_FALSE(compile_ok("module broken(input a"));
  EXPECT_FALSE(compile_ok(""));
}

}  // namespace
}  // namespace haven::verilog
