// Prover microbenchmark: five combinational kernels, each a golden module
// plus a structurally different but equivalent DUT, decided by the formal
// equivalence fast-path (prove::prove_equivalence) and by the exhaustive
// differential testbench (sim::run_diff_test). Before timing, both paths must
// agree on the verdict for every kernel — equivalent DUT proven kEquivalent
// AND a sabotaged mutant proven kInequivalent, each cross-checked against the
// simulator — so the numbers can never come from a diverging decision
// procedure.
//
// Usage:
//   prove_kernels [--iters=N] [--bench-json=PATH] [--check[=X]]
//
//   --iters=N         timed decisions per kernel per path (default 200)
//   --bench-json=PATH write a BENCH_prove.json record
//   --check           exit 1 unless prove >= 1x simulate on EVERY kernel
//                     (CI gate); --check=2.0 requires a 2x speedup
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "prove/prove.h"
#include "sim/testbench.h"
#include "util/rng.h"
#include "util/strings.h"
#include "verilog/parser.h"

namespace {

using namespace haven;

struct Kernel {
  const char* name;
  const char* golden;  // reference implementation
  const char* dut;     // structurally different, provably equivalent
  const char* mutant;  // one gate swapped: provably inequivalent
};

// Every kernel stays within the harness's exhaustive sweep (<= 12 data-input
// bits), because that is exactly the fragment the prover may claim verdicts
// on. DUTs are restructured (case vs ternary, ripple vs '+', tree vs
// reduction) so the shared AIG does NOT collapse by strashing alone and the
// BDD path does real work.
const Kernel kKernels[] = {
    {"mux4",
     R"(
module mux4(input wire [1:0] sel, input wire [1:0] a, input wire [1:0] b,
            input wire [1:0] c, input wire [1:0] d, output reg [1:0] y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule
)",
     R"(
module mux4(input wire [1:0] sel, input wire [1:0] a, input wire [1:0] b,
            input wire [1:0] c, input wire [1:0] d, output wire [1:0] y);
  wire [1:0] lo = sel[0] ? b : a;
  wire [1:0] hi = sel[0] ? d : c;
  assign y = sel[1] ? hi : lo;
endmodule
)",
     R"(
module mux4(input wire [1:0] sel, input wire [1:0] a, input wire [1:0] b,
            input wire [1:0] c, input wire [1:0] d, output wire [1:0] y);
  wire [1:0] lo = sel[0] ? b : a;
  wire [1:0] hi = sel[0] ? c : d;
  assign y = sel[1] ? hi : lo;
endmodule
)"},
    {"adder5",
     R"(
module adder5(input wire [4:0] a, input wire [4:0] b, output wire [5:0] s);
  assign s = {1'b0, a} + {1'b0, b};
endmodule
)",
     R"(
module adder5(input wire [4:0] a, input wire [4:0] b, output wire [5:0] s);
  wire [4:0] g = a & b;
  wire [4:0] p = a ^ b;
  wire c1 = g[0];
  wire c2 = g[1] | (p[1] & c1);
  wire c3 = g[2] | (p[2] & c2);
  wire c4 = g[3] | (p[3] & c3);
  wire c5 = g[4] | (p[4] & c4);
  assign s = {c5, p[4] ^ c4, p[3] ^ c3, p[2] ^ c2, p[1] ^ c1, p[0]};
endmodule
)",
     R"(
module adder5(input wire [4:0] a, input wire [4:0] b, output wire [5:0] s);
  wire [4:0] g = a & b;
  wire [4:0] p = a ^ b;
  wire c1 = g[0];
  wire c2 = g[1] | (p[1] & c1);
  wire c3 = g[2] & (p[2] | c2);
  wire c4 = g[3] | (p[3] & c3);
  wire c5 = g[4] | (p[4] & c4);
  assign s = {c5, p[4] ^ c4, p[3] ^ c3, p[2] ^ c2, p[1] ^ c1, p[0]};
endmodule
)"},
    {"parity12",
     R"(
module parity12(input wire [11:0] d, output wire p, output wire any1);
  assign p = ^d;
  assign any1 = |d;
endmodule
)",
     R"(
module parity12(input wire [11:0] d, output wire p, output wire any1);
  wire [3:0] fold = d[11:8] ^ d[7:4] ^ d[3:0];
  assign p = fold[3] ^ fold[2] ^ fold[1] ^ fold[0];
  assign any1 = (d[11:6] != 6'd0) | (d[5:0] != 6'd0);
endmodule
)",
     R"(
module parity12(input wire [11:0] d, output wire p, output wire any1);
  wire [3:0] fold = d[11:8] ^ d[7:4] ^ d[3:0];
  assign p = fold[3] ^ fold[2] ^ fold[1] ^ fold[0];
  assign any1 = (d[11:6] != 6'd0) & (d[5:0] != 6'd0);
endmodule
)"},
    {"alu10",
     R"(
module alu10(input wire [1:0] op, input wire [3:0] a, input wire [3:0] b,
             output reg [3:0] r);
  always @(*) begin
    case (op)
      2'd0: r = a + b;
      2'd1: r = a & b;
      2'd2: r = a | b;
      default: r = a ^ b;
    endcase
  end
endmodule
)",
     R"(
module alu10(input wire [1:0] op, input wire [3:0] a, input wire [3:0] b,
             output wire [3:0] r);
  assign r = (op == 2'd0) ? a + b :
             (op == 2'd1) ? a & b :
             (op == 2'd2) ? a | b : a ^ b;
endmodule
)",
     R"(
module alu10(input wire [1:0] op, input wire [3:0] a, input wire [3:0] b,
             output wire [3:0] r);
  assign r = (op == 2'd0) ? a + b :
             (op == 2'd1) ? a | b :
             (op == 2'd2) ? a & b : a ^ b;
endmodule
)"},
    {"demorgan12",
     R"(
module demorgan12(input wire [5:0] a, input wire [5:0] b, output wire [5:0] y,
                  output wire all0);
  assign y = ~(a & b) | (a ^ b);
  assign all0 = y == 6'd0;
endmodule
)",
     R"(
module demorgan12(input wire [5:0] a, input wire [5:0] b, output wire [5:0] y,
                  output wire all0);
  assign y = (~a | ~b) | (a & ~b) | (~a & b);
  assign all0 = ~(|y);
endmodule
)",
     R"(
module demorgan12(input wire [5:0] a, input wire [5:0] b, output wire [5:0] y,
                  output wire all0);
  assign y = (~a | ~b) | (a & ~b) | (~a & b);
  assign all0 = |y;
endmodule
)"},
};

verilog::ParseOutput must_parse(const char* which, const char* name, const char* source) {
  verilog::ParseOutput out = verilog::parse_source(source);
  if (!out.ok()) {
    std::cerr << "kernel '" << name << "': " << which << " does not parse\n";
    std::exit(1);
  }
  return out;
}

struct Row {
  const char* name;
  std::uint64_t nodes;  // budget units consumed by one equivalence proof
  bool used_bdd;
  double prove_dps;  // decisions/sec, formal path
  double sim_dps;    // decisions/sec, exhaustive diff-test path
  double speedup;
};

}  // namespace

int main(int argc, char** argv) {
  int iters = 200;
  std::string json_path;
  bool check = false;
  double check_ratio = 1.0;
  // A malformed gate value is a usage error, never a silently weaker gate.
  auto bad_value = [](const char* flag, const char* want, const char* v) {
    std::cerr << flag << " wants " << want << ", not '" << v << "'\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      long long n = 0;
      if (!util::parse_i64(argv[i] + 8, &n) || n < 1 || n > INT_MAX) {
        return bad_value("--iters", "an integer >= 1", argv[i] + 8);
      }
      iters = static_cast<int>(n);
    } else if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      json_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--check=", 8) == 0) {
      check = true;
      if (!util::parse_f64(argv[i] + 8, &check_ratio) || !(check_ratio > 0.0)) {
        return bad_value("--check", "a ratio > 0", argv[i] + 8);
      }
    } else {
      std::cerr << "unknown flag '" << argv[i] << "'\n";
      return 2;
    }
  }

  const sim::StimulusSpec spec{};  // default comb spec: exhaustive <= 12 bits
  std::vector<Row> rows;
  bool all_fast_enough = true;
  std::printf("prove_kernels: %d decisions per kernel per path\n", iters);
  std::printf("%-11s %10s %6s %14s %14s %9s\n", "kernel", "nodes", "bdd", "prove d/s",
              "sim d/s", "speedup");
  for (const Kernel& k : kKernels) {
    verilog::ParseOutput golden = must_parse("golden", k.name, k.golden);
    verilog::ParseOutput dut = must_parse("dut", k.name, k.dut);
    verilog::ParseOutput mutant = must_parse("mutant", k.name, k.mutant);
    const verilog::Module& gm = golden.file.modules.front();
    const verilog::Module& dm = dut.file.modules.front();
    const verilog::Module& mm = mutant.file.modules.front();

    if (!prove::golden_provable(gm, &golden.file, spec)) {
      std::cerr << "kernel '" << k.name << "': golden not provable\n";
      return 1;
    }

    // Differential warm-up: the two decision procedures must agree on both
    // the equivalent DUT and the sabotaged mutant before anything is timed.
    const prove::ProveResult eq = prove::prove_equivalence(dm, &dut.file, gm, &golden.file, spec);
    const prove::ProveResult ne = prove::prove_equivalence(mm, &mutant.file, gm, &golden.file, spec);
    util::Rng warm_rng(0x5eed);
    const bool sim_eq = sim::run_diff_test(dm, &dut.file, gm, &golden.file, spec, warm_rng).passed;
    const bool sim_ne = sim::run_diff_test(mm, &mutant.file, gm, &golden.file, spec, warm_rng).passed;
    if (eq.status != prove::ProveStatus::kEquivalent || !sim_eq) {
      std::cerr << "kernel '" << k.name << "': equivalent pair misjudged ("
                << eq.reason << ")\n";
      return 1;
    }
    if (ne.status != prove::ProveStatus::kInequivalent || sim_ne) {
      std::cerr << "kernel '" << k.name << "': mutant misjudged (" << ne.reason << ")\n";
      return 1;
    }

    // Timed runs: one full decision per iteration, alternating the equivalent
    // DUT and the mutant so both paths exercise the pass AND fail shapes.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const verilog::ParseOutput& cand = (i & 1) ? mutant : dut;
      (void)prove::prove_equivalence(cand.file.modules.front(), &cand.file, gm, &golden.file,
                                     spec);
    }
    const std::chrono::duration<double> prove_s = std::chrono::steady_clock::now() - t0;

    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const verilog::ParseOutput& cand = (i & 1) ? mutant : dut;
      util::Rng rng(0x5eed ^ static_cast<std::uint64_t>(i));
      (void)sim::run_diff_test(cand.file.modules.front(), &cand.file, gm, &golden.file, spec,
                               rng);
    }
    const std::chrono::duration<double> sim_s = std::chrono::steady_clock::now() - t1;

    const double prove_dps = prove_s.count() > 0 ? iters / prove_s.count() : 0;
    const double sim_dps = sim_s.count() > 0 ? iters / sim_s.count() : 0;
    const double speedup = sim_dps > 0 ? prove_dps / sim_dps : 0;
    rows.push_back({k.name, eq.nodes, eq.used_bdd, prove_dps, sim_dps, speedup});
    if (speedup < check_ratio) all_fast_enough = false;
    std::printf("%-11s %10llu %6s %14.0f %14.0f %8.2fx\n", k.name,
                static_cast<unsigned long long>(eq.nodes), eq.used_bdd ? "yes" : "no",
                prove_dps, sim_dps, speedup);
  }

  if (!json_path.empty()) {
    std::string record = haven::util::format(
        "{\"bench\":\"prove_kernels\",\"schema\":1,\"iters\":%d,\"kernels\":[", iters);
    bool first = true;
    for (const Row& r : rows) {
      if (!first) record += ",";
      first = false;
      record += haven::util::format(
          "{\"name\":\"%s\",\"nodes\":%llu,\"used_bdd\":%s,"
          "\"prove_decisions_per_sec\":%.1f,\"sim_decisions_per_sec\":%.1f,"
          "\"speedup\":%.3f}",
          r.name, static_cast<unsigned long long>(r.nodes), r.used_bdd ? "true" : "false",
          r.prove_dps, r.sim_dps, r.speedup);
    }
    record += "]}\n";
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << record;
    std::cerr << "wrote " << json_path << "\n";
  }

  if (check && !all_fast_enough) {
    std::cerr << haven::util::format(
        "--check failed: prove path below %.2fx on at least one kernel\n", check_ratio);
    return 1;
  }
  return 0;
}
