// Simulator microbenchmark: four RTL kernels (counter, shift register, FSM,
// ALU) clocked for N cycles on the interpreter and on the compiled bytecode
// backend, reporting cycles/sec each and the speedup. Before timing, both
// backends run the same stimulus and must produce identical per-cycle output
// checksums — a mismatch is a hard failure (exit 1), so the numbers can never
// come from diverging simulations.
//
// Usage:
//   sim_kernels [--cycles=N] [--bench-json=PATH] [--check[=X]]
//
//   --cycles=N        timed clock cycles per kernel (default 20000)
//   --bench-json=PATH write a BENCH_sim.json record
//   --check           exit 1 unless compiled >= 1x interpreter on EVERY
//                     kernel (CI gate); --check=3.0 requires a 3x speedup
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/compile.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "util/strings.h"
#include "verilog/parser.h"

namespace {

using namespace haven;
using sim::CompiledSimulator;
using sim::ElabDesign;
using sim::SignalHandle;
using sim::Simulator;

struct Kernel {
  const char* name;
  const char* source;
  std::vector<const char*> data_inputs;  // driven with random vectors
  std::vector<const char*> outputs;      // folded into the checksum
};

const Kernel kKernels[] = {
    {"counter",
     R"(
module counter(input clk, input rst, input en, output reg [15:0] q, output wrap);
  assign wrap = q == 16'hffff;
  always @(posedge clk) begin
    if (rst) q <= 16'd0;
    else if (en) q <= q + 16'd1;
  end
endmodule
)",
     {"rst", "en"},
     {"q", "wrap"}},
    {"shift",
     R"(
module shift(input clk, input rst, input din, output reg [31:0] q, output tap);
  assign tap = q[31] ^ q[21] ^ q[1] ^ q[0];
  always @(posedge clk) begin
    if (rst) q <= 32'd1;
    else q <= {q[30:0], din ^ tap};
  end
endmodule
)",
     {"rst", "din"},
     {"q", "tap"}},
    // The comb body writes `next` before reading it back for `out` — the
    // write-before-read idiom the levelizer accepts as a dead self-edge.
    {"fsm",
     R"(
module fsm(input clk, input rst, input [1:0] in, output reg [2:0] state, output reg [3:0] out);
  reg [2:0] next;
  always @(*) begin
    case (state)
      3'd0: next = in[0] ? 3'd1 : 3'd0;
      3'd1: next = in[1] ? 3'd2 : 3'd0;
      3'd2: next = (in == 2'd3) ? 3'd3 : 3'd1;
      3'd3: next = in[0] ? 3'd4 : 3'd2;
      3'd4: next = 3'd0;
      default: next = 3'd0;
    endcase
    out = {next[0], state} ^ {in, in};
  end
  always @(posedge clk) begin
    if (rst) state <= 3'd0;
    else state <= next;
  end
endmodule
)",
     {"rst", "in"},
     {"state", "out"}},
    {"alu",
     R"(
module alu(input clk, input [2:0] op, input [15:0] a, input [15:0] b,
           output reg [15:0] r, output reg zero, output reg odd);
  wire [15:0] y;
  assign y = (op == 3'd0) ? a + b :
             (op == 3'd1) ? a - b :
             (op == 3'd2) ? a & b :
             (op == 3'd3) ? a | b :
             (op == 3'd4) ? a ^ b :
             (op == 3'd5) ? a << b[3:0] :
             (op == 3'd6) ? a >> b[3:0] :
             ((a < b) ? 16'd1 : 16'd0);
  always @(posedge clk) begin
    r <= y;
    zero <= y == 16'd0;
    odd <= ^y;
  end
endmodule
)",
     {"op", "a", "b"},
     {"r", "zero", "odd"}},
};

// xorshift-free LCG: deterministic stimulus shared by both backends.
struct Lcg {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 16;
  }
};

ElabDesign elab_kernel(const Kernel& k) {
  verilog::ParseOutput out = verilog::parse_source(k.source);
  if (!out.ok()) {
    std::cerr << "kernel '" << k.name << "' does not parse\n";
    std::exit(1);
  }
  return sim::elaborate(out.file.modules.front(), &out.file);
}

// Run `cycles` full clock cycles, driving random data each cycle and folding
// every output into a checksum; returns elapsed seconds.
template <class Sim>
double run_kernel(Sim& s, const Kernel& k, int cycles, std::uint64_t* checksum) {
  const SignalHandle clk = s.resolve("clk");
  std::vector<SignalHandle> ins, outs;
  for (const char* name : k.data_inputs) ins.push_back(s.resolve(name));
  for (const char* name : k.outputs) outs.push_back(s.resolve(name));

  Lcg rng;
  std::uint64_t sum = 0xcbf29ce484222325ull;
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < cycles; ++c) {
    // Hold reset for the first two cycles so registers leave power-up X.
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const bool is_rst = std::strcmp(k.data_inputs[i], "rst") == 0;
      s.poke(ins[i], is_rst ? (c < 2 ? 1 : 0) : rng.next());
    }
    s.poke(clk, 0);
    s.poke(clk, 1);
    for (const SignalHandle out : outs) {
      const sim::Value v = s.peek(out);
      sum = (sum ^ v.bits() ^ (v.xz() * 0x100000001b3ull)) * 0x100000001b3ull;
    }
  }
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - start;
  *checksum = sum;
  return dt.count();
}

struct Row {
  const char* name;
  bool levelized;
  double interp_cps;
  double compiled_cps;
  double speedup;
};

}  // namespace

int main(int argc, char** argv) {
  int cycles = 20000;
  std::string json_path;
  bool check = false;
  double check_ratio = 1.0;
  // A malformed gate value is a usage error, never a silently weaker gate.
  auto bad_value = [](const char* flag, const char* want, const char* v) {
    std::cerr << flag << " wants " << want << ", not '" << v << "'\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cycles=", 9) == 0) {
      long long n = 0;
      if (!util::parse_i64(argv[i] + 9, &n) || n < 1 || n > INT_MAX) {
        return bad_value("--cycles", "an integer >= 1", argv[i] + 9);
      }
      cycles = static_cast<int>(n);
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

  std::vector<Row> rows;
  bool all_fast_enough = true;
  std::printf("sim_kernels: %d cycles per kernel\n", cycles);
  std::printf("%-10s %-10s %14s %14s %9s\n", "kernel", "schedule", "interp c/s",
              "compiled c/s", "speedup");
  for (const Kernel& k : kKernels) {
    const ElabDesign design = elab_kernel(k);
    const bool levelized = sim::compile(design).levelized;

    // Differential warm-up: identical stimulus, checksums must agree.
    std::uint64_t interp_sum = 0, compiled_sum = 0;
    {
      Simulator warm_i(design);
      CompiledSimulator warm_c(design);
      run_kernel(warm_i, k, 500, &interp_sum);
      run_kernel(warm_c, k, 500, &compiled_sum);
      if (interp_sum != compiled_sum) {
        std::cerr << "kernel '" << k.name << "': backend checksum mismatch\n";
        return 1;
      }
    }

    Simulator interp(design);
    CompiledSimulator compiled(design);
    const double interp_s = run_kernel(interp, k, cycles, &interp_sum);
    const double compiled_s = run_kernel(compiled, k, cycles, &compiled_sum);
    if (interp_sum != compiled_sum) {
      std::cerr << "kernel '" << k.name << "': timed-run checksum mismatch\n";
      return 1;
    }
    const double interp_cps = interp_s > 0 ? cycles / interp_s : 0;
    const double compiled_cps = compiled_s > 0 ? cycles / compiled_s : 0;
    const double speedup = interp_cps > 0 ? compiled_cps / interp_cps : 0;
    rows.push_back({k.name, levelized, interp_cps, compiled_cps, speedup});
    if (speedup < check_ratio) all_fast_enough = false;
    std::printf("%-10s %-10s %14.0f %14.0f %8.2fx\n", k.name,
                levelized ? "levelized" : "event", interp_cps, compiled_cps, speedup);
  }

  if (!json_path.empty()) {
    std::string record = haven::util::format(
        "{\"bench\":\"sim_kernels\",\"schema\":1,\"cycles\":%d,\"kernels\":[", cycles);
    bool first = true;
    for (const Row& r : rows) {
      if (!first) record += ",";
      first = false;
      record += haven::util::format(
          "{\"name\":\"%s\",\"levelized\":%s,\"interp_cycles_per_sec\":%.1f,"
          "\"compiled_cycles_per_sec\":%.1f,\"speedup\":%.3f}",
          r.name, r.levelized ? "true" : "false", r.interp_cps, r.compiled_cps, r.speedup);
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
        "--check failed: compiled backend below %.2fx on at least one kernel\n", check_ratio);
    return 1;
  }
  return 0;
}
