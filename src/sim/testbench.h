// Differential functional checking: run a candidate DUT and a golden
// reference module side by side under identical stimulus and compare their
// outputs. This is HaVen's substitute for the VerilogEval / RTLLM testbench
// infrastructure: a candidate passes functionally iff it matches the golden
// module on every driven vector/cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/compile.h"
#include "sim/simulator.h"
#include "util/retry.h"
#include "util/rng.h"
#include "verilog/ast.h"

namespace haven::sim {

struct StimulusSpec {
  bool sequential = false;
  std::string clock = "clk";
  std::string reset;               // empty => no reset signal
  bool reset_active_low = false;
  int cycles = 48;                 // sequential test length
  int max_exhaustive_bits = 12;    // comb: exhaustive when total input bits fit
  int random_vectors = 256;        // comb fallback vector count
  bool mid_test_reset = true;      // re-assert reset mid-run (corner case)
  // Hard per-simulator step budget (0 = unlimited). Exceeding it throws
  // sim::BudgetExceeded out of the diff test, so a runaway candidate can
  // never pin a worker; the eval engine records it as a unit fault.
  std::uint64_t step_budget = 0;
  // Which simulator executes both sides of the diff test: the compiled
  // backend, or the interpreter as the test oracle (the backend
  // differential tests set it). Backends are verdict-identical (DESIGN.md
  // §10), so it is deliberately EXCLUDED from the eval result-cache key (see
  // eval/cache_io.cpp).
  SimBackend backend = kDefaultSimBackend;
};

// The exhaustive-sweep rule. A combinational test drives the golden's data
// inputs (every non-output port except the clock and the reset) and sweeps
// all 2^bits input vectors when their total width fits both
// max_exhaustive_bits and 20; otherwise it draws random_vectors random ones.
// Returns that width when the sweep is exhaustive, nullopt when it is not or
// the spec is sequential. The prover and lint triage decide through this
// same function, so their verdicts cannot drift from the testbench's.
std::optional<int> exhaustive_sweep_bits(const verilog::Module& golden,
                                         const StimulusSpec& spec);

struct DiffResult {
  bool passed = false;
  std::string reason;  // first mismatch / failure description
  int vectors = 0;     // vectors or cycles actually compared
};

// Structural port-interface comparison (names, directions, widths against the
// golden module's ports). Shared by the diff harness and the haven::prove
// equivalence fast-path so an interface mismatch yields the same functional
// failure, with the same reason string, on either verdict path.
DiffResult check_interface(const verilog::Module& dut, const verilog::Module& golden);

// Compare candidate `dut` against `golden`, both built once by
// compile_module and only read here. An interface mismatch, a DUT build
// error, non-convergence, or output divergence fails the test with a
// human-readable reason; a golden build error throws std::logic_error
// ("golden elaboration failed: ..."), since it means a broken task. Build
// errors surface in the order the stages ran: golden elaboration, DUT
// elaboration, then each side's simulator construction, compile included.
//
// `deadline`, when non-null and active, is checked between vectors/cycles
// (watchdog granularity) and throws util::DeadlineExceeded — a harness
// abort, deliberately distinct from a DUT verdict.
DiffResult run_diff_test(const CompiledModule& dut, const CompiledModule& golden,
                         const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline = nullptr);

// The same over parsed modules, which it builds first. The respective
// SourceFiles provide instance definitions (may be null).
DiffResult run_diff_test(const verilog::Module& dut, const verilog::SourceFile* dut_file,
                         const verilog::Module& golden, const verilog::SourceFile* golden_file,
                         const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline = nullptr);

// Convenience overload working on source text; parse failures of the DUT
// fail the test (the golden source must be valid — throws otherwise).
DiffResult run_diff_test(const std::string& dut_source, const std::string& golden_source,
                         const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline = nullptr);

}  // namespace haven::sim
