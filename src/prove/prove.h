// haven::prove — combinational equivalence checking as a zero-simulation
// verdict fast-path (DESIGN.md §12).
//
// prove_equivalence() lowers the compiled sim::Program of the candidate and
// of the golden module — the one the testbench would simulate — into one
// shared structurally-hashed AIG over the 4-state value domain, builds the
// miscompare network exactly as sim::run_diff_test's outputs_match would
// judge each exhaustive vector, and decides satisfiability with
// reduced-ordered BDDs. A BDD that outgrows the node budget defers to
// simulation.
//
// The verdict contract: on a task where the engine deems the golden module
// provable (spec_provable + golden_provable), kEquivalent is returned iff the
// simulator's exhaustive sweep would pass the candidate, and kInequivalent
// iff it would fail it — bit-identically, by construction. Everything the
// lowering cannot mirror exactly returns kUnsupported (and budget blow-ups
// kBudgetExceeded); both mean "simulate instead", never a wrong verdict.
#pragma once

#include <cstdint>
#include <string>

#include "sim/compile.h"
#include "sim/testbench.h"
#include "verilog/ast.h"

namespace haven::prove {

// Default shared node budget (AIG nodes + BDD nodes) for one proof attempt.
// Big enough for every suite golden; small enough that a hostile candidate
// cannot stall a worker.
inline constexpr std::uint64_t kDefaultNodeBudget = std::uint64_t{1} << 20;

enum class ProveStatus : std::uint8_t {
  kEquivalent,      // no input vector distinguishes DUT from golden
  kInequivalent,    // some vector (or the interface itself) does
  kUnsupported,     // construct outside the provable fragment: simulate
  kBudgetExceeded,  // proof structures outgrew the node budget: simulate
};

struct ProveOptions {
  std::uint64_t node_budget = kDefaultNodeBudget;  // 0 = unbounded
};

struct ProveResult {
  ProveStatus status = ProveStatus::kUnsupported;
  std::string reason;      // mismatch description / unsupported construct
  std::uint64_t nodes = 0; // budget units consumed (AIG + BDD)
  bool used_bdd = false;
};

// Cheap static eligibility: combinational spec whose data-input bit count
// fits the harness's exhaustive sweep (the proof is only verdict-identical
// when simulation would itself test every vector).
bool spec_provable(const verilog::Module& golden, const sim::StimulusSpec& spec);

// Full eligibility: spec_provable, a golden that built without error, and a
// dry-run lowering of its Program under `opts`. When this holds,
// prove_equivalence() on any candidate either returns a verdict identical to
// simulation or defers to it.
bool golden_provable(const sim::CompiledModule& golden, const sim::StimulusSpec& spec,
                     const ProveOptions& opts = {});

// Decide equivalence of `dut` against `golden` under `spec`, both built once
// by sim::compile_module. A recorded build error maps to run_diff_test's
// verdict: a DUT elaboration error is kInequivalent ("dut elaboration
// failed: ..."); a golden elaboration error, and a compile-stage error on
// either side, are kUnsupported, so simulation reproduces the outcome.
ProveResult prove_equivalence(const sim::CompiledModule& dut, const sim::CompiledModule& golden,
                              const sim::StimulusSpec& spec, const ProveOptions& opts = {});

// The same two over parsed modules, which they build first. The SourceFiles
// supply instance definitions (may be null), mirroring run_diff_test.
bool golden_provable(const verilog::Module& golden, const verilog::SourceFile* golden_file,
                     const sim::StimulusSpec& spec, const ProveOptions& opts = {});
ProveResult prove_equivalence(const verilog::Module& dut, const verilog::SourceFile* dut_file,
                              const verilog::Module& golden, const verilog::SourceFile* golden_file,
                              const sim::StimulusSpec& spec, const ProveOptions& opts = {});

}  // namespace haven::prove
