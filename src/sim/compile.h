// One-shot compiler from an elaborated design to a flat bytecode Program
// (see sim/program.h for the IR and executor, DESIGN.md §10 for the
// equivalence argument).
//
// Lowering rules that preserve the interpreter's lazy-error contract:
//  * references to undeclared identifiers, unsupported operators, and
//    unsupported lvalue shapes compile to kThrow ops placed at the exact
//    point the interpreter would fault, so designs that never execute the
//    offending code behave identically;
//  * ternaries whose branches are provably throw-free lower to a strict
//    kSelect (both branches evaluated, branch-free); otherwise to the
//    branchy form that evaluates exactly the branches the interpreter would;
//  * literals and selects with out-of-range widths materialize lazily.
//
// Levelization: when every combinational process is a pure, throw-free,
// path-independent function of signals it does not write (the precise
// conditions are documented in DESIGN.md §10), the combinational graph is
// topologically sorted and the active region executes each affected process
// once in dependency order. Any violation — cycles, potential throws,
// latch-shaped bodies, bit-select continuous assigns, multi-driven bits,
// NBAs or for loops in comb processes, over-deep chains — falls back to the
// interpreter-identical event-driven delta loop for the whole design, and
// Program::levelize_failure names the rule. haven::prove executes the same
// levelized Program symbolically (prove/lower.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/elaborate.h"
#include "sim/program.h"
#include "verilog/ast.h"

namespace haven::sim {

// Throws ElabError for the same eager faults as the Simulator constructor
// (an edge on an unknown signal); everything else stays lazy.
Program compile(const ElabDesign& design);

// A parsed module built for simulation once: its Program, shared read-only
// by every simulator and proof that runs it, or the stage whose ElabError
// stopped the build. The engine builds a task's golden once per task and a
// candidate once per pass; the testbench and haven::prove read the same one
// and map a recorded error to their own verdicts.
struct CompiledModule {
  enum class Stage : std::uint8_t { kNone, kElaborate, kCompile };

  const verilog::Module* module = nullptr;    // not owned
  const verilog::SourceFile* file = nullptr;  // instance definitions; may be null
  std::shared_ptr<const Program> program;     // null iff failed != kNone
  Stage failed = Stage::kNone;
  std::string error;  // the ElabError's text
};

// Elaborate and compile `module`, recording an ElabError from either stage
// in the result instead of throwing it. `module` and `file` must outlive the
// result.
CompiledModule compile_module(const verilog::Module& module, const verilog::SourceFile* file);

}  // namespace haven::sim
