// The simulation-backend seam. Two executors implement the same stratified
// event-queue semantics over an ElabDesign:
//
//  * SimBackend::kInterpreter — sim::Simulator, the original AST-walking
//    event-driven interpreter (re-walks shared_ptr expression trees).
//  * SimBackend::kCompiled — sim::CompiledSimulator, a one-shot compile of
//    the design into a flat bytecode program executed over a dense register
//    file (see sim/compile.h and DESIGN.md §10).
//
// The backends are bit-identical on every observable: peeked values,
// convergence flags, differential-test verdicts, and the testbench stimulus
// stream (which is drawn before simulation and never touched by either
// executor). The compiled backend is the one every front end runs; the
// interpreter is the test oracle, selected through StimulusSpec::backend /
// EvalRequest::sim_backend by the backend differential tests only.
#pragma once

#include <cstdint>

namespace haven::sim {

enum class SimBackend : std::uint8_t { kInterpreter = 0, kCompiled = 1 };

inline constexpr SimBackend kDefaultSimBackend = SimBackend::kCompiled;

// Interned signal slot: resolve a top-level name once, then poke/peek
// through the handle with no per-call string map lookup. Handles are only
// meaningful on the simulator instance that resolved them (both backends
// number slots identically — by ElabDesign signal id — but validity is not
// checked across instances beyond a bounds check).
struct SignalHandle {
  std::uint32_t slot = UINT32_MAX;
  bool valid() const { return slot != UINT32_MAX; }
};

}  // namespace haven::sim
