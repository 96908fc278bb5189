// Dual-rail symbolic lowering of an elaborated design's settled
// combinational state onto the prove::Aig (DESIGN.md §12).
//
// Each 4-state signal bit becomes a (value, unknown) literal pair with the
// same invariant sim::Value::normalize enforces: an unknown bit carries no
// defined value (v implies !x). lower_design() takes the design's compiled
// sim::Program — the compiled simulator's own bytecode and levelized
// schedule — takes the post-initial state from the simulator's own code,
// binds the swept inputs, and runs each triggered combinational process of
// Program::comb_order once over dual-rail words, one symbolic handler per
// Op. The returned words are, bit for bit, the values sim::run_diff_test
// would observe after poking the corresponding input vector.
//
// Anything whose event-driven behaviour is NOT a pure function of the
// current inputs throws UnsupportedError and the verdict falls back to
// simulation: a design the levelizer keeps event-driven (latches, comb
// feedback, nonblocking assigns or loops in comb processes, ...; the reason
// names the failed rule), a clocked process whose edge could ever fire, or
// an operator the words cannot model. The fallback is the soundness valve:
// the prover never guesses, it either reproduces the simulator exactly or
// declines.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "prove/aig.h"
#include "sim/program.h"

namespace haven::prove {

// Thrown when the design uses a construct the lowering cannot model
// bit-identically to the simulator. Internal control flow: converted to
// ProveStatus::kUnsupported by prove_equivalence().
struct UnsupportedError {
  explicit UnsupportedError(std::string r) : reason(std::move(r)) {}
  std::string reason;
};

// One 4-state bit as a dual-rail literal pair (v = defined value,
// x = unknown). Default-constructed bits are X, matching power-on state.
struct Bit {
  Lit v = kFalse;
  Lit x = kTrue;
};

// Fixed-width little-endian vector of dual-rail bits.
struct Word {
  explicit Word(int w = 1) : bits(static_cast<std::size_t>(w)) {}
  int width() const { return static_cast<int>(bits.size()); }
  std::vector<Bit> bits;
};

// Settled state of every signal (indexed by Program slot) as a pure function of
// the AIG inputs. `input_vars` maps top-level input port names to their
// port-width variable literals, LSB first; the same literals are passed for
// DUT and golden so the miscompare network shares structure. Inputs not in
// the map (clock/reset names) keep their post-initial constant values.
// Throws UnsupportedError / BudgetExceededError.
std::vector<Word> lower_design(Aig* aig, const sim::Program& program,
                               const std::map<std::string, std::vector<Lit>>& input_vars);

}  // namespace haven::prove
