// Complement-edge reduced-ordered BDDs for the equivalence verdict
// (DESIGN.md §12). The prover folds the miscompare AIG cone bottom-up
// through land(); canonicity of the complemented-else-edge form makes the
// final check a single reference comparison against kFalseRef.
//
// Variable order is the AIG primary-input order, which the prover allocates
// as the golden module's data-input ports LSB-first — the same bit layout
// the exhaustive testbench sweep uses for its vector counter.
//
// Node allocation charges the shared prove::Budget; a blow-up throws
// BudgetExceededError and the prover defers the candidate to simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "prove/aig.h"

namespace haven::prove {

class Bdd {
 public:
  // Reference: node id << 1 | complement. Node 0 is the single terminal
  // (TRUE); FALSE is its complement.
  using Ref = std::uint32_t;
  static constexpr Ref kTrueRef = 0;
  static constexpr Ref kFalseRef = 1;
  static Ref lnot(Ref f) { return f ^ 1u; }

  explicit Bdd(Budget* budget) : budget_(budget) {
    nodes_.push_back(Node{kTermVar, kTrueRef, kTrueRef});
  }

  // The single-variable function v.
  Ref var(std::uint32_t v) { return mk(v, kTrueRef, kFalseRef); }

  Ref land(Ref f, Ref g);

 private:
  static constexpr std::uint32_t kTermVar = ~std::uint32_t{0};

  struct Node {
    std::uint32_t var = kTermVar;
    Ref hi = kTrueRef;
    Ref lo = kTrueRef;  // invariant: never complemented (canonical form)
    bool operator==(const Node&) const = default;
  };
  struct NodeHash {
    std::size_t operator()(const Node& n) const {
      return Mix64{}((std::uint64_t{n.hi} << 32 | n.lo) ^ std::uint64_t{n.var} << 48);
    }
  };

  Ref mk(std::uint32_t v, Ref hi, Ref lo);
  std::uint32_t var_of(Ref r) const { return nodes_[r >> 1].var; }

  std::vector<Node> nodes_;
  FlatMap<Node, NodeHash> unique_;           // never the terminal Node{}
  FlatMap<std::uint64_t, Mix64> and_cache_;  // (f << 32 | g), f >= 2
  Budget* budget_;
};

}  // namespace haven::prove
