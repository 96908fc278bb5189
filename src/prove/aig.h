// Structurally-hashed AND-inverter graph over which haven::prove lowers the
// settled combinational state of a compiled sim::Program (DESIGN.md §12).
//
// Literals are node-id-with-complement integers (node << 1 | complement), so
// negation is free and the two-level simplification rules in land() keep the
// graph canonical enough that many equivalences — in particular a golden
// module proved against itself — collapse to a constant without ever
// touching the BDD layer. Node 0 is the constant-FALSE node; every other
// node is either a primary input or a two-input AND.
//
// All allocation is metered through a shared Budget so one hostile candidate
// can never grow the proof structures without bound: exceeding the budget
// throws BudgetExceededError, which the prover converts into a simulation
// fallback (never a verdict).
#pragma once

#include <cstdint>
#include <vector>

namespace haven::prove {

// Thrown when a proof attempt outgrows its node budget. Internal control
// flow: prove_equivalence() catches it and reports kBudgetExceeded.
struct BudgetExceededError {};

// Shared allocation meter for one proof attempt: AIG nodes and BDD nodes
// charge the same pool. limit 0 means unbounded.
class Budget {
 public:
  explicit Budget(std::uint64_t limit) : limit_(limit) {}

  void charge(std::uint64_t n = 1) {
    used_ += n;
    if (limit_ != 0 && used_ > limit_) throw BudgetExceededError{};
  }
  std::uint64_t used() const { return used_; }

 private:
  std::uint64_t limit_;
  std::uint64_t used_ = 0;
};

// Hash map from a key to a 32-bit node reference, for the AIG strash and the
// BDD unique and and-tables: open addressing with linear probing over a
// power-of-two slot array kept at most half full, so a lookup is one hash and
// a short scan of adjacent slots. The value-initialised Key marks an empty
// slot, so it is never inserted; nothing is erased.
template <class Key, class Hash>
class FlatMap {
 public:
  const std::uint32_t* find(const Key& key) const {
    const Slot& s = slots_[probe(key)];
    return s.key == key ? &s.value : nullptr;
  }
  // `key` must be absent.
  void insert(const Key& key, std::uint32_t value) {
    if (2 * ++size_ > slots_.size()) {
      std::vector<Slot> old(2 * slots_.size());
      old.swap(slots_);
      for (const Slot& s : old) {
        if (!(s.key == Key{})) slots_[probe(s.key)] = s;
      }
    }
    slots_[probe(key)] = Slot{key, value};
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t value = 0;
  };
  // The slot holding `key`, or the empty slot where it belongs.
  std::size_t probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    while (!(slots_[i].key == key || slots_[i].key == Key{})) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_ = std::vector<Slot>(256);
  std::size_t size_ = 0;
};

// Spreads every key bit into the low bits FlatMap masks with.
struct Mix64 {
  std::size_t operator()(std::uint64_t k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(k ^ (k >> 33));
  }
};

// Literal: node id << 1 | complement bit.
using Lit = std::uint32_t;
inline constexpr Lit kFalse = 0;  // node 0, plain
inline constexpr Lit kTrue = 1;   // node 0, complemented
constexpr Lit lit_not(Lit l) { return l ^ 1u; }
constexpr std::uint32_t lit_node(Lit l) { return l >> 1; }
constexpr bool lit_compl(Lit l) { return (l & 1u) != 0; }

class Aig {
 public:
  struct Node {
    Lit a = 0, b = 0;        // AND operands (a <= b), unused for inputs
    std::int32_t input = -1; // >= 0: primary input index
  };

  explicit Aig(Budget* budget) : budget_(budget) { nodes_.push_back(Node{}); }

  // Fresh primary input. Input order is the BDD variable order.
  Lit add_input();

  // Two-input AND with constant folding, unit/idempotence/complement rules
  // and structural hashing.
  Lit land(Lit a, Lit b);

  Lit lor(Lit a, Lit b) { return lit_not(land(lit_not(a), lit_not(b))); }
  Lit lxor(Lit a, Lit b);
  // sel ? t : f
  Lit lmux(Lit sel, Lit t, Lit f);

  bool is_const(Lit l) const { return lit_node(l) == 0; }

  const std::vector<Node>& nodes() const { return nodes_; }
  Budget* budget() const { return budget_; }

  // Node ids of the transitive fan-in cone of `root`, ascending (operands
  // always precede their AND, so ascending order is a topological order).
  // Node 0 is excluded.
  std::vector<std::uint32_t> cone(Lit root) const;

 private:
  std::vector<Node> nodes_;
  FlatMap<std::uint64_t, Mix64> strash_;  // (a << 32 | b), a >= 2
  std::size_t input_count_ = 0;
  Budget* budget_;
};

}  // namespace haven::prove
