#include "prove/prove.h"

#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prove/aig.h"
#include "prove/bdd.h"
#include "prove/lower.h"
#include "sim/elaborate.h"

namespace haven::prove {

namespace {

using verilog::Dir;
using verilog::Module;
using verilog::SourceFile;

// 64-lane truth-table patterns for the first six inputs of the exhaustive
// cofactor sweep; inputs beyond six are fixed per block.
constexpr std::uint64_t kLane[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

// One variable per data-input bit, in port order, LSB first — the exact bit
// layout of the harness's exhaustive vector counter, which doubles as the BDD
// variable order. The same literals feed both lowerings so the miscompare
// network shares structure.
std::map<std::string, std::vector<Lit>> make_input_vars(Aig* aig, const Module& golden,
                                                        const sim::StimulusSpec& spec) {
  std::map<std::string, std::vector<Lit>> vars;
  for (const auto& p : golden.ports) {
    if (p.dir == Dir::kOutput || p.name == spec.clock || p.name == spec.reset) continue;
    auto& v = vars[p.name];
    if (!v.empty()) continue;
    for (int i = 0; i < p.width(); ++i) v.push_back(aig->add_input());
  }
  return vars;
}

// Evaluate the fan-in cone of `root` with BDDs; true iff `root` is
// unsatisfiable. Throws BudgetExceededError on blow-up.
bool bdd_unsat(const Aig& aig, Lit root, Budget* budget) {
  Bdd bdd(budget);
  std::vector<Bdd::Ref> refs(aig.nodes().size(), Bdd::kFalseRef);
  const auto child = [&](Lit l) -> Bdd::Ref {
    const Bdd::Ref r = lit_node(l) == 0 ? Bdd::kFalseRef : refs[lit_node(l)];
    return lit_compl(l) ? Bdd::lnot(r) : r;
  };
  for (const std::uint32_t id : aig.cone(root)) {
    const Aig::Node& n = aig.nodes()[id];
    refs[id] = n.input >= 0 ? bdd.var(static_cast<std::uint32_t>(n.input))
                            : bdd.land(child(n.a), child(n.b));
  }
  return child(root) == Bdd::kFalseRef;
}

// 64-lane exhaustive evaluation of the cone; returns true iff `root` is 0 on
// every input assignment. Never throws: the caller pre-checks the budget.
bool sweep_unsat(const Aig& aig, Lit root, Budget* budget) {
  const auto cone = aig.cone(root);
  const std::size_t n = aig.input_count();
  const std::uint64_t blocks = n <= 6 ? 1 : (std::uint64_t{1} << (n - 6));
  const std::uint64_t lane_mask =
      n >= 6 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (std::uint64_t{1} << n)) - 1);
  std::vector<std::uint64_t> val(aig.nodes().size(), 0);
  const auto cv = [&](Lit l) -> std::uint64_t {
    const std::uint64_t v = lit_node(l) == 0 ? 0 : val[lit_node(l)];
    return lit_compl(l) ? ~v : v;
  };
  for (std::uint64_t block = 0; block < blocks; ++block) {
    budget->charge(cone.size());
    for (const std::uint32_t id : cone) {
      const Aig::Node& node = aig.nodes()[id];
      if (node.input >= 0) {
        val[id] = node.input < 6 ? kLane[node.input]
                                 : (((block >> (node.input - 6)) & 1) ? ~std::uint64_t{0} : 0);
      } else {
        val[id] = cv(node.a) & cv(node.b);
      }
    }
    if (cv(root) & lane_mask) return false;
  }
  return true;
}

}  // namespace

bool spec_provable(const Module& golden, const sim::StimulusSpec& spec) {
  // The proof is only verdict-identical when simulation would itself sweep
  // every vector (run_diff_test's exhaustive gate).
  return sim::exhaustive_sweep_bits(golden, spec).has_value();
}

bool golden_provable(const Module& golden, const SourceFile* golden_file,
                     const sim::StimulusSpec& spec, const ProveOptions& opts) {
  if (!spec_provable(golden, spec)) return false;
  try {
    const sim::ElabDesign design = sim::elaborate(golden, golden_file);
    Budget budget(opts.node_budget);
    Aig aig(&budget);
    lower_design(&aig, design, make_input_vars(&aig, golden, spec));
    return true;
  } catch (const sim::ElabError&) {
    return false;
  } catch (const UnsupportedError&) {
    return false;
  } catch (const BudgetExceededError&) {
    return false;
  }
}

ProveResult prove_equivalence(const Module& dut, const SourceFile* dut_file, const Module& golden,
                              const SourceFile* golden_file, const sim::StimulusSpec& spec,
                              const ProveOptions& opts) {
  ProveResult r;  // defaults to kUnsupported
  if (spec.sequential) {
    r.reason = "sequential task";
    return r;
  }

  // Interface first: run_diff_test fails a candidate on this before touching
  // either design, so the fast-path verdict (and reason) must match.
  const sim::DiffResult iface = sim::check_interface(dut, golden);
  if (!iface.passed) {
    r.status = ProveStatus::kInequivalent;
    r.reason = iface.reason;
    return r;
  }

  sim::ElabDesign gd, dd;
  try {
    gd = sim::elaborate(golden, golden_file);
  } catch (const sim::ElabError& e) {
    // The harness escalates this to a task fault; simulate to reproduce it.
    r.reason = std::string("golden elaboration failed: ") + e.what();
    return r;
  }
  try {
    dd = sim::elaborate(dut, dut_file);
  } catch (const sim::ElabError& e) {
    // run_diff_test's exact verdict for a candidate that fails to elaborate.
    r.status = ProveStatus::kInequivalent;
    r.reason = std::string("dut elaboration failed: ") + e.what();
    return r;
  }

  const std::optional<int> bits = sim::exhaustive_sweep_bits(golden, spec);
  if (!bits) {
    r.reason = "input space exceeds the exhaustive sweep";
    return r;
  }
  const int total_bits = *bits;

  Budget budget(opts.node_budget);
  Aig aig(&budget);
  try {
    const auto vars = make_input_vars(&aig, golden, spec);
    const std::vector<Word> gs = lower_design(&aig, gd, vars);
    const std::vector<Word> ds = lower_design(&aig, dd, vars);

    // Miscompare network: outputs_match per golden output port — DUT must
    // match every golden-defined bit and be defined wherever golden is.
    Lit mis = kFalse;
    for (const auto& p : golden.ports) {
      if (p.dir != Dir::kOutput) continue;
      const auto git = gd.signal_ids.find(p.name);
      const auto dit = dd.signal_ids.find(p.name);
      if (git == gd.signal_ids.end() || dit == dd.signal_ids.end()) {
        r.reason = "output port missing from the elaborated design";
        r.nodes = budget.used();
        return r;
      }
      const Word& gw = gs[git->second];
      const Word& dw = ds[dit->second];
      if (gw.width() != dw.width()) {
        // outputs_match fails every vector on an elaborated-width mismatch.
        r.status = ProveStatus::kInequivalent;
        r.reason = "output '" + p.name + "' elaborated width mismatch";
        r.nodes = budget.used();
        return r;
      }
      for (int i = 0; i < gw.width(); ++i) {
        const Bit& g = gw.bits[static_cast<std::size_t>(i)];
        const Bit& d = dw.bits[static_cast<std::size_t>(i)];
        const Lit care = lit_not(g.x);
        mis = aig.lor(mis, aig.land(care, aig.lor(aig.lxor(g.v, d.v), d.x)));
      }
    }

    r.nodes = budget.used();
    if (mis == kFalse) {
      r.status = ProveStatus::kEquivalent;
      return r;
    }
    if (mis == kTrue) {
      r.status = ProveStatus::kInequivalent;
      r.reason = "outputs differ on every input vector";
      return r;
    }

    bool equivalent = false;
    const std::uint64_t mark = budget.used();
    try {
      equivalent = bdd_unsat(aig, mis, &budget);
      r.used_bdd = true;
    } catch (const BudgetExceededError&) {
      // Discard the BDD attempt and fall back to the 64-lane cofactor sweep,
      // if the remaining budget covers it in full.
      budget.rewind(mark);
      const std::uint64_t cost = aig.cone(mis).size() *
                                 (total_bits <= 6 ? 1 : (std::uint64_t{1} << (total_bits - 6)));
      if (!budget.fits(cost)) {
        r.status = ProveStatus::kBudgetExceeded;
        r.reason = "proof outgrew the node budget";
        r.nodes = budget.used();
        return r;
      }
      equivalent = sweep_unsat(aig, mis, &budget);
      r.used_exhaustive = true;
    }
    r.nodes = budget.used();
    r.status = equivalent ? ProveStatus::kEquivalent : ProveStatus::kInequivalent;
    if (!equivalent) r.reason = "an input vector distinguishes the outputs";
    return r;
  } catch (const UnsupportedError& e) {
    r.reason = e.reason;
    r.nodes = budget.used();
    return r;
  } catch (const BudgetExceededError&) {
    r.status = ProveStatus::kBudgetExceeded;
    r.reason = "lowering outgrew the node budget";
    r.nodes = budget.used();
    return r;
  }
}

}  // namespace haven::prove
