#include "prove/prove.h"

#include <map>
#include <string>
#include <vector>

#include "prove/aig.h"
#include "prove/bdd.h"
#include "prove/lower.h"
#include "sim/compile.h"

namespace haven::prove {

namespace {

using Stage = sim::CompiledModule::Stage;
using verilog::Dir;
using verilog::Module;
using verilog::SourceFile;

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

}  // namespace

bool spec_provable(const Module& golden, const sim::StimulusSpec& spec) {
  // The proof is only verdict-identical when simulation would itself sweep
  // every vector (run_diff_test's exhaustive gate).
  return sim::exhaustive_sweep_bits(golden, spec).has_value();
}

bool golden_provable(const sim::CompiledModule& golden, const sim::StimulusSpec& spec,
                     const ProveOptions& opts) {
  if (!spec_provable(*golden.module, spec) || golden.failed != Stage::kNone) return false;
  try {
    Budget budget(opts.node_budget);
    Aig aig(&budget);
    lower_design(&aig, *golden.program, make_input_vars(&aig, *golden.module, spec));
    return true;
  } catch (const UnsupportedError&) {
    return false;
  } catch (const BudgetExceededError&) {
    return false;
  }
}

bool golden_provable(const Module& golden, const SourceFile* golden_file,
                     const sim::StimulusSpec& spec, const ProveOptions& opts) {
  return spec_provable(golden, spec) &&
         golden_provable(sim::compile_module(golden, golden_file), spec, opts);
}

ProveResult prove_equivalence(const sim::CompiledModule& dut, const sim::CompiledModule& golden,
                              const sim::StimulusSpec& spec, const ProveOptions& opts) {
  ProveResult r;  // defaults to kUnsupported
  if (spec.sequential) {
    r.reason = "sequential task";
    return r;
  }

  // Interface first: run_diff_test fails a candidate on this before touching
  // either design, so the fast-path verdict (and reason) must match.
  const Module& golden_mod = *golden.module;
  const sim::DiffResult iface = sim::check_interface(*dut.module, golden_mod);
  if (!iface.passed) {
    r.status = ProveStatus::kInequivalent;
    r.reason = iface.reason;
    return r;
  }

  if (golden.failed == Stage::kElaborate) {
    // The harness escalates this to a task fault; simulate to reproduce it.
    r.reason = "golden elaboration failed: " + golden.error;
    return r;
  }
  if (dut.failed == Stage::kElaborate) {
    // run_diff_test's exact verdict for a candidate that fails to elaborate.
    r.status = ProveStatus::kInequivalent;
    r.reason = "dut elaboration failed: " + dut.error;
    return r;
  }

  if (!sim::exhaustive_sweep_bits(golden_mod, spec)) {
    r.reason = "input space exceeds the exhaustive sweep";
    return r;
  }

  Budget budget(opts.node_budget);
  Aig aig(&budget);
  try {
    const auto vars = make_input_vars(&aig, golden_mod, spec);
    // A compile-stage error declines the proof, golden side first.
    const auto lower = [&](const sim::CompiledModule& m) {
      if (m.failed == Stage::kCompile) throw UnsupportedError(m.error);
      return lower_design(&aig, *m.program, vars);
    };
    const std::vector<Word> gs = lower(golden);
    const std::vector<Word> ds = lower(dut);

    // Miscompare network: outputs_match per golden output port — DUT must
    // match every golden-defined bit and be defined wherever golden is.
    const auto& golden_slots = golden.program->signal_slots;
    const auto& dut_slots = dut.program->signal_slots;
    Lit mis = kFalse;
    for (const auto& p : golden_mod.ports) {
      if (p.dir != Dir::kOutput) continue;
      const auto git = golden_slots.find(p.name);
      const auto dit = dut_slots.find(p.name);
      if (git == golden_slots.end() || dit == dut_slots.end()) {
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
    try {
      equivalent = bdd_unsat(aig, mis, &budget);
      r.used_bdd = true;
    } catch (const BudgetExceededError&) {
      r.status = ProveStatus::kBudgetExceeded;
      r.reason = "proof outgrew the node budget";
      r.nodes = budget.used();
      return r;
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

ProveResult prove_equivalence(const Module& dut, const SourceFile* dut_file, const Module& golden,
                              const SourceFile* golden_file, const sim::StimulusSpec& spec,
                              const ProveOptions& opts) {
  return prove_equivalence(sim::compile_module(dut, dut_file),
                           sim::compile_module(golden, golden_file), spec, opts);
}

}  // namespace haven::prove
