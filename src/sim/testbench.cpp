#include "sim/testbench.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "sim/program.h"
#include "util/strings.h"
#include "verilog/parser.h"

namespace haven::sim {

using verilog::Dir;
using verilog::Module;
using verilog::SourceFile;

namespace {

// Compare one output: where the golden value is defined, the DUT must match
// exactly; golden X bits are unconstrained (the specification leaves them
// free, so any DUT value is acceptable there).
bool outputs_match(const Value& golden, const Value& dut, std::string* why,
                   const std::string& name) {
  if (golden.width() != dut.width()) {
    *why = util::format("output '%s' width mismatch (golden %d, dut %d)", name.c_str(),
                        golden.width(), dut.width());
    return false;
  }
  const std::uint64_t care = ~golden.xz() & golden.mask();
  const bool bits_ok = ((golden.bits() ^ dut.bits()) & care) == 0;
  const bool defined_ok = (dut.xz() & care) == 0;
  if (bits_ok && defined_ok) return true;
  *why = util::format("output '%s': golden=%s dut=%s", name.c_str(),
                      golden.to_string().c_str(), dut.to_string().c_str());
  return false;
}

// Backend-erased simulator: exactly one of the two members is live. A plain
// branch per call beats virtual dispatch here and keeps both concrete classes
// free of vtables on their hot paths.
class AnySim {
 public:
  AnySim(const CompiledModule& m, SimBackend backend, std::uint64_t step_budget) {
    if (backend == SimBackend::kCompiled) {
      comp_ = std::make_unique<CompiledSimulator>(m.program, step_budget);
    } else {
      // The interpreter runs the elaborated design itself, which the build
      // does not keep: it elaborates the module again.
      interp_ = std::make_unique<Simulator>(elaborate(*m.module, m.file), step_budget);
    }
  }
  SignalHandle resolve(const std::string& name) const {
    return comp_ ? comp_->resolve(name) : interp_->resolve(name);
  }
  void poke(SignalHandle h, std::uint64_t v) {
    if (comp_) {
      comp_->poke(h, v);
    } else {
      interp_->poke(h, v);
    }
  }
  Value peek(SignalHandle h) const { return comp_ ? comp_->peek(h) : interp_->peek(h); }
  bool converged() const { return comp_ ? comp_->converged() : interp_->converged(); }

 private:
  std::unique_ptr<Simulator> interp_;
  std::unique_ptr<CompiledSimulator> comp_;
};

// A named port resolved to its slot handle on both simulators: the string
// lookup happens once per unit here, never per stimulus vector.
struct PortPair {
  std::string name;
  int width = 0;
  SignalHandle golden;
  SignalHandle dut;
};

struct Harness {
  AnySim golden;
  AnySim dut;
  std::vector<PortPair> data_inputs;  // inputs except clock/reset
  std::vector<PortPair> outputs;
};

// Both sides raise ElabError, but only a golden-side one means a broken
// task; a DUT-side one fails the DUT. Each DUT call that can raise one runs
// through dut_side(), which retags it with the DUT's verdict reason.
struct DutFault {
  std::string reason;
};

template <typename Fn>
auto dut_side(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ElabError& e) {
    throw DutFault{std::string(what) + e.what()};
  }
}

// A compare is handed a builder for the label naming its vector or cycle,
// and calls it only to word a failure: passing vectors format nothing.
auto fixed_label(const char* text) {
  return [text] { return std::string(text); };
}

}  // namespace

DiffResult check_interface(const Module& dut, const Module& golden) {
  DiffResult r;
  for (const auto& gp : golden.ports) {
    const verilog::Port* dp = dut.find_port(gp.name);
    if (dp == nullptr) {
      r.reason = "missing port '" + gp.name + "'";
      return r;
    }
    if (dp->dir != gp.dir) {
      r.reason = "port '" + gp.name + "' direction mismatch";
      return r;
    }
    if (dp->width() != gp.width()) {
      r.reason = util::format("port '%s' width mismatch (golden %d, dut %d)", gp.name.c_str(),
                              gp.width(), dp->width());
      return r;
    }
  }
  for (const auto& dp : dut.ports) {
    if (golden.find_port(dp.name) == nullptr) {
      r.reason = "extra port '" + dp.name + "'";
      return r;
    }
  }
  r.passed = true;
  return r;
}

std::optional<int> exhaustive_sweep_bits(const Module& golden, const StimulusSpec& spec) {
  if (spec.sequential) return std::nullopt;
  int bits = 0;
  for (const auto& p : golden.ports) {
    if (p.dir == Dir::kOutput || p.name == spec.clock || p.name == spec.reset) continue;
    bits += p.width();
  }
  if (bits > spec.max_exhaustive_bits || bits > 20) return std::nullopt;
  return bits;
}

DiffResult run_diff_test(const CompiledModule& dut, const CompiledModule& golden,
                         const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline) {
  const Module& golden_mod = *golden.module;
  DiffResult iface = check_interface(*dut.module, golden_mod);
  if (!iface.passed) return iface;

  // Watchdog: checked between vectors/cycles; sim::BudgetExceeded and
  // util::DeadlineExceeded both escape this function as harness faults,
  // never as DUT verdicts.
  auto check_deadline = [&](const char* where) {
    if (deadline != nullptr) deadline->check(where);
  };

  DiffResult result;
  try {
    // A recorded build error surfaces where its stage runs: golden
    // elaboration, DUT elaboration, then each side's simulator construction
    // (compile included), golden first.
    using Stage = CompiledModule::Stage;
    const auto rethrow = [](const CompiledModule& m, Stage stage) {
      if (m.failed == stage) throw ElabError(m.error);
    };
    rethrow(golden, Stage::kElaborate);
    dut_side("dut elaboration failed: ", [&] { rethrow(dut, Stage::kElaborate); });
    rethrow(golden, Stage::kCompile);
    AnySim golden_sim(golden, spec.backend, spec.step_budget);
    AnySim dut_sim = dut_side("dut elaboration failed: ", [&] {
      rethrow(dut, Stage::kCompile);
      return AnySim(dut, spec.backend, spec.step_budget);
    });
    Harness h{std::move(golden_sim), std::move(dut_sim), {}, {}};
    auto resolve_pair = [&](const std::string& name, int width) {
      return PortPair{name, width, h.golden.resolve(name), h.dut.resolve(name)};
    };
    for (const auto& p : golden_mod.ports) {
      if (p.dir == Dir::kOutput) {
        h.outputs.push_back(resolve_pair(p.name, p.width()));
      } else if (p.name != spec.clock && p.name != spec.reset) {
        h.data_inputs.push_back(resolve_pair(p.name, p.width()));
      }
    }
    // Clock/reset handles are only resolved when the protocol drives them, so
    // combinational specs keep working against clockless modules.
    PortPair clock_pair, reset_pair;
    if (spec.sequential) clock_pair = resolve_pair(spec.clock, 1);
    if (spec.sequential && !spec.reset.empty()) reset_pair = resolve_pair(spec.reset, 1);

    auto drive_both = [&](const PortPair& p, std::uint64_t v) {
      h.golden.poke(p.golden, v);
      dut_side("dut simulation failed: ", [&] { h.dut.poke(p.dut, v); });
    };
    // Strict comparison: DUT must match every golden-defined bit.
    auto compare_outputs = [&](const auto& label) -> bool {
      if (!h.dut.converged()) {
        result.reason = util::format("dut failed to converge (%s)", label().c_str());
        return false;
      }
      if (!h.golden.converged()) {
        // A golden oscillation is a harness bug, not a DUT failure.
        throw std::logic_error("golden model failed to converge");
      }
      for (const auto& out : h.outputs) {
        std::string why;
        if (!outputs_match(h.golden.peek(out.golden), h.dut.peek(out.dut), &why, out.name)) {
          result.reason = util::format("%s: %s", label().c_str(), why.c_str());
          return false;
        }
      }
      return true;
    };
    auto randomize_inputs = [&]() {
      for (const auto& in : h.data_inputs) {
        const std::uint64_t mask =
            in.width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << in.width) - 1);
        drive_both(in, rng.next() & mask);
      }
    };

    if (!spec.sequential) {
      if (const std::optional<int> bits = exhaustive_sweep_bits(golden_mod, spec)) {
        const std::uint64_t limit = std::uint64_t{1} << *bits;
        for (std::uint64_t vec = 0; vec < limit; ++vec) {
          check_deadline("exhaustive vector sweep");
          std::uint64_t rest = vec;
          for (const auto& in : h.data_inputs) {
            const std::uint64_t mask = (std::uint64_t{1} << in.width) - 1;
            drive_both(in, rest & mask);
            rest >>= in.width;
          }
          ++result.vectors;
          if (!compare_outputs([vec] {
                return util::format("vector %llu", static_cast<unsigned long long>(vec));
              })) {
            return result;
          }
        }
      } else {
        for (int v = 0; v < spec.random_vectors; ++v) {
          check_deadline("random vector sweep");
          randomize_inputs();
          ++result.vectors;
          if (!compare_outputs([v] { return util::format("random vector %d", v); })) {
            return result;
          }
        }
      }
      result.passed = true;
      return result;
    }

    // Sequential protocol: hold reset asserted for two cycles, release, then
    // drive random data each cycle; optionally re-assert mid-run.
    const std::uint64_t reset_on = spec.reset_active_low ? 0 : 1;
    const std::uint64_t reset_off = spec.reset_active_low ? 1 : 0;
    drive_both(clock_pair, 0);
    for (const auto& in : h.data_inputs) drive_both(in, 0);
    // Lenient comparison for the pre-reset window: power-on X in the DUT is
    // not a functional error (real testbenches only sample after reset), but
    // *defined* disagreement — an async golden already reset while the DUT
    // holds a defined stale value — is.
    auto compare_defined_only = [&](const auto& label) -> bool {
      if (!h.dut.converged()) {
        result.reason = util::format("dut failed to converge (%s)", label().c_str());
        return false;
      }
      for (const auto& out : h.outputs) {
        const Value g = h.golden.peek(out.golden);
        const Value d = h.dut.peek(out.dut);
        if (!g.is_fully_defined() || !d.is_fully_defined()) continue;
        std::string why;
        if (!outputs_match(g, d, &why, out.name)) {
          result.reason = util::format("%s: %s", label().c_str(), why.c_str());
          return false;
        }
      }
      return true;
    };

    if (!spec.reset.empty()) {
      drive_both(reset_pair, reset_on);
      ++result.vectors;
      if (!compare_defined_only(fixed_label("initial reset assertion"))) return result;
      for (int c = 0; c < 2; ++c) {
        drive_both(clock_pair, 0);
        drive_both(clock_pair, 1);
      }
      drive_both(clock_pair, 0);
      drive_both(reset_pair, reset_off);
      ++result.vectors;
      if (!compare_outputs(fixed_label("after reset"))) return result;
    }

    // Two mid-run reset pulses: comparing immediately after assertion (before
    // any clock edge) is the window where an asynchronous golden and a
    // hallucinated synchronous DUT are distinguishable. Two pulses at
    // different machine states make the defined-value divergence likely even
    // for 1-bit outputs.
    const int reassert_a = spec.mid_test_reset && !spec.reset.empty() ? spec.cycles / 3 : -1;
    const int reassert_b = spec.mid_test_reset && !spec.reset.empty() ? spec.cycles * 2 / 3 : -1;
    for (int cycle = 0; cycle < spec.cycles; ++cycle) {
      check_deadline("cycle loop");
      if (cycle == reassert_a || cycle == reassert_b) {
        drive_both(reset_pair, reset_on);
        ++result.vectors;
        if (!compare_outputs(fixed_label("mid-test reset assertion"))) return result;
      } else if ((cycle == reassert_a + 1 && reassert_a >= 0) ||
                 (cycle == reassert_b + 1 && reassert_b >= 0)) {
        drive_both(reset_pair, reset_off);
      }
      randomize_inputs();
      drive_both(clock_pair, 0);
      // Half-cycle comparison: a design hallucinated onto the wrong clock
      // edge updates here while the golden design does not.
      ++result.vectors;
      if (!compare_outputs([cycle] { return util::format("cycle %d (half)", cycle); })) {
        return result;
      }
      drive_both(clock_pair, 1);
      ++result.vectors;
      if (!compare_outputs([cycle] { return util::format("cycle %d", cycle); })) return result;
    }
    result.passed = true;
    return result;
  } catch (const DutFault& f) {
    result.reason = f.reason;
    return result;
  } catch (const ElabError& e) {
    // Golden-side elaboration errors indicate a broken task definition.
    throw std::logic_error(std::string("golden elaboration failed: ") + e.what());
  }
}

DiffResult run_diff_test(const Module& dut, const SourceFile* dut_file, const Module& golden,
                         const SourceFile* golden_file, const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline) {
  return run_diff_test(compile_module(dut, dut_file), compile_module(golden, golden_file), spec,
                       rng, deadline);
}

DiffResult run_diff_test(const std::string& dut_source, const std::string& golden_source,
                         const StimulusSpec& spec, util::Rng& rng,
                         const util::Deadline* deadline) {
  DiffResult result;
  verilog::ParseOutput dut_parsed = verilog::parse_source(dut_source);
  if (!dut_parsed.ok() || dut_parsed.file.modules.empty()) {
    result.reason = "dut parse failed";
    if (!dut_parsed.diagnostics.empty()) {
      result.reason += ": " + dut_parsed.diagnostics.front().to_string();
    }
    return result;
  }
  verilog::ParseOutput golden_parsed = verilog::parse_source(golden_source);
  if (!golden_parsed.ok() || golden_parsed.file.modules.empty()) {
    throw std::invalid_argument("golden source does not parse");
  }
  return run_diff_test(dut_parsed.file.modules.front(), &dut_parsed.file,
                       golden_parsed.file.modules.front(), &golden_parsed.file, spec, rng,
                       deadline);
}

}  // namespace haven::sim
