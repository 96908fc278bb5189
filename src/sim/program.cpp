#include "sim/program.h"

#include <algorithm>

#include "sim/compile.h"
#include "util/fault.h"
#include "util/strings.h"

namespace haven::sim {

using verilog::CaseKind;
using verilog::Edge;

namespace {
// Identical to the interpreter's caps so oscillation and runaway-loop
// detection fire at exactly the same points.
constexpr int kMaxDeltaCycles = 1000;
constexpr int kMaxLoopIterations = 1 << 16;

inline int ctz64(std::uint64_t x) { return __builtin_ctzll(x); }
}  // namespace

std::uint32_t Program::slot_of(const std::string& name) const {
  const auto it = signal_slots.find(name);
  if (it == signal_slots.end()) throw ElabError("unknown signal '" + name + "'");
  return it->second;
}

CompiledSimulator::CompiledSimulator(std::shared_ptr<const Program> program,
                                     std::uint64_t step_budget)
    : program_(std::move(program)), step_budget_(step_budget) {
  init();
}

CompiledSimulator::CompiledSimulator(const ElabDesign& design, std::uint64_t step_budget)
    : CompiledSimulator(std::make_shared<const Program>(compile(design)), step_budget) {}

CompiledSimulator::CompiledSimulator(std::shared_ptr<const Program> program, Unsettled)
    : program_(std::move(program)) {
  power_up();
}

CompiledSimulator CompiledSimulator::unsettled(std::shared_ptr<const Program> program) {
  return CompiledSimulator(std::move(program), Unsettled{});
}

void CompiledSimulator::power_up() {
  const Program& prog = *program_;
  const std::size_t nsig = prog.signals.size();
  regs_.assign(prog.num_regs, Value(1));
  for (std::size_t i = 0; i < nsig; ++i) regs_[i] = Value::all_x(prog.signals[i].width);
  prev_edge_.assign(nsig, Value(1));
  dirty_.assign((nsig + 63) / 64, 0);
  const std::size_t proc_words = (prog.processes.size() + 63) / 64;
  pending_.assign(std::max<std::size_t>(proc_words, 1), 0);
  fired_.assign(std::max<std::size_t>(proc_words, 1), 0);
  loop_counters_.assign(prog.num_loops, 0);
  run_initial_blocks();
}

void CompiledSimulator::init() {
  power_up();
  const std::size_t nsig = program_->signals.size();

  // Settle everything once from the initial state (all signals dirty), with
  // edge bookkeeping primed to the post-initial values — the interpreter's
  // constructor sequence.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  for (std::size_t i = 0; i < nsig; ++i) dirty_[i >> 6] |= std::uint64_t{1} << (i & 63);
  any_dirty_ = nsig > 0;
  for (std::uint32_t slot : program_->edge_sigs) prev_edge_[slot] = regs_[slot];
  update();
  for (std::uint32_t slot : program_->edge_sigs) prev_edge_[slot] = regs_[slot];
}

void CompiledSimulator::bump_steps() {
  ++steps_;
  if (step_budget_ != 0 && steps_ > step_budget_) {
    throw BudgetExceeded(util::format("simulation step budget exhausted (%llu steps)",
                                      static_cast<unsigned long long>(step_budget_)));
  }
}

void CompiledSimulator::run_initial_blocks() {
  for (std::uint32_t pi : program_->initial_procs) {
    const ProgProcess& p = program_->processes[pi];
    exec(p.begin, p.end);
  }
  // Initial-block nonblocking assigns commit immediately after; any dirty
  // marks are subsumed by the mark-everything in init().
  std::vector<NbaEntry> queue;
  queue.swap(nba_queue_);
  for (const auto& nba : queue) write_signal(nba.slot, nba.hi, nba.lo, nba.value);
}

void CompiledSimulator::mark_dirty(std::uint32_t slot) {
  dirty_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  any_dirty_ = true;
}

SignalHandle CompiledSimulator::resolve(const std::string& name) const {
  return SignalHandle{program_->slot_of(name)};
}

void CompiledSimulator::poke(SignalHandle h, std::uint64_t value) {
  const ProgSignal& sig = program_->signals[h.slot];
  if (!sig.is_input) throw ElabError("poke on non-input signal '" + sig.name + "'");
  const Value v = Value::of(value, sig.width);
  if (regs_[h.slot].identical(v)) return;
  regs_[h.slot] = v;
  // Seed a fresh dirty set, like the interpreter's per-poke local set: any
  // leftovers from a non-convergent previous update are dropped.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  mark_dirty(h.slot);
  update();
}

void CompiledSimulator::poke_x(SignalHandle h) {
  const ProgSignal& sig = program_->signals[h.slot];
  if (!sig.is_input) throw ElabError("poke_x on non-input signal '" + sig.name + "'");
  const Value v = Value::all_x(sig.width);
  if (regs_[h.slot].identical(v)) return;
  regs_[h.slot] = v;
  std::fill(dirty_.begin(), dirty_.end(), 0);
  mark_dirty(h.slot);
  update();
}

Value CompiledSimulator::peek(SignalHandle h) const { return regs_[h.slot]; }

void CompiledSimulator::poke(const std::string& input, std::uint64_t value) {
  const std::uint32_t slot = program_->slot_of(input);
  if (!program_->signals[slot].is_input)
    throw ElabError("poke on non-input signal '" + input + "'");
  poke(SignalHandle{slot}, value);
}

void CompiledSimulator::poke_x(const std::string& input) {
  const std::uint32_t slot = program_->slot_of(input);
  if (!program_->signals[slot].is_input)
    throw ElabError("poke_x on non-input signal '" + input + "'");
  poke_x(SignalHandle{slot});
}

Value CompiledSimulator::peek(const std::string& signal) const {
  return regs_[program_->slot_of(signal)];
}

void CompiledSimulator::clock_cycle(const std::string& clk) {
  poke(clk, 0);
  poke(clk, 1);
}

void CompiledSimulator::update() {
  util::maybe_inject(util::kSiteSimRun);
  const Program& prog = *program_;
  for (int round = 0; round < kMaxDeltaCycles; ++round) {
    // 1. Combinational settling (active region).
    if (prog.levelized) {
      settle_levelized();
    } else if (!settle_event_driven()) {
      return;  // zero-delay oscillation: converged_ already cleared
    }

    // 2. Detect edges against the last quiescent state.
    std::fill(fired_.begin(), fired_.end(), 0);
    bool any_fired = false;
    for (std::uint32_t slot : prog.edge_sigs) {
      const Value& old_v = prev_edge_[slot];
      const Value& new_v = regs_[slot];
      if (old_v.identical(new_v)) continue;
      const bool old1 = old_v.is_fully_defined() && (old_v.bits() & 1u);
      const bool old0 = old_v.is_fully_defined() && !(old_v.bits() & 1u);
      const bool new1 = new_v.is_fully_defined() && (new_v.bits() & 1u);
      const bool new0 = new_v.is_fully_defined() && !(new_v.bits() & 1u);
      const bool pos = !old1 && new1;  // to-1 transition
      const bool neg = !old0 && new0;  // to-0 transition
      for (std::uint32_t pi : prog.edge_watchers[slot]) {
        for (const auto& [eslot, edge] : prog.processes[pi].edges) {
          if (eslot != slot) continue;
          if ((edge == Edge::kPos && pos) || (edge == Edge::kNeg && neg)) {
            fired_[pi >> 6] |= std::uint64_t{1} << (pi & 63);
            any_fired = true;
          }
        }
      }
    }
    for (std::uint32_t slot : prog.edge_sigs) prev_edge_[slot] = regs_[slot];
    if (!any_fired) return;

    // 3. Execute clocked processes (NBA accumulate), then commit NBAs.
    for (std::size_t w = 0; w < fired_.size(); ++w) {
      std::uint64_t word = fired_[w];
      while (word) {
        const int b = ctz64(word);
        word &= word - 1;
        run_process(prog.processes[w * 64 + b]);
      }
    }
    nba_scratch_.clear();
    nba_scratch_.swap(nba_queue_);
    for (const auto& nba : nba_scratch_) write_signal(nba.slot, nba.hi, nba.lo, nba.value);
    if (!any_dirty_) return;
    // Loop: comb settles again, and a clocked process may fire off a derived
    // clock (e.g. clock divider output feeding another always block).
  }
  converged_ = false;
}

bool CompiledSimulator::settle_event_driven() {
  const Program& prog = *program_;
  int delta = 0;
  while (any_dirty_) {
    if (++delta > kMaxDeltaCycles) {
      converged_ = false;
      return false;
    }
    // Gather the wavefront's processes, then clear dirty: writes during the
    // wavefront form the next one (the interpreter's new_dirty).
    std::fill(pending_.begin(), pending_.end(), 0);
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      std::uint64_t word = dirty_[w];
      while (word) {
        const int b = ctz64(word);
        word &= word - 1;
        for (std::uint32_t pi : prog.comb_watchers[w * 64 + b]) {
          pending_[pi >> 6] |= std::uint64_t{1} << (pi & 63);
        }
      }
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    any_dirty_ = false;
    for (std::size_t w = 0; w < pending_.size(); ++w) {
      std::uint64_t word = pending_[w];
      while (word) {
        const int b = ctz64(word);
        word &= word - 1;
        run_process(prog.processes[w * 64 + b]);
      }
    }
  }
  return true;
}

void CompiledSimulator::settle_levelized() {
  if (!any_dirty_) return;
  const Program& prog = *program_;
  std::fill(pending_.begin(), pending_.end(), 0);
  // Watchers of a written signal always have a strictly greater rank than its
  // writer, so draining dirty signals into the pending-rank mask only ever
  // sets bits ahead of the sweep cursor. The one exception is the writer
  // itself when it reads its own targets: those reads are write-before-read,
  // so re-running it would change nothing, and `running` is skipped.
  const auto drain = [this, &prog](std::uint32_t running) {
    if (!any_dirty_) return;
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
      std::uint64_t word = dirty_[w];
      while (word) {
        const int b = ctz64(word);
        word &= word - 1;
        for (std::uint32_t pi : prog.comb_watchers[w * 64 + b]) {
          const std::uint32_t rank = prog.comb_rank[pi];
          if (rank != running) pending_[rank >> 6] |= std::uint64_t{1} << (rank & 63);
        }
      }
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    any_dirty_ = false;
  };
  drain(UINT32_MAX);
  const std::size_t rank_words = (prog.comb_order.size() + 63) / 64;
  for (std::size_t w = 0; w < rank_words; ++w) {
    while (std::uint64_t word = pending_[w]) {
      const auto rank = static_cast<std::uint32_t>(w * 64 + ctz64(word));
      pending_[w] &= ~(std::uint64_t{1} << (rank & 63));
      run_process(prog.processes[prog.comb_order[rank]]);
      drain(rank);
    }
  }
}

void CompiledSimulator::run_process(const ProgProcess& proc) {
  ++activations_;
  bump_steps();
  exec(proc.begin, proc.end);
}

void CompiledSimulator::write_signal(std::uint32_t slot, int hi, int lo, const Value& v) {
  Value& cur = regs_[slot];
  const int w = hi - lo + 1;
  const std::uint64_t field_mask =
      (w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1)) << lo;
  const Value vv = v.resized(w);
  const std::uint64_t new_bits =
      (cur.bits() & ~field_mask) | ((vv.bits() << lo) & field_mask);
  const std::uint64_t new_xz = (cur.xz() & ~field_mask) | ((vv.xz() << lo) & field_mask);
  const Value next = Value::with_xz(new_bits, new_xz, program_->signals[slot].width);
  if (next.identical(cur)) return;
  cur = next;
  mark_dirty(slot);
}

void CompiledSimulator::exec(std::uint32_t pc, std::uint32_t end) {
  const Program& prog = *program_;
  const Instr* code = prog.code.data();
  Value* r = regs_.data();
  while (pc < end) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::kConst:
        // mode 1: a width-faulting literal built lazily so the invalid_argument
        // surfaces at evaluation time, exactly like the interpreter.
        if (in.mode == 0) {
          r[in.dst] = prog.consts[in.a];
        } else {
          const RawNumber& n = prog.raw_numbers[in.a];
          r[in.dst] = Value::with_xz(n.bits, n.xz, n.width);
        }
        ++pc;
        break;
      case Op::kMove: r[in.dst] = r[in.a]; ++pc; break;
      case Op::kAnd: r[in.dst] = v_and(r[in.a], r[in.b]); ++pc; break;
      case Op::kOr: r[in.dst] = v_or(r[in.a], r[in.b]); ++pc; break;
      case Op::kXor: r[in.dst] = v_xor(r[in.a], r[in.b]); ++pc; break;
      case Op::kAdd: r[in.dst] = v_add(r[in.a], r[in.b]); ++pc; break;
      case Op::kSub: r[in.dst] = v_sub(r[in.a], r[in.b]); ++pc; break;
      case Op::kMul: r[in.dst] = v_mul(r[in.a], r[in.b]); ++pc; break;
      case Op::kDiv: r[in.dst] = v_div(r[in.a], r[in.b]); ++pc; break;
      case Op::kMod: r[in.dst] = v_mod(r[in.a], r[in.b]); ++pc; break;
      case Op::kShl: r[in.dst] = v_shl(r[in.a], r[in.b]); ++pc; break;
      case Op::kShr: r[in.dst] = v_shr(r[in.a], r[in.b]); ++pc; break;
      case Op::kEq: r[in.dst] = v_eq(r[in.a], r[in.b]); ++pc; break;
      case Op::kNeq: r[in.dst] = v_neq(r[in.a], r[in.b]); ++pc; break;
      case Op::kCaseEq: r[in.dst] = v_case_eq(r[in.a], r[in.b]); ++pc; break;
      case Op::kLt: r[in.dst] = v_lt(r[in.a], r[in.b]); ++pc; break;
      case Op::kLe: r[in.dst] = v_le(r[in.a], r[in.b]); ++pc; break;
      case Op::kGt: r[in.dst] = v_gt(r[in.a], r[in.b]); ++pc; break;
      case Op::kGe: r[in.dst] = v_ge(r[in.a], r[in.b]); ++pc; break;
      case Op::kLogAnd: r[in.dst] = v_logical_and(r[in.a], r[in.b]); ++pc; break;
      case Op::kLogOr: r[in.dst] = v_logical_or(r[in.a], r[in.b]); ++pc; break;
      case Op::kPow: {
        const Value& a = r[in.a];
        const Value& b = r[in.b];
        if (!a.is_fully_defined() || !b.is_fully_defined()) {
          r[in.dst] = Value::all_x(a.width());
        } else {
          std::uint64_t p = 1;
          for (std::uint64_t i = 0; i < b.bits() && i < 64; ++i) p *= a.bits();
          r[in.dst] = Value::of(p, a.width());
        }
        ++pc;
        break;
      }
      case Op::kNot: r[in.dst] = v_not(r[in.a]); ++pc; break;
      case Op::kNeg: r[in.dst] = v_neg(r[in.a]); ++pc; break;
      case Op::kLogNot: r[in.dst] = v_logical_not(r[in.a]); ++pc; break;
      case Op::kRedAnd: r[in.dst] = v_red_and(r[in.a]); ++pc; break;
      case Op::kRedOr: r[in.dst] = v_red_or(r[in.a]); ++pc; break;
      case Op::kRedXor: r[in.dst] = v_red_xor(r[in.a]); ++pc; break;
      case Op::kSelect: {
        const Value& c = r[in.a];
        if (c.truthy()) {
          r[in.dst] = r[in.b];
        } else if (c.is_fully_defined()) {
          r[in.dst] = r[in.c];
        } else {
          const Value& t = r[in.b];
          const Value& f = r[in.c];
          const int w = std::max(t.width(), f.width());
          const Value tr = t.resized(w), fr = f.resized(w);
          const std::uint64_t agree = ~(tr.bits() ^ fr.bits()) & ~tr.xz() & ~fr.xz();
          r[in.dst] = Value::with_xz(tr.bits() & agree, ~agree, w);
        }
        ++pc;
        break;
      }
      case Op::kMergeX: {
        const Value& t = r[in.a];
        const Value& f = r[in.b];
        const int w = std::max(t.width(), f.width());
        const Value tr = t.resized(w), fr = f.resized(w);
        const std::uint64_t agree = ~(tr.bits() ^ fr.bits()) & ~tr.xz() & ~fr.xz();
        r[in.dst] = Value::with_xz(tr.bits() & agree, ~agree, w);
        ++pc;
        break;
      }
      case Op::kConcat: r[in.dst] = v_concat(r[in.a], r[in.b]); ++pc; break;
      case Op::kReplicate: {
        const Value inner = r[in.a];
        if (static_cast<std::uint64_t>(in.b) * static_cast<std::uint64_t>(inner.width()) > 64)
          throw ElabError("replication wider than 64 bits");
        Value acc = inner;
        for (std::uint32_t i = 1; i < in.b; ++i) acc = v_concat(acc, inner);
        r[in.dst] = acc;
        ++pc;
        break;
      }
      case Op::kSlice:
        // mode 1: part select whose low bound is past the signal — all-X of
        // the select width (which may itself be out of range and throw).
        if (in.mode == 0) {
          const Value& a = r[in.a];
          r[in.dst] = Value::with_xz(a.bits() >> in.b, a.xz() >> in.b,
                                     static_cast<int>(in.c));
        } else {
          r[in.dst] = Value::all_x(static_cast<int>(in.c));
        }
        ++pc;
        break;
      case Op::kBitDyn: {
        const Value& base = r[in.a];
        const Value& idx = r[in.b];
        if (!idx.is_fully_defined()) {
          r[in.dst] = Value::all_x(1);
        } else {
          const std::uint64_t i = idx.bits();
          if (i >= static_cast<std::uint64_t>(base.width())) {
            r[in.dst] = Value::all_x(1);
          } else {
            r[in.dst] = Value::with_xz((base.bits() >> i) & 1u, (base.xz() >> i) & 1u, 1);
          }
        }
        ++pc;
        break;
      }
      case Op::kResize: r[in.dst] = r[in.a].resized(static_cast<int>(in.b)); ++pc; break;
      case Op::kCaseCmp: {
        const Value& subj = r[in.a];
        const Value& label = r[in.b];
        const int w = std::max(subj.width(), label.width());
        const Value sv = subj.resized(w), lv = label.resized(w);
        std::uint64_t wildcard = 0;
        const auto kind = static_cast<CaseKind>(in.mode);
        if (kind == CaseKind::kCasez) wildcard = lv.xz();
        else if (kind == CaseKind::kCasex) wildcard = lv.xz() | sv.xz();
        const std::uint64_t care = sv.mask() & ~wildcard;
        const bool match = ((sv.bits() ^ lv.bits()) & care) == 0 &&
                           ((sv.xz() ^ lv.xz()) & care) == 0;
        r[in.dst] = Value::of(match ? 1 : 0, 1);
        ++pc;
        break;
      }
      case Op::kJump: pc = in.dst; break;
      case Op::kJumpIfTrue: pc = r[in.a].truthy() ? in.dst : pc + 1; break;
      case Op::kJumpIfFalse: pc = r[in.a].truthy() ? pc + 1 : in.dst; break;
      case Op::kJumpIfDefined: pc = r[in.a].is_fully_defined() ? in.dst : pc + 1; break;
      case Op::kLoopInit: loop_counters_[in.a] = 0; ++pc; break;
      case Op::kLoopGuard:
        if (++loop_counters_[in.a] > kMaxLoopIterations) {
          converged_ = false;
          pc = in.dst;  // abandon the loop; the enclosing block continues
        } else {
          ++pc;
        }
        break;
      case Op::kStep: bump_steps(); ++pc; break;
      case Op::kStoreSig:
        write_signal(in.dst, static_cast<int>(in.b), static_cast<int>(in.c), r[in.a]);
        ++pc;
        break;
      case Op::kStoreBitDyn: {
        const Value& idx = r[in.b];
        if (idx.is_fully_defined() &&
            idx.bits() < static_cast<std::uint64_t>(prog.signals[in.dst].width)) {
          const int i = static_cast<int>(idx.bits());
          write_signal(in.dst, i, i, r[in.a]);
        }
        ++pc;
        break;
      }
      case Op::kNbaSig: {
        const int hi = static_cast<int>(in.b), lo = static_cast<int>(in.c);
        nba_queue_.push_back({in.dst, hi, lo, r[in.a].resized(hi - lo + 1)});
        ++pc;
        break;
      }
      case Op::kNbaBitDyn: {
        const Value& idx = r[in.b];
        if (idx.is_fully_defined() &&
            idx.bits() < static_cast<std::uint64_t>(prog.signals[in.dst].width)) {
          const int i = static_cast<int>(idx.bits());
          nba_queue_.push_back({in.dst, i, i, r[in.a].resized(1)});
        }
        ++pc;
        break;
      }
      case Op::kThrow: throw ElabError(prog.messages[in.a]);
    }
  }
}

}  // namespace haven::sim
