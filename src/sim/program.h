// Flat bytecode program compiled from an ElabDesign, plus the
// CompiledSimulator that executes it.
//
// The IR is a register machine over a dense file of sim::Value registers.
// The first `signals.size()` registers ARE the signal state (reading a
// signal costs nothing — the operand just names its slot); the rest are
// per-process scratch temporaries. Expressions are linearized into three-
// address ops that call the exact v_* semantics from sim/value.h, so the
// compiled backend cannot drift from the interpreter's four-state algebra.
// Statements lower to branchy opcodes (conditional jumps, case compares,
// loop guards) with resolved signal slots and constant bit ranges; blocking
// writes go through the same masked read-modify-write as the interpreter and
// nonblocking writes accumulate in an NBA queue committed in the NBA region.
//
// Constructs the interpreter only faults on *lazily* (undeclared
// identifiers, unsupported lvalues/operators) compile to kThrow ops at the
// exact evaluation point, so a design that never executes the offending
// branch behaves identically on both backends.
//
// Scheduling (see DESIGN.md §10): CompiledSimulator reproduces the
// interpreter's stratified event queue — active-region combinational
// settling, edge detection against the last quiescent state, clocked
// execution with NBA commit, delta/round caps setting converged() = false,
// X power-up, and the statement+activation step budget. When the
// combinational process graph is acyclic, single-writer, and throw-free, the
// active region is *levelized*: affected processes run once each in
// topological order instead of iterating to a fixpoint. Otherwise the
// event-driven delta loop is kept (the fallback rule), which is what makes
// zero-delay oscillation detection — and therefore every verdict — agree
// with the interpreter bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/backend.h"
#include "sim/elaborate.h"
#include "sim/simulator.h"  // BudgetExceeded
#include "sim/value.h"

namespace haven::sim {

// Opcode set. Unless noted, operands name registers (dst, a, b, c) and the
// semantics are exactly the v_* helper of the same name.
enum class Op : std::uint8_t {
  // Values.
  kConst,    // r[dst] = consts[a]
  kMove,     // r[dst] = r[a]
  // Binary (dst, a, b).
  kAnd, kOr, kXor, kAdd, kSub, kMul, kDiv, kMod, kShl, kShr,
  kEq, kNeq, kCaseEq, kLt, kLe, kGt, kGe, kLogAnd, kLogOr,
  kPow,      // the interpreter's ** loop (width of a, X on any unknown)
  // Unary (dst, a).
  kNot, kNeg, kLogNot, kRedAnd, kRedOr, kRedXor,
  // Structure.
  kSelect,     // strict ternary: r[dst] = r[a] truthy ? r[b]
               //                 : defined ? r[c] : merge(r[b], r[c])
  kMergeX,     // r[dst] = X-merge(r[a], r[b])  (undefined-condition ternary)
  kConcat,     // r[dst] = v_concat(r[a], r[b])
  kReplicate,  // r[dst] = {b{r[a]}} with the interpreter's >64-bit throw
  kSlice,      // r[dst] = with_xz(r[a].bits >> b, r[a].xz >> b, width c)
  kBitDyn,     // r[dst] = r[a][r[b]] (X/out-of-range index -> 1'bx)
  kResize,     // r[dst] = r[a].resized(b)
  kCaseCmp,    // r[dst] = 1 iff r[a] matches label r[b] under CaseKind mode
  // Control flow (jump target in dst).
  kJump,          // pc = dst
  kJumpIfTrue,    // if r[a] truthy: pc = dst
  kJumpIfFalse,   // if !r[a].truthy(): pc = dst
  kJumpIfDefined, // if r[a] fully defined: pc = dst
  kLoopInit,      // loop_counter[a] = 0
  kLoopGuard,     // if ++loop_counter[a] > cap: converged = false, pc = dst
  kStep,          // statement boundary: bump steps, check budget
  // Signal writes (signal slot in dst, value in a).
  kStoreSig,     // blocking write of r[a] into bits [b:c] of signal dst
  kStoreBitDyn,  // blocking write of r[a] into bit r[b] (skip on X/OOR index)
  kNbaSig,       // nonblocking: queue r[a] into bits [b:c] of signal dst
  kNbaBitDyn,    // nonblocking bit write (index drawn now, skip on X/OOR)
  // Lazy faults.
  kThrow,  // throw ElabError(messages[a])
};

struct Instr {
  Op op = Op::kStep;
  std::uint8_t mode = 0;  // verilog::CaseKind for kCaseCmp
  std::uint32_t dst = 0, a = 0, b = 0, c = 0;
};

struct ProgSignal {
  std::string name;
  int width = 1;
  bool is_input = false;
  bool is_output = false;
};

struct ProgProcess {
  ProcessKind kind = ProcessKind::kComb;
  std::uint32_t begin = 0, end = 0;  // [begin, end) in Program::code
  // kClocked: (signal slot, edge) sensitivity items, in declaration order.
  std::vector<std::pair<std::uint32_t, verilog::Edge>> edges;
};

// A literal whose width falls outside Value's 1..64 range: materialized at
// evaluation time (kConst mode 1) so the invalid_argument throw stays as
// lazy as the interpreter's.
struct RawNumber {
  std::uint64_t bits = 0, xz = 0;
  int width = 32;
};

// The compiled design: immutable after compile(), shared by every
// CompiledSimulator that runs it.
struct Program {
  std::string top;
  std::vector<ProgSignal> signals;
  std::map<std::string, std::uint32_t> signal_slots;
  std::vector<std::string> inputs, outputs;  // port order preserved

  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<RawNumber> raw_numbers;  // kConst mode 1 pool
  std::vector<std::string> messages;   // kThrow texts
  std::vector<ProgProcess> processes;
  std::vector<std::uint32_t> initial_procs;  // kInitial processes, in order

  // Per signal slot: combinational/continuous processes reading it, and
  // clocked processes edge-sensitive to it (ascending process ids — the
  // interpreter's execution order).
  std::vector<std::vector<std::uint32_t>> comb_watchers;
  std::vector<std::vector<std::uint32_t>> edge_watchers;
  std::vector<std::uint32_t> edge_sigs;  // slots with >= 1 edge watcher

  std::uint32_t num_regs = 0;   // signals + scratch temporaries
  std::uint32_t num_loops = 0;  // loop-guard counter slots

  // Levelized combinational schedule (empty <=> event-driven fallback):
  // comb_order lists comb/cont processes in topological order; comb_rank
  // maps process id -> rank in that order (UINT32_MAX for non-comb).
  // levelize_failure names the rule that kept a design event-driven.
  bool levelized = false;
  const char* levelize_failure = nullptr;  // static text; null when levelized
  std::vector<std::uint32_t> comb_order;
  std::vector<std::uint32_t> comb_rank;

  std::uint32_t slot_of(const std::string& name) const;  // throws ElabError
};

// Executes a Program with the interpreter's stratified-event-queue
// semantics. The public surface mirrors sim::Simulator (string overloads
// included) plus the interned-slot fast path shared through SignalHandle.
class CompiledSimulator {
 public:
  // Runs `program` (non-null), which every simulator built from it shares;
  // `step_budget` = 0 means unlimited and also covers initial blocks + the
  // first settle inside this constructor.
  explicit CompiledSimulator(std::shared_ptr<const Program> program,
                             std::uint64_t step_budget = 0);
  // Compile-and-run convenience for tests and benches.
  explicit CompiledSimulator(const ElabDesign& design, std::uint64_t step_budget = 0);

  // Power-up X, then the initial blocks and their NBA commit, with nothing
  // settled: the state the constructors above settle from. It passes no
  // fault-injection site. converged() is false when an initial block tripped
  // a loop guard.
  static CompiledSimulator unsettled(std::shared_ptr<const Program> program);

  void set_step_budget(std::uint64_t max_steps) { step_budget_ = max_steps; }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t activations() const { return activations_; }
  bool converged() const { return converged_; }

  // Interned fast path.
  SignalHandle resolve(const std::string& name) const;  // throws ElabError
  void poke(SignalHandle h, std::uint64_t value);
  void poke_x(SignalHandle h);
  Value peek(SignalHandle h) const;

  // String convenience overloads (one map lookup per call, like the
  // interpreter's historical API).
  void poke(const std::string& input, std::uint64_t value);
  void poke_x(const std::string& input);
  Value peek(const std::string& signal) const;
  void clock_cycle(const std::string& clk = "clk");

 private:
  struct Unsettled {};
  CompiledSimulator(std::shared_ptr<const Program> program, Unsettled);
  void power_up();
  void init();
  void bump_steps();
  void run_initial_blocks();
  void mark_dirty(std::uint32_t slot);
  void update();
  bool settle_event_driven();  // false on delta-cap blowup (oscillation)
  void settle_levelized();
  void run_process(const ProgProcess& proc);
  void exec(std::uint32_t pc, std::uint32_t end);
  void write_signal(std::uint32_t slot, int hi, int lo, const Value& v);

  std::shared_ptr<const Program> program_;
  std::vector<Value> regs_;       // [0, nsignals) = signal state, then temps
  std::vector<Value> prev_edge_;  // last quiescent value of edge-watched slots
                                  // (indexed by slot; others stay power-up X)
  struct NbaEntry {
    std::uint32_t slot;
    int hi, lo;
    Value value;
  };
  std::vector<NbaEntry> nba_queue_;
  std::vector<NbaEntry> nba_scratch_;  // reused NBA commit buffer (no per-round alloc)
  std::vector<std::uint64_t> dirty_;    // signal bitmask
  std::vector<std::uint64_t> pending_;  // scratch: proc (or rank) bitmask
  std::vector<std::uint64_t> fired_;    // scratch: clocked proc bitmask
  std::vector<int> loop_counters_;
  bool any_dirty_ = false;
  bool converged_ = true;
  std::uint64_t activations_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t step_budget_ = 0;  // 0 = unlimited
};

}  // namespace haven::sim
