#include "sim/compile.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace haven::sim {

using verilog::CaseKind;
using verilog::Edge;
using verilog::ExprKind;
using verilog::ExprPtr;
using verilog::StmtKind;
using verilog::StmtPtr;

namespace {

// Levelized combinational chains deeper than this fall back to event-driven
// execution: the interpreter's delta cap (1000) could fire on very deep
// chains, and staying far below it keeps the convergence flag provably
// identical between backends. Real designs are nowhere near this.
constexpr int kMaxCombDepth = 64;

// Per-signal bit masks definitely/possibly written by a statement.
using WriteMap = std::map<std::uint32_t, std::uint64_t>;

bool is_known_unary(const std::string& op) {
  return op == "~" || op == "!" || op == "-" || op == "&" || op == "|" ||
         op == "^" || op == "~&" || op == "~|" || op == "~^" || op == "^~";
}

bool is_known_binary(const std::string& op) {
  static const std::set<std::string> kOps = {
      "&",  "|",  "^",  "~^", "^~", "~&", "~|", "+",  "-",   "*",  "/",
      "%",  "<<", "<<<", ">>", ">>>", "==", "!=", "===", "!==", "<",
      "<=", ">",  ">=", "&&", "||", "**"};
  return kOps.contains(op);
}

class Compiler {
 public:
  explicit Compiler(const ElabDesign& design) : design_(design) {}

  Program run() {
    prog_.top = design_.top;
    const std::size_t nsig = design_.signals.size();
    nsig_ = static_cast<std::uint32_t>(nsig);
    max_regs_ = nsig_;
    prog_.signals.reserve(nsig);
    for (const auto& sig : design_.signals) {
      prog_.signals.push_back({sig.name, sig.width, sig.is_input, sig.is_output});
    }
    for (const auto& [name, id] : design_.signal_ids) {
      prog_.signal_slots[name] = static_cast<std::uint32_t>(id);
    }
    prog_.inputs = design_.inputs;
    prog_.outputs = design_.outputs;

    for (std::size_t pi = 0; pi < design_.processes.size(); ++pi) {
      const ElabProcess& p = design_.processes[pi];
      ProgProcess pp;
      pp.kind = p.kind;
      if (p.kind == ProcessKind::kClocked) {
        for (const auto& e : p.edges) {
          const auto sl = slot(e.signal);
          if (!sl) throw ElabError("edge on unknown signal '" + e.signal + "'");
          pp.edges.emplace_back(*sl, e.edge);
        }
      }
      next_temp_ = nsig_;
      pp.begin = here();
      if (p.kind == ProcessKind::kContAssign) {
        const std::uint32_t rv = compile_expr(p.rhs);
        compile_store(p.lhs, rv, /*nonblocking=*/false);
      } else if (p.body) {
        compile_stmt(p.body);
      }
      pp.end = here();
      prog_.processes.push_back(std::move(pp));
      if (p.kind == ProcessKind::kInitial) {
        prog_.initial_procs.push_back(static_cast<std::uint32_t>(pi));
      }
    }
    prog_.num_regs = max_regs_;

    build_watchers();
    levelize();
    return std::move(prog_);
  }

 private:
  // --- emission helpers ------------------------------------------------------

  std::uint32_t here() const { return static_cast<std::uint32_t>(prog_.code.size()); }

  std::uint32_t emit(Op op, std::uint8_t mode = 0, std::uint32_t dst = 0,
                     std::uint32_t a = 0, std::uint32_t b = 0, std::uint32_t c = 0) {
    prog_.code.push_back({op, mode, dst, a, b, c});
    return here() - 1;
  }

  void patch(std::uint32_t at) { prog_.code[at].dst = here(); }

  std::uint32_t temp() {
    const std::uint32_t t = next_temp_++;
    max_regs_ = std::max(max_regs_, next_temp_);
    return t;
  }

  std::uint32_t const_id(const Value& v) {
    const auto key = std::make_tuple(v.bits(), v.xz(), v.width());
    const auto it = const_pool_.find(key);
    if (it != const_pool_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(prog_.consts.size());
    prog_.consts.push_back(v);
    const_pool_[key] = id;
    return id;
  }

  // Emit a lazy fault at this execution point; returns a scratch register so
  // expression lowering can keep a (dead) operand to hand upward.
  std::uint32_t throw_op(const std::string& msg) {
    const auto it = msg_pool_.find(msg);
    std::uint32_t id;
    if (it != msg_pool_.end()) {
      id = it->second;
    } else {
      id = static_cast<std::uint32_t>(prog_.messages.size());
      prog_.messages.push_back(msg);
      msg_pool_[msg] = id;
    }
    emit(Op::kThrow, 0, 0, id);
    return temp();
  }

  std::optional<std::uint32_t> slot(const std::string& name) const {
    const auto it = design_.signal_ids.find(name);
    if (it == design_.signal_ids.end()) return std::nullopt;
    return static_cast<std::uint32_t>(it->second);
  }

  // --- static analysis -------------------------------------------------------

  // Width of an expression when statically determined; nullopt when dynamic
  // (e.g. a ternary with different branch widths) or faulting.
  std::optional<int> static_width(const ExprPtr& e) const {
    switch (e->kind) {
      case ExprKind::kNumber:
        if (e->number.width < 1 || e->number.width > 64) return std::nullopt;
        return e->number.width;
      case ExprKind::kIdent: {
        const auto sl = slot(e->ident);
        if (!sl) return std::nullopt;
        return design_.signals[*sl].width;
      }
      case ExprKind::kUnary: {
        const std::string& op = e->op;
        if (op == "~" || op == "-") return static_width(e->operands[0]);
        if (is_known_unary(op)) return 1;
        return std::nullopt;
      }
      case ExprKind::kBinary: {
        const std::string& op = e->op;
        if (op == "&" || op == "|" || op == "^" || op == "~^" || op == "^~" ||
            op == "~&" || op == "~|" || op == "+" || op == "-" || op == "*" ||
            op == "/" || op == "%") {
          const auto a = static_width(e->operands[0]);
          const auto b = static_width(e->operands[1]);
          if (!a || !b) return std::nullopt;
          return std::max(*a, *b);
        }
        if (op == "<<" || op == "<<<" || op == ">>" || op == ">>>" || op == "**") {
          return static_width(e->operands[0]);
        }
        if (is_known_binary(op)) return 1;  // comparisons and logicals
        return std::nullopt;
      }
      case ExprKind::kTernary: {
        const auto t = static_width(e->operands[1]);
        const auto f = static_width(e->operands[2]);
        if (t && f && *t == *f) return *t;
        return std::nullopt;
      }
      case ExprKind::kConcat: {
        int total = 0;
        for (const auto& c : e->operands) {
          const auto w = static_width(c);
          if (!w) return std::nullopt;
          total += *w;
        }
        return total;
      }
      case ExprKind::kReplicate: {
        if (e->repeat > 64) return std::nullopt;
        const auto w = static_width(e->operands[0]);
        if (!w) return std::nullopt;
        return static_cast<int>(e->repeat) * *w;
      }
      case ExprKind::kBitSelect:
        return 1;
      case ExprKind::kPartSelect:
        return std::abs(e->msb - e->lsb) + 1;
    }
    return std::nullopt;
  }

  // Whether evaluating this expression can throw (lazy ElabError on
  // undeclared identifiers / unsupported operators, invalid_argument on
  // out-of-range widths). Conservative: unknown-width concats count.
  bool can_throw(const ExprPtr& e) const {
    switch (e->kind) {
      case ExprKind::kNumber:
        return e->number.width < 1 || e->number.width > 64;
      case ExprKind::kIdent:
        return !slot(e->ident);
      case ExprKind::kBitSelect:
        return !slot(e->ident) || can_throw(e->operands[0]);
      case ExprKind::kPartSelect:
        return !slot(e->ident) || std::abs(e->msb - e->lsb) + 1 > 64;
      case ExprKind::kUnary:
        return !is_known_unary(e->op) || can_throw(e->operands[0]);
      case ExprKind::kBinary:
        return !is_known_binary(e->op) || can_throw(e->operands[0]) ||
               can_throw(e->operands[1]);
      case ExprKind::kTernary:
        return can_throw(e->operands[0]) || can_throw(e->operands[1]) ||
               can_throw(e->operands[2]);
      case ExprKind::kConcat: {
        for (const auto& c : e->operands) {
          if (can_throw(c)) return true;
        }
        const auto w = static_width(e);
        return !w || *w > 64;
      }
      case ExprKind::kReplicate: {
        if (can_throw(e->operands[0])) return true;
        if (e->repeat > 64) return true;
        const auto w = static_width(e->operands[0]);
        return !w || static_cast<std::uint64_t>(e->repeat) * *w > 64;
      }
    }
    return true;
  }

  // --- expression lowering ---------------------------------------------------

  // Returns the register holding the value: a signal slot for plain
  // identifier reads, a fresh scratch register otherwise.
  std::uint32_t compile_expr(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kNumber: {
        const auto& n = e->number;
        const std::uint32_t t = temp();
        if (n.width >= 1 && n.width <= 64) {
          emit(Op::kConst, 0, t, const_id(Value::with_xz(n.value, n.xz_mask, n.width)));
        } else {
          const auto id = static_cast<std::uint32_t>(prog_.raw_numbers.size());
          prog_.raw_numbers.push_back({n.value, n.xz_mask, n.width});
          emit(Op::kConst, 1, t, id);
        }
        return t;
      }
      case ExprKind::kIdent: {
        const auto sl = slot(e->ident);
        if (!sl) return throw_op("evaluation of undeclared identifier '" + e->ident + "'");
        return *sl;
      }
      case ExprKind::kBitSelect: {
        const auto base = slot(e->ident);
        if (!base) return throw_op("evaluation of undeclared identifier '" + e->ident + "'");
        const std::uint32_t ri = compile_expr(e->operands[0]);
        const std::uint32_t t = temp();
        emit(Op::kBitDyn, 0, t, *base, ri);
        return t;
      }
      case ExprKind::kPartSelect: {
        const auto base = slot(e->ident);
        if (!base) return throw_op("evaluation of undeclared identifier '" + e->ident + "'");
        const int hi = std::max(e->msb, e->lsb);
        const int lo = std::min(e->msb, e->lsb);
        const int w = hi - lo + 1;
        const std::uint32_t t = temp();
        if (lo >= design_.signals[*base].width) {
          emit(Op::kSlice, 1, t, 0, 0, static_cast<std::uint32_t>(w));
        } else {
          emit(Op::kSlice, 0, t, *base, static_cast<std::uint32_t>(lo),
               static_cast<std::uint32_t>(w));
        }
        return t;
      }
      case ExprKind::kUnary: {
        const std::uint32_t a = compile_expr(e->operands[0]);
        const std::string& op = e->op;
        const auto un = [&](Op o) {
          const std::uint32_t t = temp();
          emit(o, 0, t, a);
          return t;
        };
        const auto un_not = [&](Op o) {
          const std::uint32_t r1 = un(o);
          const std::uint32_t t = temp();
          emit(Op::kNot, 0, t, r1);
          return t;
        };
        if (op == "~") return un(Op::kNot);
        if (op == "!") return un(Op::kLogNot);
        if (op == "-") return un(Op::kNeg);
        if (op == "&") return un(Op::kRedAnd);
        if (op == "|") return un(Op::kRedOr);
        if (op == "^") return un(Op::kRedXor);
        if (op == "~&") return un_not(Op::kRedAnd);
        if (op == "~|") return un_not(Op::kRedOr);
        if (op == "~^" || op == "^~") return un_not(Op::kRedXor);
        return throw_op("unsupported unary operator '" + op + "'");
      }
      case ExprKind::kBinary: {
        const std::uint32_t a = compile_expr(e->operands[0]);
        const std::uint32_t b = compile_expr(e->operands[1]);
        const std::string& op = e->op;
        const auto bin = [&](Op o) {
          const std::uint32_t t = temp();
          emit(o, 0, t, a, b);
          return t;
        };
        const auto bin_not = [&](Op o) {
          const std::uint32_t r1 = bin(o);
          const std::uint32_t t = temp();
          emit(Op::kNot, 0, t, r1);
          return t;
        };
        if (op == "&") return bin(Op::kAnd);
        if (op == "|") return bin(Op::kOr);
        if (op == "^") return bin(Op::kXor);
        if (op == "~^" || op == "^~") return bin_not(Op::kXor);
        if (op == "~&") return bin_not(Op::kAnd);
        if (op == "~|") return bin_not(Op::kOr);
        if (op == "+") return bin(Op::kAdd);
        if (op == "-") return bin(Op::kSub);
        if (op == "*") return bin(Op::kMul);
        if (op == "/") return bin(Op::kDiv);
        if (op == "%") return bin(Op::kMod);
        if (op == "<<" || op == "<<<") return bin(Op::kShl);
        if (op == ">>" || op == ">>>") return bin(Op::kShr);
        if (op == "==") return bin(Op::kEq);
        if (op == "!=") return bin(Op::kNeq);
        if (op == "===") return bin(Op::kCaseEq);
        if (op == "!==") {
          const std::uint32_t r1 = bin(Op::kCaseEq);
          const std::uint32_t t = temp();
          emit(Op::kLogNot, 0, t, r1);
          return t;
        }
        if (op == "<") return bin(Op::kLt);
        if (op == "<=") return bin(Op::kLe);
        if (op == ">") return bin(Op::kGt);
        if (op == ">=") return bin(Op::kGe);
        if (op == "&&") return bin(Op::kLogAnd);
        if (op == "||") return bin(Op::kLogOr);
        if (op == "**") return bin(Op::kPow);
        return throw_op("unsupported binary operator '" + op + "'");
      }
      case ExprKind::kTernary: {
        const std::uint32_t rc = compile_expr(e->operands[0]);
        if (!can_throw(e->operands[1]) && !can_throw(e->operands[2])) {
          // Both branches are pure: evaluate strictly, select branch-free.
          const std::uint32_t rt = compile_expr(e->operands[1]);
          const std::uint32_t rf = compile_expr(e->operands[2]);
          const std::uint32_t t = temp();
          emit(Op::kSelect, 0, t, rc, rt, rf);
          return t;
        }
        // A branch may fault: evaluate exactly what the interpreter would.
        const std::uint32_t t = temp();
        const std::uint32_t j_then = emit(Op::kJumpIfTrue, 0, 0, rc);
        const std::uint32_t j_else = emit(Op::kJumpIfDefined, 0, 0, rc);
        {  // undefined condition: both branches, X-merged
          const std::uint32_t rt = compile_expr(e->operands[1]);
          const std::uint32_t rf = compile_expr(e->operands[2]);
          emit(Op::kMergeX, 0, t, rt, rf);
        }
        const std::uint32_t j_end1 = emit(Op::kJump);
        patch(j_then);
        {
          const std::uint32_t rt = compile_expr(e->operands[1]);
          emit(Op::kMove, 0, t, rt);
        }
        const std::uint32_t j_end2 = emit(Op::kJump);
        patch(j_else);
        {
          const std::uint32_t rf = compile_expr(e->operands[2]);
          emit(Op::kMove, 0, t, rf);
        }
        patch(j_end1);
        patch(j_end2);
        return t;
      }
      case ExprKind::kConcat: {
        std::uint32_t acc = compile_expr(e->operands[0]);
        for (std::size_t i = 1; i < e->operands.size(); ++i) {
          const std::uint32_t b = compile_expr(e->operands[i]);
          const std::uint32_t t = temp();
          emit(Op::kConcat, 0, t, acc, b);
          acc = t;
        }
        return acc;
      }
      case ExprKind::kReplicate: {
        const std::uint32_t inner = compile_expr(e->operands[0]);
        if (e->repeat > 64) return throw_op("replication wider than 64 bits");
        const std::uint32_t t = temp();
        emit(Op::kReplicate, 0, t, inner, static_cast<std::uint32_t>(e->repeat));
        return t;
      }
    }
    return throw_op("corrupt expression node");
  }

  // --- statement lowering ----------------------------------------------------

  void compile_stmt(const StmtPtr& s) {
    if (!s) return;
    emit(Op::kStep);  // the interpreter bumps once per executed statement
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const auto& c : s->stmts) compile_stmt(c);
        return;
      case StmtKind::kBlockingAssign: {
        const std::uint32_t rv = compile_expr(s->rhs);
        compile_store(s->lhs, rv, /*nonblocking=*/false);
        return;
      }
      case StmtKind::kNonblockingAssign: {
        const std::uint32_t rv = compile_expr(s->rhs);
        compile_store(s->lhs, rv, /*nonblocking=*/true);
        return;
      }
      case StmtKind::kIf: {
        const std::uint32_t rc = compile_expr(s->cond);
        const std::uint32_t j_false = emit(Op::kJumpIfFalse, 0, 0, rc);
        compile_stmt(s->then_branch);
        if (s->else_branch) {
          const std::uint32_t j_end = emit(Op::kJump);
          patch(j_false);
          compile_stmt(s->else_branch);
          patch(j_end);
        } else {
          patch(j_false);
        }
        return;
      }
      case StmtKind::kCase: {
        const std::uint32_t rs = compile_expr(s->cond);
        // Label tests in item order (first match wins), then the default
        // body inline on fall-through, then the labelled bodies.
        const verilog::CaseItem* default_item = nullptr;
        std::vector<std::pair<const verilog::CaseItem*, std::vector<std::uint32_t>>> bodies;
        for (const auto& item : s->case_items) {
          if (item.labels.empty()) {
            default_item = &item;
            continue;
          }
          std::vector<std::uint32_t> jumps;
          for (const auto& label : item.labels) {
            const std::uint32_t rl = compile_expr(label);
            const std::uint32_t rm = temp();
            emit(Op::kCaseCmp, static_cast<std::uint8_t>(s->case_kind), rm, rs, rl);
            jumps.push_back(emit(Op::kJumpIfTrue, 0, 0, rm));
          }
          bodies.emplace_back(&item, std::move(jumps));
        }
        if (default_item) compile_stmt(default_item->body);
        std::vector<std::uint32_t> ends;
        ends.push_back(emit(Op::kJump));
        for (const auto& [item, jumps] : bodies) {
          for (const std::uint32_t j : jumps) patch(j);
          compile_stmt(item->body);
          ends.push_back(emit(Op::kJump));
        }
        for (const std::uint32_t j : ends) patch(j);
        return;
      }
      case StmtKind::kFor: {
        const std::uint32_t rv = compile_expr(s->rhs);
        compile_store(s->lhs, rv, /*nonblocking=*/false);
        const std::uint32_t counter = prog_.num_loops++;
        emit(Op::kLoopInit, 0, 0, counter);
        const std::uint32_t head = here();
        const std::uint32_t rc = compile_expr(s->cond);
        const std::uint32_t j_exit = emit(Op::kJumpIfFalse, 0, 0, rc);
        const std::uint32_t j_guard = emit(Op::kLoopGuard, 0, 0, counter);
        compile_stmt(s->body);
        const std::uint32_t rstep = compile_expr(s->step_rhs);
        compile_store(s->step_lhs, rstep, /*nonblocking=*/false);
        emit(Op::kJump, 0, head);
        patch(j_exit);
        patch(j_guard);
        return;
      }
    }
  }

  // Store the value in `rv` into an lvalue, preserving the interpreter's
  // fault points and evaluation order (widths before distribution, base
  // resolution before index evaluation).
  void compile_store(const ExprPtr& lhs, std::uint32_t rv, bool nonblocking) {
    if (lhs->kind == ExprKind::kConcat) {
      int total = 0;
      std::vector<int> widths;
      for (const auto& part : lhs->operands) {
        int w = 1;
        if (part->kind == ExprKind::kIdent) {
          const auto sl = slot(part->ident);
          if (!sl) {
            throw_op("unknown signal '" + part->ident + "'");
            return;
          }
          w = design_.signals[*sl].width;
        } else if (part->kind == ExprKind::kBitSelect) {
          w = 1;
        } else if (part->kind == ExprKind::kPartSelect) {
          w = std::abs(part->msb - part->lsb) + 1;
        } else {
          throw_op("unsupported concat lvalue part");
          return;
        }
        widths.push_back(w);
        total += w;
      }
      const std::uint32_t rvv = temp();
      emit(Op::kResize, 0, rvv, rv, static_cast<std::uint32_t>(total));
      int offset = total;
      for (std::size_t i = 0; i < lhs->operands.size(); ++i) {
        offset -= widths[i];
        const std::uint32_t rs = temp();
        emit(Op::kSlice, 0, rs, rvv, static_cast<std::uint32_t>(offset),
             static_cast<std::uint32_t>(widths[i]));
        store_simple(lhs->operands[i], rs, nonblocking);
      }
      return;
    }
    store_simple(lhs, rv, nonblocking);
  }

  void store_simple(const ExprPtr& lhs, std::uint32_t rv, bool nonblocking) {
    const auto sl = slot(lhs->ident);
    if (!sl) {
      throw_op("unknown signal '" + lhs->ident + "'");
      return;
    }
    if (lhs->kind == ExprKind::kIdent) {
      const int hi = design_.signals[*sl].width - 1;
      emit(nonblocking ? Op::kNbaSig : Op::kStoreSig, 0, *sl, rv,
           static_cast<std::uint32_t>(hi), 0);
    } else if (lhs->kind == ExprKind::kBitSelect) {
      const std::uint32_t ri = compile_expr(lhs->operands[0]);
      emit(nonblocking ? Op::kNbaBitDyn : Op::kStoreBitDyn, 0, *sl, rv, ri);
    } else if (lhs->kind == ExprKind::kPartSelect) {
      const int hi = std::max(lhs->msb, lhs->lsb);
      const int lo = std::min(lhs->msb, lhs->lsb);
      emit(nonblocking ? Op::kNbaSig : Op::kStoreSig, 0, *sl, rv,
           static_cast<std::uint32_t>(hi), static_cast<std::uint32_t>(lo));
    } else {
      throw_op("unsupported lvalue");
    }
  }

  // --- watcher tables --------------------------------------------------------

  void build_watchers() {
    prog_.comb_watchers.assign(nsig_, {});
    prog_.edge_watchers.assign(nsig_, {});
    for (std::size_t pi = 0; pi < design_.processes.size(); ++pi) {
      const ElabProcess& p = design_.processes[pi];
      if (p.kind == ProcessKind::kComb || p.kind == ProcessKind::kContAssign) {
        for (const auto& name : p.read_set) {
          const auto sl = slot(name);
          if (sl) prog_.comb_watchers[*sl].push_back(static_cast<std::uint32_t>(pi));
        }
      } else if (p.kind == ProcessKind::kClocked) {
        for (const auto& [eslot, edge] : prog_.processes[pi].edges) {
          (void)edge;
          prog_.edge_watchers[eslot].push_back(static_cast<std::uint32_t>(pi));
        }
      }
    }
    for (std::uint32_t s = 0; s < nsig_; ++s) {
      if (!prog_.edge_watchers[s].empty()) prog_.edge_sigs.push_back(s);
    }
  }

  // --- levelization ----------------------------------------------------------

  // Bits an lvalue writes: `must` on every execution, `may` on some. A
  // bit-select part writes one bit chosen at run time, and none at all on an
  // X or out-of-range index (kStoreBitDyn): a constant index writes exactly
  // its bit, a dynamic one may write any bit of its signal and must write
  // none. nullopt for undeclared bases and unsupported shapes.
  struct LvalueMask {
    WriteMap may, must;
    std::set<std::uint32_t> bit_selected;  // signals with a bit-select part
  };
  std::optional<LvalueMask> lvalue_mask(const ExprPtr& lhs) const {
    LvalueMask m;
    const auto add = [&](WriteMap& into, std::uint32_t sl, int hi, int lo) {
      if (lo >= 64 || lo < 0 || hi < lo) return;
      const int w = hi - lo + 1;
      const std::uint64_t field =
          (w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1)) << lo;
      const int sw = design_.signals[sl].width;
      const std::uint64_t sig_mask =
          sw >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << sw) - 1);
      if (field & sig_mask) into[sl] |= field & sig_mask;
    };
    const auto both = [&](std::uint32_t sl, int hi, int lo) {
      add(m.may, sl, hi, lo);
      add(m.must, sl, hi, lo);
    };
    const auto one = [&](const ExprPtr& part) -> bool {
      const auto sl = slot(part->ident);
      if (!sl) return false;
      switch (part->kind) {
        case ExprKind::kIdent:
          both(*sl, design_.signals[*sl].width - 1, 0);
          return true;
        case ExprKind::kPartSelect:
          both(*sl, std::max(part->msb, part->lsb), std::min(part->msb, part->lsb));
          return true;
        case ExprKind::kBitSelect: {
          m.bit_selected.insert(*sl);
          const ExprPtr& idx = part->operands[0];
          if (idx->kind == ExprKind::kNumber && idx->number.width >= 1 &&
              idx->number.width <= 64) {
            const Value i = Value::with_xz(idx->number.value, idx->number.xz_mask,
                                           idx->number.width);
            if (i.is_fully_defined() && i.bits() < 64) {
              both(*sl, static_cast<int>(i.bits()), static_cast<int>(i.bits()));
            }
            return true;
          }
          add(m.may, *sl, design_.signals[*sl].width - 1, 0);
          return true;
        }
        default:
          return false;
      }
    };
    if (lhs->kind == ExprKind::kConcat) {
      for (const auto& part : lhs->operands) {
        if (!one(part)) return std::nullopt;
      }
      return m;
    }
    if (!one(lhs)) return std::nullopt;
    return m;
  }

  struct MaskInfo {
    WriteMap may, must;
    std::set<std::uint32_t> bit_selected;  // signals written through a bit select
    const char* failure = nullptr;         // why the body cannot levelize
    static MaskInfo failed(const char* why) {
      MaskInfo m;
      m.failure = why;
      return m;
    }
  };

  // may = bits written on some path, must = bits written on every path. A
  // body is path-independent (safe to run once with final inputs) iff
  // may == must: the final execution then overwrites everything any earlier
  // partial-input execution could have written.
  MaskInfo stmt_masks(const StmtPtr& s) const {
    MaskInfo info;
    if (!s) return info;
    const auto merge_union = [](WriteMap& into, const WriteMap& from) {
      for (const auto& [sl, mask] : from) into[sl] |= mask;
    };
    const auto merge_intersect = [](const WriteMap& a, const WriteMap& b) {
      WriteMap out;
      for (const auto& [sl, mask] : a) {
        const auto it = b.find(sl);
        if (it != b.end() && (mask & it->second)) out[sl] = mask & it->second;
      }
      return out;
    };
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const auto& c : s->stmts) {
          MaskInfo ci = stmt_masks(c);
          if (ci.failure) return ci;
          merge_union(info.may, ci.may);
          merge_union(info.must, ci.must);
          info.bit_selected.merge(ci.bit_selected);
        }
        return info;
      case StmtKind::kBlockingAssign: {
        auto m = lvalue_mask(s->lhs);
        if (!m) return MaskInfo::failed("unsupported assignment target");
        info.may = std::move(m->may);
        info.must = std::move(m->must);
        info.bit_selected = std::move(m->bit_selected);
        return info;
      }
      case StmtKind::kNonblockingAssign:
        // NBAs queued during combinational settling commit whenever the next
        // edge fires — keep the event-driven schedule for those designs.
        return MaskInfo::failed("nonblocking assignment in a combinational process");
      case StmtKind::kIf: {
        MaskInfo a = stmt_masks(s->then_branch);
        if (a.failure) return a;
        MaskInfo b = stmt_masks(s->else_branch);
        if (b.failure) return b;
        info.may = a.may;
        merge_union(info.may, b.may);
        info.bit_selected = std::move(a.bit_selected);
        info.bit_selected.merge(b.bit_selected);
        info.must = merge_intersect(a.must, b.must);
        return info;
      }
      case StmtKind::kCase: {
        bool have_default = false;
        bool first = true;
        for (const auto& item : s->case_items) {
          if (item.labels.empty()) have_default = true;
          MaskInfo ci = stmt_masks(item.body);
          if (ci.failure) return ci;
          merge_union(info.may, ci.may);
          info.bit_selected.merge(ci.bit_selected);
          if (first) {
            info.must = ci.must;
            first = false;
          } else {
            info.must = merge_intersect(info.must, ci.must);
          }
        }
        // Without a default, a no-match execution writes nothing.
        if (!have_default) info.must.clear();
        return info;
      }
      case StmtKind::kFor:
        // A loop executed with skewed intermediate inputs could trip the
        // iteration guard (converged := false) where the final-input
        // execution would not; keep those event-driven.
        return MaskInfo::failed("for-loop in a combinational process");
    }
    return MaskInfo::failed("corrupt statement node");
  }

  // No expression anywhere in the body may fault: an intermediate-input
  // execution of the event-driven schedule could take a faulting branch the
  // final-input execution (the only one levelized mode runs) would not.
  bool body_throw_free(const StmtPtr& s) const {
    if (!s) return true;
    switch (s->kind) {
      case StmtKind::kBlock:
        return std::all_of(s->stmts.begin(), s->stmts.end(),
                           [&](const StmtPtr& c) { return body_throw_free(c); });
      case StmtKind::kBlockingAssign:
      case StmtKind::kNonblockingAssign:
        // An lvalue faults where it would as an expression: an undeclared
        // base, a faulting index, a field wider than 64 bits.
        return !can_throw(s->rhs) && !can_throw(s->lhs);
      case StmtKind::kIf:
        return !can_throw(s->cond) && body_throw_free(s->then_branch) &&
               body_throw_free(s->else_branch);
      case StmtKind::kCase: {
        if (can_throw(s->cond)) return false;
        for (const auto& item : s->case_items) {
          for (const auto& l : item.labels) {
            if (can_throw(l)) return false;
          }
          if (!body_throw_free(item.body)) return false;
        }
        return true;
      }
      case StmtKind::kFor:
        return false;  // excluded by stmt_masks anyway
    }
    return false;
  }

  // --- write-before-read self-reads ------------------------------------------

  // True iff every read in `e` of a signal in `targets` sees all of that
  // signal's target bits already must-written (`written`): the body's entry
  // value for the signal is dead at such a read.
  bool expr_reads_dominated(const ExprPtr& e, const WriteMap& targets,
                            const WriteMap& written) const {
    const auto covered = [&](const std::string& name) {
      const auto sl = slot(name);
      if (!sl) return true;  // undeclared reads are rejected by can_throw
      const auto t = targets.find(*sl);
      if (t == targets.end()) return true;  // not written by this body
      const auto w = written.find(*sl);
      return w != written.end() && (w->second & t->second) == t->second;
    };
    switch (e->kind) {
      case ExprKind::kIdent:
      case ExprKind::kBitSelect:
      case ExprKind::kPartSelect:
        if (!covered(e->ident)) return false;
        break;
      default:
        break;
    }
    for (const auto& c : e->operands) {
      if (!expr_reads_dominated(c, targets, written)) return false;
    }
    return true;
  }

  // Walks a body in execution order tracking the bits must-written so far;
  // false as soon as a read of a self-written signal can precede its write.
  bool stmt_reads_dominated(const StmtPtr& s, const WriteMap& targets,
                            WriteMap& written) const {
    if (!s) return true;
    const auto intersect = [](const WriteMap& a, const WriteMap& b) {
      WriteMap out;
      for (const auto& [sl, mask] : a) {
        const auto it = b.find(sl);
        if (it != b.end() && (mask & it->second)) out[sl] = mask & it->second;
      }
      return out;
    };
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const auto& c : s->stmts) {
          if (!stmt_reads_dominated(c, targets, written)) return false;
        }
        return true;
      case StmtKind::kBlockingAssign: {
        if (!expr_reads_dominated(s->rhs, targets, written)) return false;
        // The store reads its bit-select indices after the right-hand side.
        const auto index_dominated = [&](const ExprPtr& part) {
          return part->kind != ExprKind::kBitSelect ||
                 expr_reads_dominated(part->operands[0], targets, written);
        };
        const bool concat = s->lhs->kind == ExprKind::kConcat;
        if (concat ? !std::all_of(s->lhs->operands.begin(), s->lhs->operands.end(),
                                  index_dominated)
                   : !index_dominated(s->lhs)) {
          return false;
        }
        const auto m = lvalue_mask(s->lhs);
        if (!m) return false;  // rejected by stmt_masks before this runs
        for (const auto& [sl, mask] : m->must) written[sl] |= mask;
        return true;
      }
      case StmtKind::kIf: {
        if (!expr_reads_dominated(s->cond, targets, written)) return false;
        WriteMap then_written = written;
        WriteMap else_written = written;
        if (!stmt_reads_dominated(s->then_branch, targets, then_written)) return false;
        if (!stmt_reads_dominated(s->else_branch, targets, else_written)) return false;
        written = intersect(then_written, else_written);
        return true;
      }
      case StmtKind::kCase: {
        if (!expr_reads_dominated(s->cond, targets, written)) return false;
        // Labels are evaluated before any body runs; check them all against
        // the entry state.
        for (const auto& item : s->case_items) {
          for (const auto& l : item.labels) {
            if (!expr_reads_dominated(l, targets, written)) return false;
          }
        }
        bool have_default = false;
        WriteMap out;
        bool first = true;
        for (const auto& item : s->case_items) {
          if (item.labels.empty()) have_default = true;
          WriteMap body_written = written;
          if (!stmt_reads_dominated(item.body, targets, body_written)) return false;
          if (first) {
            out = std::move(body_written);
            first = false;
          } else {
            out = intersect(out, body_written);
          }
        }
        if (!have_default || first) out = first ? written : intersect(out, written);
        written = std::move(out);
        return true;
      }
      case StmtKind::kNonblockingAssign:
      case StmtKind::kFor:
        return false;  // excluded by stmt_masks before this runs
    }
    return false;
  }

  void levelize() {
    std::vector<std::uint32_t> comb;
    for (std::size_t pi = 0; pi < design_.processes.size(); ++pi) {
      const ProcessKind k = design_.processes[pi].kind;
      if (k == ProcessKind::kComb || k == ProcessKind::kContAssign) {
        comb.push_back(static_cast<std::uint32_t>(pi));
      }
    }
    prog_.comb_rank.assign(design_.processes.size(), UINT32_MAX);
    if (comb.empty()) {
      prog_.levelized = true;  // nothing combinational to schedule
      return;
    }

    const auto fail = [this](const char* why) { prog_.levelize_failure = why; };
    const std::size_t n = comb.size();
    std::vector<WriteMap> writes(n);
    for (std::size_t k = 0; k < n; ++k) {
      const ElabProcess& p = design_.processes[comb[k]];
      WriteMap wm;
      if (p.kind == ProcessKind::kContAssign) {
        if (can_throw(p.rhs)) return fail("combinational process may fault");
        auto m = lvalue_mask(p.lhs);
        if (!m || !m->bit_selected.empty()) {
          return fail("unsupported continuous-assignment target");
        }
        wm = std::move(m->must);
      } else {
        MaskInfo info = stmt_masks(p.body);
        if (info.failure) return fail(info.failure);
        if (info.may != info.must) {
          return fail("signal latches: assigned on some but not all paths");
        }
        if (!body_throw_free(p.body)) return fail("combinational process may fault");
        // A dynamic bit write follows a default write of its signal, so the
        // body writes some bits twice per run. The interpreter re-triggers a
        // body on its own writes, so one that also reads such a signal can
        // oscillate there: keep it event-driven.
        for (const std::uint32_t sl : info.bit_selected) {
          if (p.read_set.contains(design_.signals[sl].name)) {
            return fail("reads a signal it writes through a bit select");
          }
        }
        // The sensitivity list must cover every read, otherwise the
        // event-driven schedule deliberately *keeps* stale values that a
        // dependency-ordered schedule would refresh.
        for (const auto& name : statement_read_set(p.body)) {
          if (!p.read_set.contains(name)) return fail("incomplete sensitivity list");
        }
        wm = std::move(info.may);
      }
      // Self reads are allowed only in write-before-read position: every read
      // of a signal the body writes must be preceded, on every path, by
      // must-writes covering all the bits the body ever writes to it. The
      // entry value is then dead, so one final-input execution computes the
      // event-driven fixpoint (the FSM `next`-then-output idiom). Anything
      // that can see its previous iteration's value — a continuous assign
      // reading its lvalue, a latch, an oscillator — keeps the delta loop.
      bool self_read = false;
      for (const auto& [sl, mask] : wm) {
        (void)mask;
        if (p.read_set.contains(design_.signals[sl].name)) {
          self_read = true;
          break;
        }
      }
      if (self_read) {
        if (p.kind != ProcessKind::kComb) return fail("continuous assignment reads its own target");
        WriteMap written;
        if (!stmt_reads_dominated(p.body, wm, written)) {
          return fail("reads its own target before assigning it");
        }
      }
      writes[k] = std::move(wm);
    }

    // Every driven bit needs exactly one combinational writer, or the
    // last-writer-wins order of the delta loop becomes observable.
    std::map<std::uint32_t, std::uint64_t> driven;
    std::map<std::uint32_t, std::vector<std::uint32_t>> writers_of;
    for (std::size_t k = 0; k < n; ++k) {
      for (const auto& [sl, mask] : writes[k]) {
        if (driven[sl] & mask) return fail("signal has multiple combinational drivers");
        driven[sl] |= mask;
        writers_of[sl].push_back(static_cast<std::uint32_t>(k));
      }
    }

    // Dependency graph: writer -> reader, topologically sorted (ascending
    // process id among ready nodes for determinism), depth-capped.
    std::vector<std::vector<std::uint32_t>> adj(n);
    std::vector<std::uint32_t> indeg(n, 0);
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::size_t k2 = 0; k2 < n; ++k2) {
      for (const auto& name : design_.processes[comb[k2]].read_set) {
        const auto sl = slot(name);
        if (!sl) continue;
        const auto it = writers_of.find(*sl);
        if (it == writers_of.end()) continue;
        for (const std::uint32_t k1 : it->second) {
          if (k1 == k2) continue;  // write-before-read self-reads carry no edge
          if (seen.emplace(k1, static_cast<std::uint32_t>(k2)).second) {
            adj[k1].push_back(static_cast<std::uint32_t>(k2));
            ++indeg[k2];
          }
        }
      }
    }
    std::set<std::uint32_t> ready;
    for (std::uint32_t k = 0; k < n; ++k) {
      if (indeg[k] == 0) ready.insert(k);
    }
    std::vector<std::uint32_t> order;
    std::vector<int> depth(n, 1);
    while (!ready.empty()) {
      const std::uint32_t k = *ready.begin();
      ready.erase(ready.begin());
      order.push_back(comb[k]);
      for (const std::uint32_t k2 : adj[k]) {
        depth[k2] = std::max(depth[k2], depth[k] + 1);
        if (--indeg[k2] == 0) ready.insert(k2);
      }
    }
    if (order.size() != n) return fail("combinational dependency cycle");
    if (*std::max_element(depth.begin(), depth.end()) > kMaxCombDepth) {
      return fail("combinational chain deeper than the levelizer's cap");
    }

    prog_.levelized = true;
    prog_.comb_order = std::move(order);
    for (std::uint32_t rank = 0; rank < prog_.comb_order.size(); ++rank) {
      prog_.comb_rank[prog_.comb_order[rank]] = rank;
    }
  }

  const ElabDesign& design_;
  Program prog_;
  std::uint32_t nsig_ = 0;
  std::uint32_t next_temp_ = 0;
  std::uint32_t max_regs_ = 0;
  std::map<std::tuple<std::uint64_t, std::uint64_t, int>, std::uint32_t> const_pool_;
  std::map<std::string, std::uint32_t> msg_pool_;
};

}  // namespace

Program compile(const ElabDesign& design) { return Compiler(design).run(); }

CompiledModule compile_module(const verilog::Module& module, const verilog::SourceFile* file) {
  CompiledModule m;
  m.module = &module;
  m.file = file;
  auto stage = CompiledModule::Stage::kElaborate;
  try {
    const ElabDesign design = elaborate(module, file);
    stage = CompiledModule::Stage::kCompile;
    m.program = std::make_shared<const Program>(compile(design));
  } catch (const ElabError& e) {
    m.failed = stage;
    m.error = e.what();
  }
  return m;
}

}  // namespace haven::sim
