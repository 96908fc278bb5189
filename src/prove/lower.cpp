// Dual-rail symbolic execution of the levelized sim::Program (lower.h,
// DESIGN.md §12). Each handler in exec() applies the symbolic twin of the
// v_* kernel CompiledSimulator::exec calls for the same Op, so agreement
// with the simulator is argued one opcode at a time. The cardinal rule: when
// the settled state cannot be reproduced bit-identically as a pure function
// of the swept inputs, throw UnsupportedError — never approximate.
#include "prove/lower.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/program.h"
#include "sim/value.h"

namespace haven::prove {
namespace {

using sim::Instr;
using sim::Op;
using sim::ProcessKind;
using sim::Program;
using sim::Value;
using verilog::CaseKind;

[[noreturn]] void unsupported(const std::string& reason) { throw UnsupportedError(reason); }

int checked_width(int w) {
  if (w < 1 || w > 64) unsupported("vector width outside 1..64");
  return w;
}

class Lowerer {
 public:
  explicit Lowerer(Aig* aig) : aig_(aig), budget_(aig->budget()) {}

  std::vector<Word> run(const Program& prog,
                        const std::map<std::string, std::vector<Lit>>& input_vars);

 private:
  // --- word helpers ---------------------------------------------------------
  Lit land(Lit a, Lit b) { return aig_->land(a, b); }
  Lit lor(Lit a, Lit b) { return aig_->lor(a, b); }
  Lit lxor(Lit a, Lit b) { return aig_->lxor(a, b); }
  Lit lmux(Lit s, Lit t, Lit f) { return aig_->lmux(s, t, f); }

  static Word all_x(int w) { return Word(checked_width(w)); }

  Word from_value(const Value& v) const {
    Word w(v.width());
    for (int i = 0; i < v.width(); ++i) {
      if ((v.xz() >> i) & 1)
        w.bits[static_cast<std::size_t>(i)] = Bit{kFalse, kTrue};
      else
        w.bits[static_cast<std::size_t>(i)] = Bit{((v.bits() >> i) & 1) ? kTrue : kFalse, kFalse};
    }
    return w;
  }

  static bool word_const(const Word& w, Value* out) {
    std::uint64_t bits = 0, xz = 0;
    for (int i = 0; i < w.width(); ++i) {
      const Bit& b = w.bits[static_cast<std::size_t>(i)];
      if ((b.v != kFalse && b.v != kTrue) || (b.x != kFalse && b.x != kTrue)) return false;
      if (b.v == kTrue) bits |= std::uint64_t{1} << i;
      if (b.x == kTrue) xz |= std::uint64_t{1} << i;
    }
    *out = Value::with_xz(bits, xz, w.width());
    return true;
  }

  // Zero-extend or truncate, mirroring Value::resized.
  static Word resized(const Word& w, int nw) {
    checked_width(nw);
    Word out(nw);
    for (int i = 0; i < nw; ++i)
      out.bits[static_cast<std::size_t>(i)] =
          i < w.width() ? w.bits[static_cast<std::size_t>(i)] : Bit{kFalse, kFalse};
    return out;
  }

  Lit any_x(const Word& w) {
    Lit a = kFalse;
    for (const Bit& b : w.bits) a = lor(a, b.x);
    return a;
  }
  Lit any_v(const Word& w) {
    Lit a = kFalse;
    for (const Bit& b : w.bits) a = lor(a, b.v);
    return a;
  }
  // Value::truthy(): fully defined and nonzero.
  Lit truthy_lit(const Word& w) { return land(any_v(w), lit_not(any_x(w))); }

  std::vector<Lit> vplane(const Word& w, int nw) {
    std::vector<Lit> out(static_cast<std::size_t>(nw), kFalse);
    for (int i = 0; i < nw && i < w.width(); ++i)
      out[static_cast<std::size_t>(i)] = w.bits[static_cast<std::size_t>(i)].v;
    return out;
  }

  // All-or-nothing X gate used by arithmetic: any unknown input bit makes the
  // whole result X (v_add/v_sub/v_mul/v_neg).
  Word guard(Lit ax, const std::vector<Lit>& vbits) {
    Word out(static_cast<int>(vbits.size()));
    const Lit def = lit_not(ax);
    for (std::size_t i = 0; i < vbits.size(); ++i) out.bits[i] = Bit{land(def, vbits[i]), ax};
    return out;
  }
  Word guard1(Lit ax, Lit v) { return guard(ax, {v}); }

  std::vector<Lit> ripple_add(const std::vector<Lit>& a, const std::vector<Lit>& b, Lit cin) {
    std::vector<Lit> s(a.size(), kFalse);
    Lit c = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const Lit axb = lxor(a[i], b[i]);
      s[i] = lxor(axb, c);
      c = lor(land(a[i], b[i]), land(c, axb));
    }
    return s;
  }

  // Value-plane equality of `idx` with constant k. Only meaningful in
  // contexts guarded by "idx fully defined".
  Lit eq_const(const Word& idx, std::uint64_t k) {
    const int w = idx.width();
    if (w < 64 && (k >> w) != 0) return kFalse;
    Lit acc = kTrue;
    for (int i = 0; i < w; ++i) {
      const Lit bit = idx.bits[static_cast<std::size_t>(i)].v;
      acc = land(acc, ((k >> i) & 1) ? bit : lit_not(bit));
    }
    return acc;
  }

  // --- operator kernels (symbolic mirrors of the v_* functions) -------------
  Word w_and(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Word out(w);
    for (int i = 0; i < w; ++i) {
      const Bit &ab = a.bits[static_cast<std::size_t>(i)], &bb = b.bits[static_cast<std::size_t>(i)];
      const Lit zero = lor(land(lit_not(ab.v), lit_not(ab.x)), land(lit_not(bb.v), lit_not(bb.x)));
      const Lit one = land(ab.v, bb.v);
      out.bits[static_cast<std::size_t>(i)] = Bit{one, lit_not(lor(zero, one))};
    }
    return out;
  }

  Word w_or(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Word out(w);
    for (int i = 0; i < w; ++i) {
      const Bit &ab = a.bits[static_cast<std::size_t>(i)], &bb = b.bits[static_cast<std::size_t>(i)];
      const Lit one = lor(ab.v, bb.v);
      const Lit zero = land(land(lit_not(ab.v), lit_not(ab.x)), land(lit_not(bb.v), lit_not(bb.x)));
      out.bits[static_cast<std::size_t>(i)] = Bit{one, lit_not(lor(zero, one))};
    }
    return out;
  }

  Word w_xor(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Word out(w);
    for (int i = 0; i < w; ++i) {
      const Bit &ab = a.bits[static_cast<std::size_t>(i)], &bb = b.bits[static_cast<std::size_t>(i)];
      const Lit x = lor(ab.x, bb.x);
      out.bits[static_cast<std::size_t>(i)] = Bit{land(lxor(ab.v, bb.v), lit_not(x)), x};
    }
    return out;
  }

  Word w_not(const Word& a) {
    Word out(a.width());
    for (int i = 0; i < a.width(); ++i) {
      const Bit& ab = a.bits[static_cast<std::size_t>(i)];
      out.bits[static_cast<std::size_t>(i)] = Bit{land(lit_not(ab.v), lit_not(ab.x)), ab.x};
    }
    return out;
  }

  Word w_add(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    return guard(ax, ripple_add(vplane(a, w), vplane(b, w), kFalse));
  }

  Word w_sub(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    std::vector<Lit> nb = vplane(b, w);
    for (Lit& l : nb) l = lit_not(l);
    return guard(ax, ripple_add(vplane(a, w), nb, kTrue));
  }

  Word w_mul(const Word& a, const Word& b) {
    const int w = std::max(a.width(), b.width());
    const Lit ax = lor(any_x(a), any_x(b));
    const std::vector<Lit> va = vplane(a, w), vb = vplane(b, w);
    std::vector<Lit> acc(static_cast<std::size_t>(w), kFalse);
    for (int i = 0; i < w; ++i) {
      if (vb[static_cast<std::size_t>(i)] == kFalse) continue;
      std::vector<Lit> row(static_cast<std::size_t>(w), kFalse);
      for (int j = i; j < w; ++j)
        row[static_cast<std::size_t>(j)] =
            land(vb[static_cast<std::size_t>(i)], va[static_cast<std::size_t>(j - i)]);
      acc = ripple_add(acc, row, kFalse);
    }
    return guard(ax, acc);
  }

  Word w_neg(const Word& a) {
    const int w = a.width();
    std::vector<Lit> na = vplane(a, w);
    for (Lit& l : na) l = lit_not(l);
    return guard(any_x(a), ripple_add(na, std::vector<Lit>(static_cast<std::size_t>(w), kFalse), kTrue));
  }

  Word w_shift(const Word& a, const Word& b, bool left) {
    const int w = a.width();
    const Lit bx = any_x(b);
    if (bx == kTrue) return all_x(w);
    std::vector<Lit> rv(static_cast<std::size_t>(w), kFalse), rx(static_cast<std::size_t>(w), kFalse);
    for (int k = 0; k < w; ++k) {
      const Lit eq = eq_const(b, static_cast<std::uint64_t>(k));
      if (eq == kFalse) continue;
      for (int j = 0; j < w; ++j) {
        const int src = left ? j - k : j + k;
        if (src < 0 || src >= w) continue;
        const Bit& sb = a.bits[static_cast<std::size_t>(src)];
        rv[static_cast<std::size_t>(j)] = lor(rv[static_cast<std::size_t>(j)], land(eq, sb.v));
        rx[static_cast<std::size_t>(j)] = lor(rx[static_cast<std::size_t>(j)], land(eq, sb.x));
      }
    }
    // Shift counts >= w (including >= 64) match no eq term: a defined zero,
    // exactly v_shl/v_shr's masked result.
    Word out(w);
    for (int j = 0; j < w; ++j)
      out.bits[static_cast<std::size_t>(j)] =
          Bit{land(lit_not(bx), rv[static_cast<std::size_t>(j)]), lor(bx, rx[static_cast<std::size_t>(j)])};
    return out;
  }

  Word w_eq(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Lit mismatch = kFalse, anyx = kFalse;
    for (int i = 0; i < w; ++i) {
      const Bit &ab = a.bits[static_cast<std::size_t>(i)], &bb = b.bits[static_cast<std::size_t>(i)];
      mismatch = lor(mismatch, land(land(lit_not(ab.x), lit_not(bb.x)), lxor(ab.v, bb.v)));
      anyx = lor(anyx, lor(ab.x, bb.x));
    }
    Word out(1);
    out.bits[0] = Bit{land(lit_not(mismatch), lit_not(anyx)), land(lit_not(mismatch), anyx)};
    return out;
  }

  Word w_neq(const Word& a, const Word& b) {
    const Word e = w_eq(a, b);
    Word out(1);
    out.bits[0] = Bit{land(lit_not(e.bits[0].v), lit_not(e.bits[0].x)), e.bits[0].x};
    return out;
  }

  Word w_case_eq(const Word& a0, const Word& b0) {
    const int w = std::max(a0.width(), b0.width());
    const Word a = resized(a0, w), b = resized(b0, w);
    Lit same = kTrue;
    for (int i = 0; i < w; ++i) {
      const Bit &ab = a.bits[static_cast<std::size_t>(i)], &bb = b.bits[static_cast<std::size_t>(i)];
      same = land(same, land(lit_not(lxor(ab.v, bb.v)), lit_not(lxor(ab.x, bb.x))));
    }
    Word out(1);
    out.bits[0] = Bit{same, kFalse};
    return out;
  }

  enum class Cmp { kLt, kLe, kGt, kGe };
  Word w_cmp(const Word& a, const Word& b, Cmp cmp) {
    const Lit anyx = lor(any_x(a), any_x(b));
    const int w = std::max(a.width(), b.width());
    const std::vector<Lit> va = vplane(a, w), vb = vplane(b, w);
    Lit lt = kFalse, eqp = kTrue;
    for (int i = w - 1; i >= 0; --i) {
      lt = lor(lt, land(eqp, land(lit_not(va[static_cast<std::size_t>(i)]), vb[static_cast<std::size_t>(i)])));
      eqp = land(eqp, lit_not(lxor(va[static_cast<std::size_t>(i)], vb[static_cast<std::size_t>(i)])));
    }
    const Lit le = lor(lt, eqp);
    Lit r = kFalse;
    switch (cmp) {
      case Cmp::kLt: r = lt; break;
      case Cmp::kLe: r = le; break;
      case Cmp::kGt: r = lit_not(le); break;
      case Cmp::kGe: r = lit_not(lt); break;
    }
    return guard1(anyx, r);
  }

  Word w_logical_not(const Word& a) {
    const Lit one = any_v(a), x = any_x(a);
    Word out(1);
    out.bits[0] = Bit{land(lit_not(one), lit_not(x)), land(lit_not(one), x)};
    return out;
  }

  Word w_logical_bin(const Word& a, const Word& b, bool is_and) {
    const Lit at = any_v(a), bt = any_v(b);
    const Lit af = land(lit_not(at), lit_not(any_x(a)));
    const Lit bf = land(lit_not(bt), lit_not(any_x(b)));
    Lit v, zero;
    if (is_and) {
      v = land(at, bt);
      zero = lor(af, bf);
    } else {
      v = lor(at, bt);
      zero = land(af, bf);
    }
    Word out(1);
    out.bits[0] = Bit{v, land(lit_not(v), lit_not(zero))};
    return out;
  }

  Word w_red_and(const Word& a) {
    Lit def0 = kFalse;
    for (const Bit& b : a.bits) def0 = lor(def0, land(lit_not(b.v), lit_not(b.x)));
    const Lit x = any_x(a);
    Word out(1);
    out.bits[0] = Bit{land(lit_not(def0), lit_not(x)), land(lit_not(def0), x)};
    return out;
  }

  Word w_red_or(const Word& a) {
    const Lit one = any_v(a), x = any_x(a);
    Word out(1);
    out.bits[0] = Bit{one, land(lit_not(one), x)};
    return out;
  }

  Word w_red_xor(const Word& a) {
    const Lit x = any_x(a);
    Lit parity = kFalse;
    for (const Bit& b : a.bits) parity = lxor(parity, b.v);
    return guard1(x, parity);
  }

  Word w_concat(const Word& hi, const Word& lo) {
    if (hi.width() + lo.width() > 64) unsupported("concatenation wider than 64 bits");
    Word out(hi.width() + lo.width());
    for (int i = 0; i < lo.width(); ++i) out.bits[static_cast<std::size_t>(i)] = lo.bits[static_cast<std::size_t>(i)];
    for (int i = 0; i < hi.width(); ++i)
      out.bits[static_cast<std::size_t>(lo.width() + i)] = hi.bits[static_cast<std::size_t>(i)];
    return out;
  }

  // kBitDyn: the selected bit, X when the index is unknown or out of range.
  Word bit_select(const Word& base, const Word& idx) {
    const Lit defined = lit_not(any_x(idx));
    Lit sel_v = kFalse, sel_def = kFalse;
    for (int j = 0; j < base.width(); ++j) {
      const Lit eq = eq_const(idx, static_cast<std::uint64_t>(j));
      sel_v = lor(sel_v, land(eq, base.bits[static_cast<std::size_t>(j)].v));
      sel_def = lor(sel_def, land(eq, lit_not(base.bits[static_cast<std::size_t>(j)].x)));
    }
    Word out(1);
    out.bits[0] = Bit{land(defined, sel_v), lit_not(land(defined, sel_def))};
    return out;
  }

  // kSelect: the taken branch under a defined condition, the bitwise merge
  // of both under an unknown one.
  Word select(const Word& c, const Word& t, const Word& f) {
    const Lit t_lit = truthy_lit(c);
    const Lit u_lit = any_x(c);
    if (t_lit == kTrue) return t;
    if (t_lit == kFalse && u_lit == kFalse) return f;
    const int w = std::max(t.width(), f.width());
    // A symbolic condition cannot pick between two result widths.
    if (u_lit != kTrue && t.width() != f.width())
      unsupported("ternary branches of different widths under a symbolic condition");
    const Word tr = resized(t, w), fr = resized(f, w);
    Word out(w);
    for (int i = 0; i < w; ++i) {
      const Bit &tb = tr.bits[static_cast<std::size_t>(i)], &fb = fr.bits[static_cast<std::size_t>(i)];
      const Lit agree = land(lit_not(lxor(tb.v, fb.v)), land(lit_not(tb.x), lit_not(fb.x)));
      out.bits[static_cast<std::size_t>(i)] =
          Bit{lmux(t_lit, tb.v, lmux(u_lit, land(tb.v, agree), fb.v)),
              lmux(t_lit, tb.x, lmux(u_lit, lit_not(agree), fb.x))};
    }
    return out;
  }

  // kCaseCmp: 1 iff the subject matches the label outside the wildcard bits.
  Word case_match(const Word& subject, const Word& label, CaseKind kind) {
    const int w = std::max(subject.width(), label.width());
    const Word sv = resized(subject, w), lv = resized(label, w);
    Lit m = kTrue;
    for (int i = 0; i < w; ++i) {
      const Bit &sb = sv.bits[static_cast<std::size_t>(i)], &lb = lv.bits[static_cast<std::size_t>(i)];
      Lit wildcard = kFalse;
      if (kind == CaseKind::kCasez) wildcard = lb.x;
      else if (kind == CaseKind::kCasex) wildcard = lor(lb.x, sb.x);
      m = land(m, lor(wildcard, land(lit_not(lxor(sb.v, lb.v)), lit_not(lxor(sb.x, lb.x)))));
    }
    Word out(1);
    out.bits[0] = Bit{m, kFalse};
    return out;
  }

  // kDiv, kMod, kPow: no symbolic division, so both operands must be
  // constant; the exact Value kernels (and the simulator's ** loop) decide.
  Word const_arith(Op op, const Word& a, const Word& b) {
    Value av, bv;
    if (!word_const(a, &av) || !word_const(b, &bv))
      unsupported(std::string("non-constant operand to '") +
                  (op == Op::kDiv ? "/" : op == Op::kMod ? "%" : "**") + "'");
    if (op == Op::kDiv) return from_value(v_div(av, bv));
    if (op == Op::kMod) return from_value(v_mod(av, bv));
    if (!av.is_fully_defined() || !bv.is_fully_defined()) return all_x(av.width());
    std::uint64_t r = 1;
    for (std::uint64_t i = 0; i < bv.bits() && i < 64; ++i) r *= av.bits();
    return from_value(Value::of(r, av.width()));
  }

  // One signal bit written under path condition p.
  void store_bit(Lit p, const Bit& v, Bit* cur) {
    cur->v = lmux(p, v.v, cur->v);
    cur->x = lmux(p, v.x, cur->x);
  }

  void exec(const Program& prog, const sim::ProgProcess& proc);

  Aig* aig_;
  Budget* budget_;
  std::vector<Word> regs_;  // [0, signals) = signal state, then scratch
};

// Runs one levelized combinational process once over the symbolic register
// file. Control flow is forward only (a levelized body holds no loop), so pc
// order is a topological order of the flow graph and one sweep visits every
// pc after all of its predecessors. Each pc carries a path-condition literal;
// a pc no input reaches (literal FALSE) is skipped, which mirrors the
// simulator never evaluating an untaken branch.
void Lowerer::exec(const Program& prog, const sim::ProgProcess& proc) {
  const std::uint32_t n = proc.end - proc.begin;  // local pc n = process exit
  const Instr* code = prog.code.data() + proc.begin;
  const auto succ = [&](std::uint32_t i, std::uint32_t out[2]) {
    const Instr& in = code[i];
    if (in.op != Op::kJump && in.op != Op::kJumpIfTrue && in.op != Op::kJumpIfFalse) {
      out[0] = i + 1;
      return 1;
    }
    const std::uint32_t to = in.dst - proc.begin;
    if (in.dst < proc.begin || to <= i || to > n) unsupported("backward jump");
    out[0] = in.op == Op::kJump ? to : i + 1;
    out[1] = to;
    return in.op == Op::kJump ? 1 : 2;
  };

  // Dominators forward, post-dominators backward (pc order is topological).
  // A join that post-dominates its immediate dominator runs on exactly the
  // paths that reach the dominator, so it takes the dominator's literal: the
  // end of an if or a case gets back the literal it started with, not an OR
  // of its arms that only a decision procedure could fold.
  constexpr std::uint32_t kUnreached = UINT32_MAX;
  std::vector<std::uint32_t> idom(n + 1, kUnreached), ipdom(n + 1, n);
  idom[0] = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (idom[i] == kUnreached) continue;
    std::uint32_t s[2];
    for (int k = 0, ns = succ(i, s); k < ns; ++k) {
      std::uint32_t a = idom[s[k]] == kUnreached ? i : idom[s[k]], b = i;
      while (a != b) {
        if (a > b) a = idom[a];
        else b = idom[b];
      }
      idom[s[k]] = a;
    }
  }
  for (std::uint32_t i = n; i-- > 0;) {
    std::uint32_t s[2];
    const int ns = succ(i, s);
    std::uint32_t a = s[0];
    for (int k = 1; k < ns; ++k) {
      std::uint32_t b = s[k];
      while (a != b) {
        if (a < b) a = ipdom[a];
        else b = ipdom[b];
      }
    }
    ipdom[i] = a;
  }
  std::vector<bool> joins_dom(n + 1, true);
  for (std::uint32_t j = 1; j < n; ++j) {
    if (idom[j] == kUnreached) continue;
    std::uint32_t x = idom[j];
    while (x < j) x = ipdom[x];
    joins_dom[j] = x == j;
  }

  std::vector<Lit> path(n + 1, kFalse);  // else: OR of the incoming edges
  path[0] = kTrue;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (idom[i] == kUnreached) continue;
    if (i > 0 && joins_dom[i]) path[i] = path[idom[i]];
    const Lit p = path[i];
    if (p == kFalse) continue;
    budget_->charge();
    const Instr& in = code[i];
    std::vector<Word>& r = regs_;
    // Scratch registers are written once and read only below that write, so
    // only signal stores need muxing by the path condition.
    Lit jump = kFalse;  // condition, under p, of taking the jump edge
    switch (in.op) {
      case Op::kConst:
        if (in.mode != 0) unsupported("literal width outside 1..64");
        r[in.dst] = from_value(prog.consts[in.a]);
        break;
      case Op::kAnd: r[in.dst] = w_and(r[in.a], r[in.b]); break;
      case Op::kOr: r[in.dst] = w_or(r[in.a], r[in.b]); break;
      case Op::kXor: r[in.dst] = w_xor(r[in.a], r[in.b]); break;
      case Op::kAdd: r[in.dst] = w_add(r[in.a], r[in.b]); break;
      case Op::kSub: r[in.dst] = w_sub(r[in.a], r[in.b]); break;
      case Op::kMul: r[in.dst] = w_mul(r[in.a], r[in.b]); break;
      case Op::kDiv:
      case Op::kMod:
      case Op::kPow: r[in.dst] = const_arith(in.op, r[in.a], r[in.b]); break;
      case Op::kShl: r[in.dst] = w_shift(r[in.a], r[in.b], /*left=*/true); break;
      case Op::kShr: r[in.dst] = w_shift(r[in.a], r[in.b], /*left=*/false); break;
      case Op::kEq: r[in.dst] = w_eq(r[in.a], r[in.b]); break;
      case Op::kNeq: r[in.dst] = w_neq(r[in.a], r[in.b]); break;
      case Op::kCaseEq: r[in.dst] = w_case_eq(r[in.a], r[in.b]); break;
      case Op::kLt: r[in.dst] = w_cmp(r[in.a], r[in.b], Cmp::kLt); break;
      case Op::kLe: r[in.dst] = w_cmp(r[in.a], r[in.b], Cmp::kLe); break;
      case Op::kGt: r[in.dst] = w_cmp(r[in.a], r[in.b], Cmp::kGt); break;
      case Op::kGe: r[in.dst] = w_cmp(r[in.a], r[in.b], Cmp::kGe); break;
      case Op::kLogAnd: r[in.dst] = w_logical_bin(r[in.a], r[in.b], /*is_and=*/true); break;
      case Op::kLogOr: r[in.dst] = w_logical_bin(r[in.a], r[in.b], /*is_and=*/false); break;
      case Op::kNot: r[in.dst] = w_not(r[in.a]); break;
      case Op::kNeg: r[in.dst] = w_neg(r[in.a]); break;
      case Op::kLogNot: r[in.dst] = w_logical_not(r[in.a]); break;
      case Op::kRedAnd: r[in.dst] = w_red_and(r[in.a]); break;
      case Op::kRedOr: r[in.dst] = w_red_or(r[in.a]); break;
      case Op::kRedXor: r[in.dst] = w_red_xor(r[in.a]); break;
      case Op::kSelect: r[in.dst] = select(r[in.a], r[in.b], r[in.c]); break;
      case Op::kConcat: r[in.dst] = w_concat(r[in.a], r[in.b]); break;
      case Op::kReplicate: {
        const Word inner = r[in.a];
        if (std::uint64_t{in.b} * static_cast<std::uint64_t>(inner.width()) > 64)
          unsupported("replication wider than 64 bits");
        Word acc = inner;
        for (std::uint32_t k = 1; k < in.b; ++k) acc = w_concat(acc, inner);
        r[in.dst] = std::move(acc);
        break;
      }
      case Op::kSlice: {
        // mode 1: a part select wholly past its signal, all-X.
        const int w = checked_width(static_cast<int>(in.c));
        if (in.mode != 0) {
          r[in.dst] = all_x(w);
          break;
        }
        const Word& a = r[in.a];
        Word out(w);
        for (int j = 0; j < w; ++j) {
          const int src = static_cast<int>(in.b) + j;
          if (src < a.width()) out.bits[static_cast<std::size_t>(j)] = a.bits[static_cast<std::size_t>(src)];
          else out.bits[static_cast<std::size_t>(j)] = Bit{kFalse, kFalse};
        }
        r[in.dst] = std::move(out);
        break;
      }
      case Op::kBitDyn: r[in.dst] = bit_select(r[in.a], r[in.b]); break;
      case Op::kResize: r[in.dst] = resized(r[in.a], static_cast<int>(in.b)); break;
      case Op::kCaseCmp:
        r[in.dst] = case_match(r[in.a], r[in.b], static_cast<CaseKind>(in.mode));
        break;
      case Op::kJump: jump = kTrue; break;
      case Op::kJumpIfTrue: jump = truthy_lit(r[in.a]); break;
      case Op::kJumpIfFalse: jump = lit_not(truthy_lit(r[in.a])); break;
      case Op::kStep: break;
      case Op::kStoreSig: {
        // Bits [c, b] of the signal; bits past its width are dropped.
        const int hi = static_cast<int>(in.b), lo = static_cast<int>(in.c);
        const Word v = resized(r[in.a], hi - lo + 1);
        Word& sig = r[in.dst];
        for (int j = std::max(lo, 0); j <= hi && j < sig.width(); ++j)
          store_bit(p, v.bits[static_cast<std::size_t>(j - lo)], &sig.bits[static_cast<std::size_t>(j)]);
        break;
      }
      case Op::kStoreBitDyn: {
        // An unknown or out-of-range index writes nothing.
        const Word& idx = r[in.b];
        const Bit v = r[in.a].bits[0];
        Word& sig = r[in.dst];
        const Lit on = land(p, lit_not(any_x(idx)));
        for (int j = 0; j < sig.width(); ++j)
          store_bit(land(on, eq_const(idx, static_cast<std::uint64_t>(j))), v,
                    &sig.bits[static_cast<std::size_t>(j)]);
        break;
      }
      default:
        // kThrow, kNba*, loop ops and the branchy-ternary ops never occur in
        // a levelized combinational process.
        unsupported("instruction outside the levelized combinational fragment");
    }
    std::uint32_t s[2];
    const int ns = succ(i, s);
    for (int k = 0; k < ns; ++k) {
      const Lit edge = ns == 1 ? kTrue : k == 1 ? jump : lit_not(jump);
      if (!joins_dom[s[k]]) path[s[k]] = lor(path[s[k]], land(p, edge));
    }
  }
}

std::vector<Word> Lowerer::run(const Program& prog,
                               const std::map<std::string, std::vector<Lit>>& input_vars) {
  // 1. The simulator's own lowering and schedule. Anything the levelizer
  // keeps event-driven is not a pure function of the current inputs.
  if (!prog.levelized) unsupported(prog.levelize_failure);
  try {
    // 2. The post-initial state: power-up X, then initial blocks and their
    // NBA commit, run by the simulator itself. It lives only inside this
    // call, so it borrows `prog` through a non-owning handle.
    regs_.assign(prog.num_regs, Word(1));
    if (prog.initial_procs.empty()) {
      for (std::size_t s = 0; s < prog.signals.size(); ++s)
        regs_[s] = all_x(checked_width(prog.signals[s].width));
    } else {
      const sim::CompiledSimulator init = sim::CompiledSimulator::unsettled(
          std::shared_ptr<const Program>(std::shared_ptr<const Program>(), &prog));
      if (!init.converged()) unsupported("initial block did not converge");
      for (std::uint32_t s = 0; s < prog.signals.size(); ++s)
        regs_[s] = from_value(init.peek(sim::SignalHandle{s}));
    }
  } catch (const sim::ElabError& e) {
    unsupported(e.what());
  } catch (const std::invalid_argument& e) {
    unsupported(e.what());
  }

  // 3. A comb process runs iff its read set names a signal (the constructor
  // marks every signal dirty; watcher lists hold known names only).
  std::vector<bool> triggered(prog.processes.size(), false);
  for (const auto& watchers : prog.comb_watchers)
    for (const std::uint32_t pi : watchers) triggered[pi] = true;

  // 4. No clocked process may ever fire: every edge signal stays static after
  // construction. Targets come from the store ops in each process's code.
  std::vector<bool> comb_driven(prog.signals.size(), false);
  std::vector<bool> clocked_target(prog.signals.size(), false);
  for (std::size_t pi = 0; pi < prog.processes.size(); ++pi) {
    const sim::ProgProcess& proc = prog.processes[pi];
    const bool comb = proc.kind == ProcessKind::kComb || proc.kind == ProcessKind::kContAssign;
    if (comb ? !triggered[pi] : proc.kind != ProcessKind::kClocked) continue;
    for (std::uint32_t pc = proc.begin; pc < proc.end; ++pc) {
      const Instr& in = prog.code[pc];
      if (in.op != Op::kStoreSig && in.op != Op::kStoreBitDyn && in.op != Op::kNbaSig &&
          in.op != Op::kNbaBitDyn)
        continue;
      if (!comb) {
        clocked_target[in.dst] = true;
        continue;
      }
      // Poking the port would race its driver.
      if (prog.signals[in.dst].is_input) unsupported("combinational process drives an input port");
      comb_driven[in.dst] = true;
    }
  }
  for (const std::uint32_t s : prog.edge_sigs) {
    if (input_vars.contains(prog.signals[s].name)) unsupported("clock edge on a swept input");
    if (comb_driven[s]) unsupported("clock edge on a combinationally driven signal");
    if (clocked_target[s]) unsupported("clock edge on a clocked-process target");
  }

  // 5. Bind the swept inputs. The harness pokes Value::of(slice, elab width),
  // so bits above the port width are defined zeros.
  for (const auto& [name, vars] : input_vars) {
    const auto it = prog.signal_slots.find(name);
    if (it == prog.signal_slots.end()) unsupported("swept input '" + name + "' is not a signal");
    Word& w = regs_[it->second];
    for (std::size_t i = 0; i < w.bits.size(); ++i)
      w.bits[i] = i < vars.size() ? Bit{vars[i], kFalse} : Bit{kFalse, kFalse};
  }

  // 6. One run of every triggered comb process in the levelized order equals
  // the simulator's settle: levelization guarantees one writer per bit, no
  // cycle, every target bit written on every path, and no read of a target
  // before its write.
  for (const std::uint32_t pi : prog.comb_order)
    if (triggered[pi]) exec(prog, prog.processes[pi]);
  regs_.resize(prog.signals.size());
  return std::move(regs_);
}

}  // namespace

std::vector<Word> lower_design(Aig* aig, const sim::Program& program,
                               const std::map<std::string, std::vector<Lit>>& input_vars) {
  return Lowerer(aig).run(program, input_vars);
}

}  // namespace haven::prove
