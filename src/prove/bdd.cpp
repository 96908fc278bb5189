#include "prove/bdd.h"

#include <algorithm>
#include <utility>

namespace haven::prove {

Bdd::Ref Bdd::mk(std::uint32_t v, Ref hi, Ref lo) {
  if (hi == lo) return hi;
  // Canonical form: the else edge is never complemented. Push the complement
  // to the result instead, so f and !f always share one node.
  Ref out_compl = 0;
  if (lo & 1u) {
    hi = lnot(hi);
    lo = lnot(lo);
    out_compl = 1u;
  }
  const Node key{v, hi, lo};
  if (const std::uint32_t* hit = unique_.find(key)) return (*hit << 1) | out_compl;
  budget_->charge();
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(key);
  unique_.insert(key, id);
  return (id << 1) | out_compl;
}

Bdd::Ref Bdd::land(Ref f, Ref g) {
  if (f == kFalseRef || g == kFalseRef) return kFalseRef;
  if (f == kTrueRef) return g;
  if (g == kTrueRef) return f;
  if (f == g) return f;
  if (f == lnot(g)) return kFalseRef;
  if (f > g) std::swap(f, g);
  const std::uint64_t key = (std::uint64_t{f} << 32) | g;
  if (const std::uint32_t* hit = and_cache_.find(key)) return *hit;

  const std::uint32_t vf = var_of(f), vg = var_of(g);
  const std::uint32_t v = std::min(vf, vg);
  const auto cofactor = [&](Ref r, std::uint32_t rv, bool high) -> Ref {
    if (rv != v) return r;
    const Node& n = nodes_[r >> 1];
    return (high ? n.hi : n.lo) ^ (r & 1u);
  };
  const Ref t = land(cofactor(f, vf, true), cofactor(g, vg, true));
  const Ref e = land(cofactor(f, vf, false), cofactor(g, vg, false));
  const Ref res = mk(v, t, e);
  and_cache_.insert(key, res);
  return res;
}

}  // namespace haven::prove
