#include "prove/aig.h"

#include <algorithm>
#include <utility>

namespace haven::prove {

Lit Aig::add_input() {
  budget_->charge();
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.input = static_cast<std::int32_t>(input_count_++);
  nodes_.push_back(n);
  return id << 1;
}

Lit Aig::land(Lit a, Lit b) {
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kFalse;
  if (a > b) std::swap(a, b);
  const std::uint64_t key = (std::uint64_t{a} << 32) | b;
  if (const std::uint32_t* hit = strash_.find(key)) return *hit << 1;
  budget_->charge();
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{a, b, -1});
  strash_.insert(key, id);
  return id << 1;
}

Lit Aig::lxor(Lit a, Lit b) {
  if (a == kFalse) return b;
  if (b == kFalse) return a;
  if (a == kTrue) return lit_not(b);
  if (b == kTrue) return lit_not(a);
  if (a == b) return kFalse;
  if (a == lit_not(b)) return kTrue;
  // a ^ b = !( !(a & !b) & !(!a & b) )
  return lit_not(land(lit_not(land(a, lit_not(b))), lit_not(land(lit_not(a), b))));
}

Lit Aig::lmux(Lit sel, Lit t, Lit f) {
  if (sel == kTrue) return t;
  if (sel == kFalse) return f;
  if (t == f) return t;
  return lit_not(land(lit_not(land(sel, t)), lit_not(land(lit_not(sel), f))));
}

std::vector<std::uint32_t> Aig::cone(Lit root) const {
  std::vector<std::uint32_t> out;
  if (is_const(root)) return out;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::uint32_t> stack{lit_node(root)};
  seen[lit_node(root)] = true;
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const Node& n = nodes_[id];
    if (n.input >= 0) continue;
    for (const Lit child : {n.a, n.b}) {
      const std::uint32_t c = lit_node(child);
      if (c != 0 && !seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace haven::prove
