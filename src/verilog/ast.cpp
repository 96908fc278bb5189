#include "verilog/ast.h"

#include <cctype>
#include <stdexcept>

namespace haven::verilog {

// --- Expr factories ---------------------------------------------------------

namespace {
std::shared_ptr<Expr> new_expr(ExprKind kind, int line) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->line = line;
  return e;
}
}  // namespace

ExprPtr Expr::make_number(Number n, int line) {
  auto e = new_expr(ExprKind::kNumber, line);
  e->number = n;
  return e;
}

ExprPtr Expr::make_number(std::uint64_t value, int width, bool sized) {
  Number n;
  n.value = value;
  n.width = width;
  n.sized = sized;
  return make_number(n);
}

ExprPtr Expr::make_ident(std::string name, int line) {
  auto e = new_expr(ExprKind::kIdent, line);
  e->ident = std::move(name);
  return e;
}

ExprPtr Expr::make_unary(std::string op, ExprPtr a, int line) {
  if (!a) throw std::invalid_argument("make_unary: null operand");
  auto e = new_expr(ExprKind::kUnary, line);
  e->op = std::move(op);
  e->operands = {std::move(a)};
  return e;
}

ExprPtr Expr::make_binary(std::string op, ExprPtr a, ExprPtr b, int line) {
  if (!a || !b) throw std::invalid_argument("make_binary: null operand");
  auto e = new_expr(ExprKind::kBinary, line);
  e->op = std::move(op);
  e->operands = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::make_ternary(ExprPtr c, ExprPtr t, ExprPtr f, int line) {
  if (!c || !t || !f) throw std::invalid_argument("make_ternary: null operand");
  auto e = new_expr(ExprKind::kTernary, line);
  e->operands = {std::move(c), std::move(t), std::move(f)};
  return e;
}

ExprPtr Expr::make_concat(std::vector<ExprPtr> parts, int line) {
  if (parts.empty()) throw std::invalid_argument("make_concat: empty");
  auto e = new_expr(ExprKind::kConcat, line);
  e->operands = std::move(parts);
  return e;
}

ExprPtr Expr::make_replicate(std::uint64_t count, ExprPtr inner, int line) {
  if (!inner) throw std::invalid_argument("make_replicate: null operand");
  auto e = new_expr(ExprKind::kReplicate, line);
  e->repeat = count;
  e->operands = {std::move(inner)};
  return e;
}

ExprPtr Expr::make_bit_select(std::string base, ExprPtr index, int line) {
  if (!index) throw std::invalid_argument("make_bit_select: null index");
  auto e = new_expr(ExprKind::kBitSelect, line);
  e->ident = std::move(base);
  e->operands = {std::move(index)};
  return e;
}

ExprPtr Expr::make_part_select(std::string base, int msb, int lsb, int line) {
  auto e = new_expr(ExprKind::kPartSelect, line);
  e->ident = std::move(base);
  e->msb = msb;
  e->lsb = lsb;
  return e;
}

void Expr::collect_idents(std::vector<std::string>& out) const {
  switch (kind) {
    case ExprKind::kIdent:
    case ExprKind::kBitSelect:
    case ExprKind::kPartSelect:
      out.push_back(ident);
      break;
    default:
      break;
  }
  for (const auto& child : operands) child->collect_idents(out);
}

// --- Stmt factories ----------------------------------------------------------

namespace {
std::shared_ptr<Stmt> new_stmt(StmtKind kind, int line) {
  auto s = std::make_shared<Stmt>();
  s->kind = kind;
  s->line = line;
  return s;
}
}  // namespace

StmtPtr Stmt::make_block(std::vector<StmtPtr> stmts, int line) {
  auto s = new_stmt(StmtKind::kBlock, line);
  s->stmts = std::move(stmts);
  return s;
}

StmtPtr Stmt::make_assign(bool blocking, ExprPtr lhs, ExprPtr rhs, int line) {
  if (!lhs || !rhs) throw std::invalid_argument("make_assign: null operand");
  auto s = new_stmt(blocking ? StmtKind::kBlockingAssign : StmtKind::kNonblockingAssign, line);
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr Stmt::make_if(ExprPtr cond, StmtPtr then_b, StmtPtr else_b, int line) {
  if (!cond || !then_b) throw std::invalid_argument("make_if: null cond/then");
  auto s = new_stmt(StmtKind::kIf, line);
  s->cond = std::move(cond);
  s->then_branch = std::move(then_b);
  s->else_branch = std::move(else_b);
  return s;
}

StmtPtr Stmt::make_case(CaseKind kind, ExprPtr subject, std::vector<CaseItem> items, int line) {
  if (!subject) throw std::invalid_argument("make_case: null subject");
  auto s = new_stmt(StmtKind::kCase, line);
  s->case_kind = kind;
  s->cond = std::move(subject);
  s->case_items = std::move(items);
  return s;
}

StmtPtr Stmt::make_for(ExprPtr init_lhs, ExprPtr init_rhs, ExprPtr cond, ExprPtr step_lhs,
                       ExprPtr step_rhs, StmtPtr body, int line) {
  if (!init_lhs || !init_rhs || !cond || !step_lhs || !step_rhs || !body)
    throw std::invalid_argument("make_for: null component");
  auto s = new_stmt(StmtKind::kFor, line);
  s->lhs = std::move(init_lhs);
  s->rhs = std::move(init_rhs);
  s->cond = std::move(cond);
  s->step_lhs = std::move(step_lhs);
  s->step_rhs = std::move(step_rhs);
  s->body = std::move(body);
  return s;
}

// --- Module ------------------------------------------------------------------

const Port* Module::find_port(const std::string& port_name) const {
  for (const auto& p : ports) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

const Module* SourceFile::find_module(const std::string& name) const {
  for (const auto& m : modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// --- Literal parsing ----------------------------------------------------------

std::optional<Number> parse_number_literal(std::string_view text) {
  Number n;
  const std::size_t tick = text.find('\'');
  if (tick == std::string_view::npos) {
    // Plain decimal.
    if (text.empty()) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : text) {
      if (c == '_') continue;
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    n.value = v;
    n.width = 32;
    n.sized = false;
    return n;
  }

  // Sized/based literal.
  int width = 0;
  if (tick == 0) {
    width = 32;  // unsized based literal 'b0
  } else {
    for (std::size_t i = 0; i < tick; ++i) {
      const char c = text[i];
      if (c == '_') continue;
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      width = width * 10 + (c - '0');
    }
    if (width <= 0 || width > 64) return std::nullopt;  // simulator limit
  }
  n.width = width;
  n.sized = tick != 0;

  std::size_t i = tick + 1;
  if (i < text.size() && (text[i] == 's' || text[i] == 'S')) ++i;  // signed marker ignored
  if (i >= text.size()) return std::nullopt;
  const char base = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i++])));
  int bits_per_digit = 0;
  switch (base) {
    case 'b': bits_per_digit = 1; break;
    case 'o': bits_per_digit = 3; break;
    case 'h': bits_per_digit = 4; break;
    case 'd': bits_per_digit = 0; break;
    default: return std::nullopt;
  }

  if (bits_per_digit == 0) {
    std::uint64_t v = 0;
    bool any = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '_') continue;
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      any = true;
    }
    if (!any) return std::nullopt;
    n.value = width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
    return n;
  }

  std::uint64_t value = 0, xz = 0;
  bool any = false;
  for (; i < text.size(); ++i) {
    const char raw = text[i];
    if (raw == '_') continue;
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
    std::uint64_t digit = 0, digit_xz = 0;
    const std::uint64_t digit_mask = (std::uint64_t{1} << bits_per_digit) - 1;
    if (c == 'x' || c == 'z' || c == '?') {
      digit_xz = digit_mask;
    } else if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
    if (digit > digit_mask) return std::nullopt;
    value = (value << bits_per_digit) | digit;
    xz = (xz << bits_per_digit) | digit_xz;
    any = true;
  }
  if (!any) return std::nullopt;
  const std::uint64_t mask = width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  n.value = value & mask & ~xz;
  n.xz_mask = xz & mask;
  return n;
}

}  // namespace haven::verilog
