#include "verilog/pretty.h"

#include "util/strings.h"

namespace haven::verilog {

namespace {

std::string pad(int indent) { return std::string(static_cast<std::size_t>(indent) * 2, ' '); }

std::string print_number(const Number& n) {
  if (!n.sized && n.xz_mask == 0) return std::to_string(n.value);
  // Emit binary for widths <= 8 with x bits, hex otherwise.
  if (n.xz_mask != 0 || n.width <= 8) {
    std::string bits;
    for (int i = n.width - 1; i >= 0; --i) {
      if ((n.xz_mask >> i) & 1u) bits += 'x';
      else bits += ((n.value >> i) & 1u) ? '1' : '0';
    }
    return std::to_string(n.width) + "'b" + bits;
  }
  return util::format("%d'h%llx", n.width, static_cast<unsigned long long>(n.value));
}

std::string print_range(const std::optional<Range>& r) {
  if (!r) return "";
  return util::format("[%d:%d] ", r->msb, r->lsb);
}

}  // namespace

std::string print_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumber:
      return print_number(e.number);
    case ExprKind::kIdent:
      return e.ident;
    case ExprKind::kUnary:
      return e.op + "(" + print_expr(*e.operands[0]) + ")";
    case ExprKind::kBinary:
      return "(" + print_expr(*e.operands[0]) + " " + e.op + " " + print_expr(*e.operands[1]) + ")";
    case ExprKind::kTernary:
      return "(" + print_expr(*e.operands[0]) + " ? " + print_expr(*e.operands[1]) + " : " +
             print_expr(*e.operands[2]) + ")";
    case ExprKind::kConcat: {
      std::vector<std::string> parts;
      parts.reserve(e.operands.size());
      for (const auto& p : e.operands) parts.push_back(print_expr(*p));
      return "{" + util::join(parts, ", ") + "}";
    }
    case ExprKind::kReplicate:
      return "{" + std::to_string(e.repeat) + "{" + print_expr(*e.operands[0]) + "}}";
    case ExprKind::kBitSelect:
      return e.ident + "[" + print_expr(*e.operands[0]) + "]";
    case ExprKind::kPartSelect:
      return e.ident + util::format("[%d:%d]", e.msb, e.lsb);
  }
  return "/*?*/";
}

std::string print_stmt(const Stmt& s, int indent) {
  const std::string p = pad(indent);
  switch (s.kind) {
    case StmtKind::kBlock: {
      std::string out = p + "begin\n";
      for (const auto& child : s.stmts) out += print_stmt(*child, indent + 1);
      out += p + "end\n";
      return out;
    }
    case StmtKind::kBlockingAssign:
      return p + print_expr(*s.lhs) + " = " + print_expr(*s.rhs) + ";\n";
    case StmtKind::kNonblockingAssign:
      return p + print_expr(*s.lhs) + " <= " + print_expr(*s.rhs) + ";\n";
    case StmtKind::kIf: {
      std::string out = p + "if (" + print_expr(*s.cond) + ")\n";
      out += print_stmt(*s.then_branch, indent + 1);
      if (s.else_branch) {
        out += p + "else\n";
        out += print_stmt(*s.else_branch, indent + 1);
      }
      return out;
    }
    case StmtKind::kCase: {
      const char* kw = s.case_kind == CaseKind::kCase ? "case"
                       : (s.case_kind == CaseKind::kCasez ? "casez" : "casex");
      std::string out = p + kw + " (" + print_expr(*s.cond) + ")\n";
      for (const auto& item : s.case_items) {
        if (item.labels.empty()) {
          out += pad(indent + 1) + "default:\n";
        } else {
          std::vector<std::string> labels;
          for (const auto& l : item.labels) labels.push_back(print_expr(*l));
          out += pad(indent + 1) + util::join(labels, ", ") + ":\n";
        }
        out += print_stmt(*item.body, indent + 2);
      }
      out += p + "endcase\n";
      return out;
    }
    case StmtKind::kFor: {
      std::string out = p + "for (" + print_expr(*s.lhs) + " = " + print_expr(*s.rhs) + "; " +
                        print_expr(*s.cond) + "; " + print_expr(*s.step_lhs) + " = " +
                        print_expr(*s.step_rhs) + ")\n";
      out += print_stmt(*s.body, indent + 1);
      return out;
    }
  }
  return p + "/*?*/;\n";
}

std::string print_module(const Module& m) {
  std::string out = "module " + m.name;

  // Parameters from the item list are printed in the header if non-local.
  std::vector<std::string> header_params;
  for (const auto& item : m.items) {
    if (const auto* p = std::get_if<ParameterDecl>(&item); p && !p->local) {
      header_params.push_back(p->name + " = " + print_expr(*p->value));
    }
  }
  if (!header_params.empty()) {
    out += " #(\n";
    for (std::size_t i = 0; i < header_params.size(); ++i) {
      out += "  parameter " + header_params[i] + (i + 1 < header_params.size() ? ",\n" : "\n");
    }
    out += ")";
  }

  out += " (\n";
  for (std::size_t i = 0; i < m.ports.size(); ++i) {
    const Port& port = m.ports[i];
    out += "  ";
    out += port.dir == Dir::kInput ? "input " : (port.dir == Dir::kOutput ? "output " : "inout ");
    if (port.is_reg) out += "reg ";
    out += print_range(port.range);
    out += port.name;
    if (i + 1 < m.ports.size()) out += ",";
    out += "\n";
  }
  out += ");\n";

  for (const auto& item : m.items) {
    if (std::holds_alternative<ParameterDecl>(item)) {
      const auto& p = std::get<ParameterDecl>(item);
      if (p.local) out += "  localparam " + p.name + " = " + print_expr(*p.value) + ";\n";
      continue;  // non-local printed in header
    }
    if (std::holds_alternative<NetDecl>(item)) {
      const auto& d = std::get<NetDecl>(item);
      const char* kw = d.type == NetType::kWire ? "wire"
                       : (d.type == NetType::kReg ? "reg" : "integer");
      out += "  " + std::string(kw) + " " + print_range(d.range) + util::join(d.names, ", ");
      if (d.init) out += " = " + print_expr(*d.init);
      out += ";\n";
      continue;
    }
    if (std::holds_alternative<ContAssign>(item)) {
      const auto& a = std::get<ContAssign>(item);
      out += "  assign " + print_expr(*a.lhs) + " = " + print_expr(*a.rhs) + ";\n";
      continue;
    }
    if (std::holds_alternative<AlwaysBlock>(item)) {
      const auto& ab = std::get<AlwaysBlock>(item);
      out += "  always @";
      if (ab.star) {
        out += "(*)";
      } else {
        out += "(";
        for (std::size_t i = 0; i < ab.sens.size(); ++i) {
          const SensItem& s = ab.sens[i];
          if (s.edge == Edge::kPos) out += "posedge ";
          else if (s.edge == Edge::kNeg) out += "negedge ";
          out += s.signal;
          if (i + 1 < ab.sens.size()) out += " or ";
        }
        out += ")";
      }
      out += "\n";
      out += print_stmt(*ab.body, 1);
      continue;
    }
    if (std::holds_alternative<InitialBlock>(item)) {
      const auto& ib = std::get<InitialBlock>(item);
      out += "  initial\n";
      out += print_stmt(*ib.body, 1);
      continue;
    }
    if (std::holds_alternative<Instance>(item)) {
      const auto& inst = std::get<Instance>(item);
      out += "  " + inst.module_name + " " + inst.instance_name + " (";
      for (std::size_t i = 0; i < inst.connections.size(); ++i) {
        const auto& c = inst.connections[i];
        if (!c.port.empty()) {
          out += "." + c.port + "(" + (c.expr ? print_expr(*c.expr) : "") + ")";
        } else if (c.expr) {
          out += print_expr(*c.expr);
        }
        if (i + 1 < inst.connections.size()) out += ", ";
      }
      out += ");\n";
      continue;
    }
  }

  out += "endmodule\n";
  return out;
}

std::string print_source(const SourceFile& f) {
  std::string out;
  for (std::size_t i = 0; i < f.modules.size(); ++i) {
    if (i) out += "\n";
    out += print_module(f.modules[i]);
  }
  return out;
}

}  // namespace haven::verilog
