#include "verilog/analyzer.h"

#include <algorithm>
#include <map>

#include "util/strings.h"

namespace haven::verilog {

std::string topic_name(Topic t) {
  switch (t) {
    case Topic::kFsm: return "fsm";
    case Topic::kCounter: return "counter";
    case Topic::kShiftRegister: return "shift_register";
    case Topic::kAlu: return "alu";
    case Topic::kClockDivider: return "clock_divider";
    case Topic::kAdder: return "adder";
    case Topic::kMultiplexer: return "multiplexer";
    case Topic::kDecoder: return "decoder";
    case Topic::kComparator: return "comparator";
    case Topic::kParity: return "parity";
    case Topic::kRegister: return "register";
    case Topic::kCombinational: return "combinational";
    case Topic::kSequential: return "sequential";
  }
  return "?";
}

namespace {

struct SymbolInfo {
  NetType type = NetType::kWire;
  bool is_port = false;
  Dir dir = Dir::kInput;
  bool assigned_continuous = false;
  bool assigned_procedural = false;
  int decl_line = 0;
};

bool name_suggests(const std::string& name, std::initializer_list<const char*> hints) {
  const std::string lower = util::to_lower(name);
  for (const char* h : hints) {
    if (lower.find(h) != std::string::npos) return true;
  }
  return false;
}

class ModuleChecker {
 public:
  ModuleChecker(const Module& m, const SourceFile* file) : m_(m), file_(file) {}

  ModuleAnalysis run() {
    a_.module_name = m_.name;
    build_symbol_table();
    check_items();
    derive_attributes();
    classify_topics();
    return std::move(a_);
  }

 private:
  void error(int line, const std::string& msg, const char* rule) {
    a_.diagnostics.push_back({msg, line, 0, Severity::kError, rule});
  }

  void build_symbol_table() {
    for (const auto& p : m_.ports) {
      if (symbols_.contains(p.name)) {
        error(m_.line, "duplicate port '" + p.name + "'", "sema.duplicate");
        continue;
      }
      SymbolInfo info;
      info.is_port = true;
      info.dir = p.dir;
      info.type = p.is_reg ? NetType::kReg : NetType::kWire;
      info.decl_line = m_.line;
      symbols_[p.name] = info;
    }
    for (const auto& item : m_.items) {
      if (const auto* d = std::get_if<NetDecl>(&item)) {
        for (const auto& name : d->names) {
          auto it = symbols_.find(name);
          if (it != symbols_.end()) {
            // Redeclaring a port as wire/reg refines its type (legal for
            // non-ANSI style); redeclaring twice is an error.
            if (it->second.is_port) {
              it->second.type = d->type;
              continue;
            }
            error(d->line, "duplicate declaration of '" + name + "'", "sema.duplicate");
            continue;
          }
          SymbolInfo info;
          info.type = d->type;
          info.decl_line = d->line;
          symbols_[name] = info;
        }
      } else if (const auto* p = std::get_if<ParameterDecl>(&item)) {
        // Parameters were substituted during parse; keep name reserved.
        SymbolInfo info;
        info.type = NetType::kInteger;
        info.decl_line = p->line;
        symbols_["\x01param:" + p->name] = info;
      }
    }
  }

  void check_expr(const ExprPtr& e, int line) {
    if (!e) return;
    if ((e->kind == ExprKind::kIdent || e->kind == ExprKind::kBitSelect ||
         e->kind == ExprKind::kPartSelect) &&
        !symbols_.contains(e->ident)) {
      error(line ? line : e->line, "use of undeclared identifier '" + e->ident + "'",
            "sema.undeclared");
    }
    for (const auto& child : e->operands) check_expr(child, line ? line : e->line);
  }

  // Record an assignment to the base identifier(s) of an lvalue.
  void note_assignment(const ExprPtr& lhs, bool continuous, int line) {
    if (!lhs) return;
    if (lhs->kind == ExprKind::kConcat) {
      for (const auto& part : lhs->operands) note_assignment(part, continuous, line);
      return;
    }
    if (lhs->kind != ExprKind::kIdent && lhs->kind != ExprKind::kBitSelect &&
        lhs->kind != ExprKind::kPartSelect) {
      error(line, "invalid assignment target", "sema.lvalue");
      return;
    }
    auto it = symbols_.find(lhs->ident);
    if (it == symbols_.end()) {
      error(line, "assignment to undeclared identifier '" + lhs->ident + "'", "sema.undeclared");
      return;
    }
    SymbolInfo& s = it->second;
    if (s.is_port && s.dir == Dir::kInput) {
      error(line, "assignment to input port '" + lhs->ident + "'", "sema.assign-input");
      return;
    }
    if (continuous) {
      if (s.type == NetType::kReg) {
        error(line, "continuous assignment to reg '" + lhs->ident + "'", "sema.wire-reg");
      }
      s.assigned_continuous = true;
    } else {
      if (current_always_ >= 0) always_writers_[lhs->ident].insert(current_always_);
      if (s.type == NetType::kWire) {
        error(line, "procedural assignment to wire '" + lhs->ident +
                        "' (declare it as reg)",
              "sema.wire-reg");
      }
      s.assigned_procedural = true;
    }
  }

  void check_stmt(const StmtPtr& s, int depth = 0) {
    if (!s) return;
    if (depth > 256) {
      error(s->line, "statement nesting too deep", "sema.nesting");
      return;
    }
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) check_stmt(child, depth + 1);
        break;
      case StmtKind::kBlockingAssign:
      case StmtKind::kNonblockingAssign:
        note_assignment(s->lhs, /*continuous=*/false, s->line);
        check_expr(s->lhs, s->line);
        check_expr(s->rhs, s->line);
        break;
      case StmtKind::kIf:
        check_expr(s->cond, s->line);
        check_stmt(s->then_branch, depth + 1);
        check_stmt(s->else_branch, depth + 1);
        break;
      case StmtKind::kCase:
        check_expr(s->cond, s->line);
        for (const auto& item : s->case_items) {
          for (const auto& l : item.labels) check_expr(l, s->line);
          check_stmt(item.body, depth + 1);
        }
        break;
      case StmtKind::kFor:
        note_assignment(s->lhs, false, s->line);
        check_expr(s->rhs, s->line);
        check_expr(s->cond, s->line);
        note_assignment(s->step_lhs, false, s->line);
        check_expr(s->step_rhs, s->line);
        check_stmt(s->body, depth + 1);
        break;
    }
  }

  void check_items() {
    for (const auto& item : m_.items) {
      if (const auto* a = std::get_if<ContAssign>(&item)) {
        note_assignment(a->lhs, /*continuous=*/true, a->line);
        check_expr(a->lhs, a->line);
        check_expr(a->rhs, a->line);
      } else if (const auto* d = std::get_if<NetDecl>(&item)) {
        if (d->init) {
          check_expr(d->init, d->line);
          if (d->type == NetType::kWire && !d->names.empty()) {
            auto it = symbols_.find(d->names.back());
            if (it != symbols_.end()) it->second.assigned_continuous = true;
          }
        }
      } else if (const auto* ab = std::get_if<AlwaysBlock>(&item)) {
        current_always_ = num_always_++;
        for (const auto& s : ab->sens) {
          if (!symbols_.contains(s.signal)) {
            error(ab->line, "sensitivity list references undeclared signal '" + s.signal + "'",
                  "sema.undeclared");
          }
        }
        check_stmt(ab->body);
        current_always_ = -1;
      } else if (const auto* ib = std::get_if<InitialBlock>(&item)) {
        check_stmt(ib->body);
      } else if (const auto* inst = std::get_if<Instance>(&item)) {
        check_instance(*inst);
      }
    }

    // Multiple drivers: both continuous and procedural assignment to the same
    // signal is an elaboration error in synthesis flows.
    for (const auto& [name, info] : symbols_) {
      if (name.starts_with("\x01param:")) continue;
      if (info.assigned_continuous && info.assigned_procedural) {
        error(info.decl_line, "signal '" + name + "' driven both continuously and procedurally",
              "sema.multi-driven");
      }
    }
    // A signal written from more than one always block has multiple drivers
    // (an elaboration error in synthesis flows).
    for (const auto& [name, writers] : always_writers_) {
      if (writers.size() > 1) {
        const auto it = symbols_.find(name);
        error(it != symbols_.end() ? it->second.decl_line : m_.line,
              "signal '" + name + "' is assigned in " + std::to_string(writers.size()) +
                  " always blocks (multiple drivers)",
              "sema.multi-driven");
      }
    }
  }

  void check_instance(const Instance& inst) {
    for (const auto& c : inst.connections) check_expr(c.expr, inst.line);
    if (file_ != nullptr) {
      const Module* def = file_->find_module(inst.module_name);
      if (def != nullptr) {
        const bool named = !inst.connections.empty() && !inst.connections.front().port.empty();
        if (named) {
          for (const auto& c : inst.connections) {
            if (!c.port.empty() && def->find_port(c.port) == nullptr) {
              error(inst.line, "instance '" + inst.instance_name + "' connects unknown port '" +
                                   c.port + "' of module '" + inst.module_name + "'",
                    "sema.instance");
            }
          }
        } else if (inst.connections.size() != def->ports.size()) {
          error(inst.line,
                util::format("instance '%s' has %zu connections but module '%s' has %zu ports",
                             inst.instance_name.c_str(), inst.connections.size(),
                             inst.module_name.c_str(), def->ports.size()),
                "sema.instance");
        }
      }
      // Unknown module name is not an error: single-file analysis routinely
      // sees snippets referencing library cells.
    }
  }

  void derive_attributes() {
    Attributes& at = a_.attributes;
    for (const auto& item : m_.items) {
      const auto* ab = std::get_if<AlwaysBlock>(&item);
      if (ab == nullptr || ab->star) continue;
      for (const auto& s : ab->sens) {
        if (s.edge == Edge::kLevel) continue;
        if (name_suggests(s.signal, {"clk", "clock"})) {
          at.has_clock = true;
          if (s.edge == Edge::kNeg) at.negedge_clock = true;
        } else if (name_suggests(s.signal, {"rst", "reset", "clear", "clr"})) {
          at.async_reset = true;
          if (s.edge == Edge::kNeg || name_suggests(s.signal, {"_n", "n_"})) {
            at.active_low_reset = true;
          }
        }
      }
      // Synchronous reset: clocked block whose body tests a reset-named
      // signal that is NOT in the sensitivity list.
      if (at.has_clock && !at.async_reset && ab->body) {
        std::vector<std::string> ids;
        collect_condition_idents(ab->body, ids);
        for (const auto& id : ids) {
          if (name_suggests(id, {"rst", "reset", "clear", "clr"})) {
            at.sync_reset = true;
            if (name_suggests(id, {"_n", "n_rst", "resetn"})) at.active_low_reset = true;
          }
          if (name_suggests(id, {"en", "enable", "ena", "ce"}) &&
              !name_suggests(id, {"end"})) {
            at.has_enable = true;
            if (name_suggests(id, {"_n", "en_n"})) at.active_low_enable = true;
          }
        }
      }
    }
    // Enable detection also applies to async-reset designs.
    for (const auto& item : m_.items) {
      const auto* ab = std::get_if<AlwaysBlock>(&item);
      if (ab == nullptr || !ab->body) continue;
      std::vector<std::string> ids;
      collect_condition_idents(ab->body, ids);
      for (const auto& id : ids) {
        if ((id == "en" || id == "enable" || id == "ena" || id == "ce" ||
             util::starts_with(id, "en_") || util::ends_with(id, "_en"))) {
          a_.attributes.has_enable = true;
          if (util::ends_with(id, "_n")) a_.attributes.active_low_enable = true;
        }
      }
    }
  }

  static void collect_condition_idents(const StmtPtr& s, std::vector<std::string>& out) {
    if (!s) return;
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const auto& child : s->stmts) collect_condition_idents(child, out);
        break;
      case StmtKind::kIf:
        if (s->cond) s->cond->collect_idents(out);
        collect_condition_idents(s->then_branch, out);
        collect_condition_idents(s->else_branch, out);
        break;
      case StmtKind::kCase:
        if (s->cond) s->cond->collect_idents(out);
        for (const auto& item : s->case_items) collect_condition_idents(item.body, out);
        break;
      case StmtKind::kFor:
        collect_condition_idents(s->body, out);
        break;
      default:
        break;
    }
  }

  // --- topic classification -------------------------------------------------

  // Does any statement assign `lhs <= f(lhs, +/- 1)`? (counter idiom)
  static bool is_increment_of_self(const Stmt& s) {
    if (s.kind != StmtKind::kBlockingAssign && s.kind != StmtKind::kNonblockingAssign)
      return false;
    if (s.lhs->kind != ExprKind::kIdent) return false;
    const ExprPtr& rhs = s.rhs;
    if (rhs->kind != ExprKind::kBinary || (rhs->op != "+" && rhs->op != "-")) return false;
    const auto& a = rhs->operands[0];
    return a->kind == ExprKind::kIdent && a->ident == s.lhs->ident;
  }

  // Does any statement implement a shift of self: x <= {x[..], in} or x << 1?
  static bool is_shift_of_self(const Stmt& s) {
    if (s.kind != StmtKind::kBlockingAssign && s.kind != StmtKind::kNonblockingAssign)
      return false;
    if (s.lhs->kind != ExprKind::kIdent) return false;
    const std::string& name = s.lhs->ident;
    const ExprPtr& rhs = s.rhs;
    if (rhs->kind == ExprKind::kBinary && (rhs->op == "<<" || rhs->op == ">>") &&
        rhs->operands[0]->kind == ExprKind::kIdent && rhs->operands[0]->ident == name) {
      return true;
    }
    if (rhs->kind == ExprKind::kConcat) {
      for (const auto& part : rhs->operands) {
        if ((part->kind == ExprKind::kPartSelect || part->kind == ExprKind::kBitSelect) &&
            part->ident == name) {
          return true;
        }
      }
    }
    return false;
  }

  static bool is_toggle_of_self(const Stmt& s) {
    if (s.kind != StmtKind::kBlockingAssign && s.kind != StmtKind::kNonblockingAssign)
      return false;
    if (s.lhs->kind != ExprKind::kIdent) return false;
    const ExprPtr& rhs = s.rhs;
    return rhs->kind == ExprKind::kUnary && rhs->op == "~" &&
           rhs->operands[0]->kind == ExprKind::kIdent &&
           rhs->operands[0]->ident == s.lhs->ident;
  }

  template <typename Pred>
  static bool any_stmt(const StmtPtr& s, Pred pred) {
    if (!s) return false;
    if (pred(*s)) return true;
    switch (s->kind) {
      case StmtKind::kBlock:
        return std::any_of(s->stmts.begin(), s->stmts.end(),
                           [&](const StmtPtr& c) { return any_stmt(c, pred); });
      case StmtKind::kIf:
        return any_stmt(s->then_branch, pred) || any_stmt(s->else_branch, pred);
      case StmtKind::kCase:
        return std::any_of(s->case_items.begin(), s->case_items.end(),
                           [&](const CaseItem& i) { return any_stmt(i.body, pred); });
      case StmtKind::kFor:
        return any_stmt(s->body, pred);
      default:
        return false;
    }
  }

  template <typename Pred>
  bool any_expr_in_module(Pred pred) const {
    bool found = false;
    auto scan_expr = [&](const ExprPtr& e, auto&& self) -> void {
      if (!e || found) return;
      if (pred(*e)) {
        found = true;
        return;
      }
      for (const auto& c : e->operands) self(c, self);
    };
    auto scan_stmt = [&](const StmtPtr& s, auto&& self) -> void {
      if (!s || found) return;
      scan_expr(s->lhs, scan_expr);
      scan_expr(s->rhs, scan_expr);
      scan_expr(s->cond, scan_expr);
      scan_expr(s->step_lhs, scan_expr);
      scan_expr(s->step_rhs, scan_expr);
      for (const auto& c : s->stmts) self(c, self);
      self(s->then_branch, self);
      self(s->else_branch, self);
      self(s->body, self);
      for (const auto& item : s->case_items) {
        for (const auto& l : item.labels) scan_expr(l, scan_expr);
        self(item.body, self);
      }
    };
    for (const auto& item : m_.items) {
      if (const auto* a = std::get_if<ContAssign>(&item)) {
        scan_expr(a->lhs, scan_expr);
        scan_expr(a->rhs, scan_expr);
      } else if (const auto* ab = std::get_if<AlwaysBlock>(&item)) {
        scan_stmt(ab->body, scan_stmt);
      } else if (const auto* ib = std::get_if<InitialBlock>(&item)) {
        scan_stmt(ib->body, scan_stmt);
      }
    }
    return found;
  }

  void classify_topics() {
    auto& topics = a_.topics;
    const std::string lower_name = util::to_lower(m_.name);

    bool has_state_reg = false;
    for (const auto& [name, info] : symbols_) {
      if (info.type == NetType::kReg && name_suggests(name, {"state"})) has_state_reg = true;
    }

    bool clocked = false;
    bool has_case = false;
    bool has_cont_assign = false;
    bool counter_idiom = false, shift_idiom = false, toggle_idiom = false;
    for (const auto& item : m_.items) {
      has_cont_assign = has_cont_assign || std::holds_alternative<ContAssign>(item);
      const auto* ab = std::get_if<AlwaysBlock>(&item);
      if (ab == nullptr) continue;
      const bool is_clocked = !ab->star && std::any_of(ab->sens.begin(), ab->sens.end(),
                                                       [](const SensItem& s) {
                                                         return s.edge != Edge::kLevel;
                                                       });
      clocked = clocked || is_clocked;
      has_case = has_case || any_stmt(ab->body, [](const Stmt& s) { return s.kind == StmtKind::kCase; });
      counter_idiom = counter_idiom || any_stmt(ab->body, is_increment_of_self);
      shift_idiom = shift_idiom || any_stmt(ab->body, is_shift_of_self);
      toggle_idiom = toggle_idiom || any_stmt(ab->body, is_toggle_of_self);
    }

    if (has_state_reg && has_case) topics.insert(Topic::kFsm);
    else if (name_suggests(lower_name, {"fsm", "state_machine"}) && has_case)
      topics.insert(Topic::kFsm);

    if (counter_idiom && toggle_idiom) topics.insert(Topic::kClockDivider);
    else if (counter_idiom && name_suggests(lower_name, {"div"})) topics.insert(Topic::kClockDivider);
    else if (counter_idiom) topics.insert(Topic::kCounter);
    if (shift_idiom) topics.insert(Topic::kShiftRegister);

    // ALU: case statement whose branches use >=2 distinct arithmetic/logic
    // binary ops on operands.
    if (has_case) {
      std::set<std::string> ops;
      auto count_ops = [&](const Expr& e) {
        if (e.kind == ExprKind::kBinary &&
            (e.op == "+" || e.op == "-" || e.op == "*" || e.op == "&" || e.op == "|" ||
             e.op == "^" || e.op == "<<" || e.op == ">>")) {
          ops.insert(e.op);
        }
        return false;  // keep scanning
      };
      any_expr_in_module(count_ops);
      if (ops.size() >= 3 || name_suggests(lower_name, {"alu"})) topics.insert(Topic::kAlu);
    }

    const bool has_add = any_expr_in_module([](const Expr& e) {
      return e.kind == ExprKind::kBinary && (e.op == "+" || e.op == "-");
    });
    if (!clocked && has_add) topics.insert(Topic::kAdder);

    const bool has_ternary_or_sel_case =
        any_expr_in_module([](const Expr& e) { return e.kind == ExprKind::kTernary; });
    if (!clocked && (has_ternary_or_sel_case || name_suggests(lower_name, {"mux"})) &&
        !topics.contains(Topic::kAdder)) {
      topics.insert(Topic::kMultiplexer);
    }

    if (any_expr_in_module([](const Expr& e) {
          return e.kind == ExprKind::kBinary && e.op == "<<" &&
                 e.operands[0]->kind == ExprKind::kNumber && e.operands[0]->number.value == 1;
        }) ||
        name_suggests(lower_name, {"decod", "demux"})) {
      topics.insert(Topic::kDecoder);
    }

    if (any_expr_in_module([](const Expr& e) {
          return e.kind == ExprKind::kBinary &&
                 (e.op == "<" || e.op == ">" || e.op == "<=" || e.op == ">=");
        }) &&
        !clocked) {
      topics.insert(Topic::kComparator);
    }

    if (any_expr_in_module([](const Expr& e) {
          return e.kind == ExprKind::kUnary && (e.op == "^" || e.op == "~^");
        })) {
      topics.insert(Topic::kParity);
    }

    if (topics.empty()) {
      if (clocked) {
        topics.insert(has_cont_assign ? Topic::kSequential : Topic::kRegister);
      } else {
        topics.insert(Topic::kCombinational);
      }
    }
  }

  const Module& m_;
  const SourceFile* file_;
  ModuleAnalysis a_;
  std::map<std::string, SymbolInfo> symbols_;
  std::map<std::string, std::set<int>> always_writers_;
  int num_always_ = 0;
  int current_always_ = -1;
};

}  // namespace

ModuleAnalysis analyze_module(const Module& m, const SourceFile* file) {
  return ModuleChecker(m, file).run();
}

SourceAnalysis analyze_source(std::string_view source) {
  SourceAnalysis out;
  ParseOutput parsed = parse_source(source);
  out.parse_errors = std::move(parsed.diagnostics);
  for (const auto& m : parsed.file.modules) {
    out.modules.push_back(analyze_module(m, &parsed.file));
  }
  out.file = std::move(parsed.file);
  return out;
}

bool compile_ok(std::string_view source) { return analyze_source(source).ok(); }

}  // namespace haven::verilog
