#include "llm/spec_parser.h"

#include <algorithm>
#include <cctype>

#include "logic/expr_parser.h"
#include "symbolic/state_diagram.h"
#include "symbolic/truth_table_text.h"
#include "symbolic/waveform.h"
#include "util/strings.h"
#include "verilog/parser.h"

namespace haven::llm {

namespace {

using util::icontains;

// A digit run as an int; -1 (absent) when it does not fit one, so an absurd
// number in a prompt never throws.
int digits_value(const std::string& digits) {
  int n = -1;
  util::parse_int(digits, &n);
  return n;
}

// First occurrence of "<digits><suffix>" (e.g. "4-bit"); -1 if absent.
int find_number_before(const std::string& text, const std::string& suffix) {
  std::size_t pos = 0;
  while ((pos = text.find(suffix, pos)) != std::string::npos) {
    std::size_t start = pos;
    while (start > 0 && std::isdigit(static_cast<unsigned char>(text[start - 1]))) --start;
    if (start < pos) return digits_value(text.substr(start, pos - start));
    ++pos;
  }
  return -1;
}

// First integer after a marker phrase ("modulo-", "by "); -1 if absent.
int find_number_after(const std::string& text, const std::string& marker) {
  const std::size_t pos = text.find(marker);
  if (pos == std::string::npos) return -1;
  std::size_t p = pos + marker.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == '\'')) ++p;
  std::string digits;
  while (p < text.size() && std::isdigit(static_cast<unsigned char>(text[p]))) digits += text[p++];
  return digits_value(digits);
}

SeqAttributes parse_seq_attributes(const std::string& lower) {
  SeqAttributes seq;
  const bool mentions_reset = lower.find("reset") != std::string::npos ||
                              lower.find("'rst") != std::string::npos;
  if (mentions_reset) {
    seq.reset = lower.find("asynchronous") != std::string::npos ? ResetKind::kAsync
                                                                : ResetKind::kSync;
    // Polarity: the active-low/high qualifier nearest to "reset".
    const std::size_t reset_pos = lower.find("reset");
    const std::size_t low_pos = lower.find("active-low");
    if (low_pos != std::string::npos && reset_pos != std::string::npos &&
        low_pos < reset_pos + 20 && (reset_pos < 20 || low_pos + 30 > reset_pos)) {
      // active-low mentioned before "reset" within a window
      if (reset_pos > low_pos && reset_pos - low_pos < 24) seq.reset_active_low = true;
    }
    if (lower.find("rst_n") != std::string::npos) seq.reset_active_low = true;
  } else {
    seq.reset = ResetKind::kNone;
  }
  if (lower.find("enable") != std::string::npos || lower.find("'en'") != std::string::npos ||
      lower.find("'en_n'") != std::string::npos) {
    const std::size_t en_pos = lower.find("enable");
    const std::size_t low_pos = lower.rfind("active-low", en_pos);
    seq.enable = EnableKind::kActiveHigh;
    if (low_pos != std::string::npos && en_pos != std::string::npos && en_pos > low_pos &&
        en_pos - low_pos < 24) {
      seq.enable = EnableKind::kActiveLow;
    }
    if (lower.find("en_n") != std::string::npos) seq.enable = EnableKind::kActiveLow;
  }
  if (lower.find("negative edge") != std::string::npos ||
      lower.find("negedge") != std::string::npos) {
    seq.negedge_clock = true;
  }
  return seq;
}

// English boolean text -> logic expression, e.g. "(a AND b) OR (NOT c)".
logic::ExprPtr parse_english_expr(std::string text) {
  text = util::replace_all(text, " XNOR ", " ~^ ");
  text = util::replace_all(text, " NAND ", " ~& ");
  text = util::replace_all(text, " NOR ", " ~| ");
  text = util::replace_all(text, " XOR ", " ^ ");
  text = util::replace_all(text, " AND ", " & ");
  text = util::replace_all(text, " OR ", " | ");
  text = util::replace_all(text, "NOT ", " ~ ");
  const auto parsed = logic::parse_expr(text);
  return parsed.expr;
}

// Parse the KarnaughMap::render output:
//        cd=00 cd=01 cd=11 cd=10
//  ab=00   0     1     1     0
// Variables are single letters (row label prefix "ab" = vars a,b; row label
// bit j belongs to table bit j; columns likewise at offset |rows|).
std::optional<logic::TruthTable> parse_kmap_text(const std::string& text,
                                                 const std::string& output_name) {
  std::vector<std::string> col_labels;
  std::string row_vars, col_vars;
  struct Row {
    std::string label;
    std::vector<char> cells;
  };
  std::vector<Row> rows;

  for (const auto& raw_line : util::split_lines(text)) {
    const auto fields = util::split_ws(raw_line);
    if (fields.empty()) continue;
    // Header line: every field is "vars=bits".
    const bool all_labeled = std::all_of(fields.begin(), fields.end(), [](const std::string& f) {
      return f.find('=') != std::string::npos;
    });
    if (all_labeled && col_labels.empty() && fields.size() >= 2) {
      for (const auto& f : fields) {
        const std::size_t eq = f.find('=');
        if (col_vars.empty()) col_vars = f.substr(0, eq);
        col_labels.push_back(f.substr(eq + 1));
      }
      continue;
    }
    // Row line: "ab=00" followed by cell values.
    if (!fields.empty() && fields[0].find('=') != std::string::npos) {
      const std::size_t eq = fields[0].find('=');
      if (row_vars.empty()) row_vars = fields[0].substr(0, eq);
      Row row;
      row.label = fields[0].substr(eq + 1);
      for (std::size_t i = 1; i < fields.size(); ++i) {
        if (fields[i] == "0" || fields[i] == "1" || fields[i] == "x") {
          row.cells.push_back(fields[i][0]);
        }
      }
      if (!row.cells.empty()) rows.push_back(std::move(row));
    }
  }

  if (col_labels.empty() || rows.empty() || row_vars.empty() || col_vars.empty()) {
    return std::nullopt;
  }
  std::vector<std::string> inputs;
  for (char c : row_vars) inputs.emplace_back(1, c);
  for (char c : col_vars) inputs.emplace_back(1, c);

  logic::TruthTable tt(inputs, output_name);
  const std::size_t row_bits = row_vars.size();
  for (const auto& row : rows) {
    if (row.cells.size() != col_labels.size()) return std::nullopt;
    for (std::size_t c = 0; c < col_labels.size(); ++c) {
      std::uint32_t assignment = 0;
      for (std::size_t j = 0; j < row.label.size(); ++j) {
        if (row.label[j] == '1') assignment |= (1u << j);
      }
      for (std::size_t j = 0; j < col_labels[c].size(); ++j) {
        if (col_labels[c][j] == '1') assignment |= (1u << (row_bits + j));
      }
      const char v = row.cells[c];
      tt.set_row(assignment, v == '1' ? logic::Tri::kTrue
                                      : (v == '0' ? logic::Tri::kFalse : logic::Tri::kDontCare));
    }
  }
  return tt;
}

// Vanilla FSM prose: "If the current state is A and x is 0, then the next
// state is B and out is 0."
std::optional<symbolic::StateDiagram> parse_fsm_prose(const std::string& text) {
  symbolic::StateDiagram sd;
  sd.input_name.clear();
  sd.output_name.clear();

  auto intern = [&](const std::string& name) {
    int idx = sd.state_index(name);
    if (idx < 0) {
      idx = static_cast<int>(sd.states.size());
      sd.states.push_back(name);
      sd.outputs.push_back(0);
      sd.next_state.push_back({-1, -1});
    }
    return idx;
  };

  std::size_t pos = 0;
  int sentences = 0;
  while (true) {
    const std::size_t cur = text.find("current state is ", pos);
    if (cur == std::string::npos) break;
    std::size_t p = cur + 17;
    auto read_word = [&]() {
      while (p < text.size() && text[p] == ' ') ++p;
      std::string w;
      while (p < text.size() && (std::isalnum(static_cast<unsigned char>(text[p])) ||
                                 text[p] == '_')) {
        w += text[p++];
      }
      return w;
    };
    const std::string from = read_word();
    const std::size_t and_kw = text.find(" and ", p);
    if (and_kw == std::string::npos) break;
    p = and_kw + 5;
    const std::string input_name = read_word();
    const std::size_t is_kw = text.find(" is ", p - 1);
    if (is_kw == std::string::npos) break;
    p = is_kw + 4;
    const std::string in_val = read_word();
    const std::size_t next_kw = text.find("next state is ", p);
    if (next_kw == std::string::npos) break;
    p = next_kw + 14;
    const std::string to = read_word();
    const std::size_t and2 = text.find(" and ", p);
    std::string out_name, out_val;
    if (and2 != std::string::npos) {
      p = and2 + 5;
      out_name = read_word();
      const std::size_t is2 = text.find(" is ", p - 1);
      if (is2 != std::string::npos) {
        p = is2 + 4;
        out_val = read_word();
      }
    }
    if (from.empty() || to.empty() || (in_val != "0" && in_val != "1")) {
      pos = cur + 17;
      continue;
    }
    const int fi = intern(from);
    const int ti = intern(to);
    if (sd.input_name.empty()) sd.input_name = input_name;
    sd.next_state[static_cast<std::size_t>(fi)][static_cast<std::size_t>(in_val == "1")] = ti;
    if (!out_name.empty() && (out_val == "0" || out_val == "1")) {
      if (sd.output_name.empty()) sd.output_name = out_name;
      sd.outputs[static_cast<std::size_t>(fi)] = out_val == "1";
    }
    ++sentences;
    pos = p;
  }
  if (sentences < 2) return std::nullopt;

  // Reset/initial state.
  for (const char* marker : {"initial state is ", "reset state is ", "Reset state is "}) {
    const std::size_t kw = text.find(marker);
    if (kw == std::string::npos) continue;
    std::size_t p = kw + std::char_traits<char>::length(marker);
    std::string name;
    while (p < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[p])) || text[p] == '_')) {
      name += text[p++];
    }
    const int idx = sd.state_index(name);
    if (idx >= 0) sd.reset_state = idx;
  }
  if (sd.output_name.empty()) sd.output_name = "out";
  if (sd.input_name.empty()) sd.input_name = "x";
  return sd.valid() ? std::optional<symbolic::StateDiagram>(sd) : std::nullopt;
}

}  // namespace

std::optional<std::string> extract_header_line(const std::string& prompt) {
  for (const auto& raw_line : util::split_lines(prompt)) {
    const std::string line(util::trim(raw_line));
    if (util::starts_with(line, "module ") && line.find(';') != std::string::npos) {
      return line;
    }
  }
  return std::nullopt;
}

ParsedInstruction parse_instruction(const std::string& prompt) {
  ParsedInstruction result;

  // Strip chat framing.
  std::string text = prompt;
  const std::size_t q = text.find("Question:");
  if (q != std::string::npos) {
    std::size_t a = text.find("Answer:");
    if (a == std::string::npos) a = text.size();
    text = text.substr(q + 9, a - q - 9);
  }
  const std::string lower = util::to_lower(text);

  TaskSpec spec;

  // Header (interface + module name).
  std::optional<verilog::Module> header_module;
  const auto header = extract_header_line(text);
  if (header) {
    result.had_header = true;
    verilog::ParseOutput parsed = verilog::parse_source(*header + " endmodule");
    if (parsed.ok() && !parsed.file.modules.empty()) {
      header_module = parsed.file.modules.front();
      spec.module_name = header_module->name;
    }
  }

  // "The module inputs are a, b, c and the output is 'out'." — the prose
  // interface declaration used by headerless combinational prompts.
  auto apply_prose_interface = [&](TaskSpec& s) {
    const std::size_t kw = text.find("module inputs are ");
    if (kw == std::string::npos) return;
    std::size_t end = text.find(" and the output", kw);
    if (end == std::string::npos) end = text.find('\n', kw);
    if (end == std::string::npos) end = text.size();
    std::vector<std::string> ins;
    for (const std::string& part : util::split(text.substr(kw + 18, end - kw - 18), ',')) {
      const std::string name(util::trim(part));
      if (util::is_identifier(name)) ins.push_back(name);
    }
    if (!ins.empty()) s.comb_inputs = ins;
    const std::size_t op = text.find("output is '", kw);
    if (op != std::string::npos) {
      std::size_t p = op + 11;
      std::string n;
      while (p < text.size() && text[p] != '\'') n += text[p++];
      if (util::is_identifier(n)) s.comb_output = n;
    }
  };

  // A declared interface is authoritative for combinational tasks: the
  // expression may not mention every input, but the ports must match.
  auto apply_header_interface = [&](TaskSpec& s) {
    if (s.kind == TaskKind::kCombExpr && !header_module) apply_prose_interface(s);
    if (!header_module || s.kind != TaskKind::kCombExpr) return;
    std::vector<std::string> ins;
    std::string out_name;
    for (const auto& p : header_module->ports) {
      if (p.width() != 1) return;  // not a 1-bit comb interface; keep parsed
      if (p.dir == verilog::Dir::kInput) ins.push_back(p.name);
      else if (p.dir == verilog::Dir::kOutput && out_name.empty()) out_name = p.name;
    }
    if (!ins.empty()) s.comb_inputs = ins;
    if (!out_name.empty()) s.comb_output = out_name;
  };

  result.raw_modality = symbolic::detect_modality(text);
  result.was_interpreted = symbolic::is_interpreted(text);

  // --- FSM ------------------------------------------------------------------
  const bool fsm_hint = lower.find("state machine") != std::string::npos ||
                        lower.find("state diagram") != std::string::npos ||
                        lower.find("state transition:") != std::string::npos ||
                        result.raw_modality == symbolic::Modality::kStateDiagram;
  if (fsm_hint) {
    spec.kind = TaskKind::kFsm;
    std::optional<symbolic::StateDiagram> sd;
    if (result.raw_modality == symbolic::Modality::kStateDiagram) {
      // Collect only transition lines for the notation parser.
      std::string block;
      for (const auto& line : util::split_lines(text)) {
        if (line.find("->") != std::string::npos && line.find('[') != std::string::npos) {
          block += line + "\n";
        }
      }
      auto parsed = symbolic::parse_state_diagram(block);
      if (parsed.diagram) sd = std::move(parsed.diagram);
      else result.error = parsed.error;
    } else if (result.was_interpreted) {
      auto parsed = symbolic::parse_interpreted_state_diagram(text);
      if (parsed.diagram) sd = std::move(parsed.diagram);
      else result.error = parsed.error;
    } else {
      sd = parse_fsm_prose(text);
      if (!sd) result.error = "could not parse FSM prose";
    }
    if (!sd) {
      if (result.error.empty()) result.error = "could not parse state diagram";
      return result;
    }
    // Reset state sentence overrides (notation path does not carry it).
    for (const char* marker : {"reset state is ", "initial state is "}) {
      const std::size_t kw = lower.find(marker);
      if (kw == std::string::npos) continue;
      std::size_t p = kw + std::char_traits<char>::length(marker);
      std::string name;
      while (p < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[p])) || text[p] == '_')) {
        name += text[p++];
      }
      const int idx = sd->state_index(name);
      if (idx >= 0) sd->reset_state = idx;
    }
    spec.diagram = std::move(*sd);
    spec.seq = parse_seq_attributes(lower);
    if (spec.seq.reset == ResetKind::kNone) spec.seq.reset = ResetKind::kSync;
    result.spec = std::move(spec);
    return result;
  }

  // --- parametric prose kinds -------------------------------------------------
  auto finish_parametric = [&](TaskKind kind) {
    spec.kind = kind;
    const int w = find_number_before(lower, "-bit");
    if (w > 0 && w <= 64) spec.width = w;
    spec.seq = parse_seq_attributes(lower);
    if (spec.sequential() && spec.seq.reset == ResetKind::kNone) {
      // Benchmarks always give sequential designs a reset; default sync.
      spec.seq.reset = ResetKind::kSync;
    }
    result.spec = std::move(spec);
  };

  if (lower.find("clock divider") != std::string::npos ||
      lower.find("divides 'clk'") != std::string::npos) {
    const int n = find_number_after(lower, "by ");
    if (n > 0) spec.divide_by = n;
    finish_parametric(TaskKind::kClockDivider);
    return result;
  }
  if (lower.find("counter") != std::string::npos) {
    spec.count_down = lower.find(" down counter") != std::string::npos;
    const int m = find_number_after(lower, "modulo-");
    if (m > 0) spec.modulus = m;
    finish_parametric(TaskKind::kCounter);
    return result;
  }
  if (lower.find("shift register") != std::string::npos) {
    spec.shift_left = lower.find("shifting right") == std::string::npos;
    finish_parametric(TaskKind::kShiftRegister);
    return result;
  }
  if (lower.find("d register") != std::string::npos ||
      lower.find("'q' follows input 'd'") != std::string::npos) {
    finish_parametric(TaskKind::kRegister);
    return result;
  }
  if (lower.find("alu") != std::string::npos) {
    finish_parametric(TaskKind::kAlu);
    return result;
  }
  if (lower.find("adder") != std::string::npos) {
    finish_parametric(TaskKind::kAdder);
    return result;
  }
  if (lower.find("multiplexer") != std::string::npos ||
      lower.find("mux") != std::string::npos) {
    const int n = find_number_before(lower, "-to-1");
    if (n == 2 || n == 4) spec.mux_inputs = n;
    // width: "N-bit data"
    finish_parametric(TaskKind::kMux);
    return result;
  }
  if (lower.find("decoder") != std::string::npos) {
    const int n = find_number_before(lower, "-to-");
    if (n >= 1 && n <= 4) spec.sel_width = n;
    finish_parametric(TaskKind::kDecoder);
    return result;
  }
  if (lower.find("comparator") != std::string::npos) {
    finish_parametric(TaskKind::kComparator);
    return result;
  }
  if (lower.find("parity") != std::string::npos) {
    finish_parametric(TaskKind::kParity);
    return result;
  }
  if (lower.find("edge detector") != std::string::npos ||
      lower.find("-edge detector") != std::string::npos) {
    spec.detect_falling = lower.find("falling") != std::string::npos;
    finish_parametric(TaskKind::kEdgeDetector);
    return result;
  }

  // --- combinational ------------------------------------------------------------
  spec.kind = TaskKind::kCombExpr;
  spec.want_minimal = lower.find("most concise") != std::string::npos;

  std::optional<logic::TruthTable> tt;
  if (lower.find("karnaugh") != std::string::npos) {
    std::string out_name = "out";
    const std::size_t op = text.find("Output is '");
    if (op != std::string::npos) {
      std::size_t p = op + 11;
      std::string n;
      while (p < text.size() && text[p] != '\'') n += text[p++];
      if (!n.empty()) out_name = n;
    }
    tt = parse_kmap_text(text, out_name);
    if (!tt) {
      result.error = "could not parse Karnaugh map";
      return result;
    }
  } else if (result.raw_modality == symbolic::Modality::kTruthTable) {
    auto parsed = symbolic::parse_truth_table(text);
    if (!parsed.table) {
      result.error = parsed.error;
      return result;
    }
    tt = std::move(parsed.table);
  } else if (result.raw_modality == symbolic::Modality::kWaveform) {
    auto parsed = symbolic::parse_waveform(text);
    if (!parsed.waveform) {
      result.error = parsed.error;
      return result;
    }
    tt = parsed.waveform->to_truth_table();
    if (!tt) {
      result.error = "contradictory waveform";
      return result;
    }
  } else if (result.was_interpreted) {
    // Interpreted truth table and waveform share the Variables/Rules format;
    // the waveform one mentions time.
    if (text.find("When time is") != std::string::npos) {
      auto parsed = symbolic::parse_interpreted_waveform(text);
      if (parsed.waveform) tt = parsed.waveform->to_truth_table();
    } else {
      auto parsed = symbolic::parse_interpreted_truth_table(text);
      if (parsed.table) tt = std::move(parsed.table);
    }
    if (!tt) {
      result.error = "could not parse interpreted rules";
      return result;
    }
  }

  if (tt) {
    spec.comb_inputs = tt->inputs();
    spec.comb_output = tt->output();
    spec.expr = tt->to_sum_of_minterms();
    spec.presentation = CombPresentation::kTruthTable;
    apply_header_interface(spec);
    result.spec = std::move(spec);
    return result;
  }

  // Expression text: "<out> = <expr>" after "logic:".
  const std::size_t logic_kw = text.find("logic: ");
  if (logic_kw != std::string::npos) {
    const std::size_t eq = text.find('=', logic_kw);
    if (eq != std::string::npos) {
      const std::string out_name(
          util::trim(text.substr(logic_kw + 7, eq - logic_kw - 7)));
      std::size_t end = text.find('\n', eq);
      if (end == std::string::npos) end = text.size();
      const auto parsed = logic::parse_expr(text.substr(eq + 1, end - eq - 1));
      if (parsed.expr && util::is_identifier(out_name)) {
        spec.comb_output = out_name;
        spec.expr = parsed.expr;
        spec.comb_inputs = parsed.expr->collect_vars();
        std::sort(spec.comb_inputs.begin(), spec.comb_inputs.end());
        spec.presentation = CombPresentation::kExpressionText;
        apply_header_interface(spec);
        result.spec = std::move(spec);
        return result;
      }
    }
  }

  // English: "output 'out' equals <ENGLISH>."
  const std::size_t equals_kw = text.find("equals ");
  if (equals_kw != std::string::npos) {
    std::string out_name = "out";
    const std::size_t op = text.rfind("output '", equals_kw);
    if (op != std::string::npos) {
      std::size_t p = op + 8;
      std::string n;
      while (p < text.size() && text[p] != '\'') n += text[p++];
      if (!n.empty()) out_name = n;
    }
    std::size_t end = text.find_first_of(".\n", equals_kw);
    if (end == std::string::npos) end = text.size();
    const auto expr = parse_english_expr(text.substr(equals_kw + 7, end - equals_kw - 7));
    if (expr) {
      spec.comb_output = out_name;
      spec.expr = expr;
      spec.comb_inputs = expr->collect_vars();
      std::sort(spec.comb_inputs.begin(), spec.comb_inputs.end());
      spec.presentation = CombPresentation::kEnglishText;
      apply_header_interface(spec);
      result.spec = std::move(spec);
      return result;
    }
  }

  result.error = "could not understand the instruction";
  return result;
}

}  // namespace haven::llm
