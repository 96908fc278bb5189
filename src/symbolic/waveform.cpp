#include "symbolic/waveform.h"

#include <algorithm>

#include "util/strings.h"

namespace haven::symbolic {

using logic::Tri;
using logic::TruthTable;

bool Waveform::valid() const {
  if (inputs.empty() || inputs.size() != input_samples.size()) return false;
  if (output_samples.empty()) return false;
  for (const auto& row : input_samples) {
    if (row.size() != output_samples.size()) return false;
    for (int v : row) {
      if (v != 0 && v != 1) return false;
    }
  }
  for (int v : output_samples) {
    if (v != 0 && v != 1) return false;
  }
  return true;
}

std::optional<TruthTable> Waveform::to_truth_table() const {
  if (!valid() || inputs.size() > 16) return std::nullopt;
  TruthTable tt(inputs, output);
  for (std::uint32_t a = 0; a < tt.num_rows(); ++a) tt.set_row(a, Tri::kDontCare);
  for (std::size_t t = 0; t < num_columns(); ++t) {
    std::uint32_t assignment = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (input_samples[i][t]) assignment |= (1u << i);
    }
    const Tri want = output_samples[t] ? Tri::kTrue : Tri::kFalse;
    const Tri have = tt.row(assignment);
    if (have != Tri::kDontCare && have != want) return std::nullopt;  // contradictory chart
    tt.set_row(assignment, want);
  }
  return tt;
}

Waveform waveform_from_table(const TruthTable& tt, const std::vector<std::uint32_t>& columns,
                             int time_step_ns) {
  Waveform wf;
  wf.inputs = tt.inputs();
  wf.output = tt.output();
  wf.time_step_ns = time_step_ns;
  wf.input_samples.assign(wf.inputs.size(), {});
  for (std::uint32_t a : columns) {
    for (std::size_t i = 0; i < wf.inputs.size(); ++i) {
      wf.input_samples[i].push_back(static_cast<int>((a >> i) & 1u));
    }
    wf.output_samples.push_back(tt.row(a) == Tri::kTrue ? 1 : 0);
  }
  return wf;
}

Waveform waveform_covering_table(const TruthTable& tt, util::Rng& rng, int time_step_ns) {
  std::vector<std::uint32_t> columns;
  for (std::uint32_t a = 0; a < tt.num_rows(); ++a) {
    if (tt.row(a) != Tri::kDontCare) columns.push_back(a);
  }
  rng.shuffle(columns);
  return waveform_from_table(tt, columns, time_step_ns);
}

std::string render_waveform(const Waveform& wf) {
  std::string out;
  auto emit_row = [&](const std::string& name, const std::vector<int>& vals) {
    out += name + ":";
    for (int v : vals) out += util::format(" %d", v);
    out += "\n";
  };
  for (std::size_t i = 0; i < wf.inputs.size(); ++i) emit_row(wf.inputs[i], wf.input_samples[i]);
  emit_row(wf.output, wf.output_samples);
  out += "time(ns):";
  for (std::size_t t = 0; t < wf.num_columns(); ++t) {
    out += util::format(" %zu", t * static_cast<std::size_t>(wf.time_step_ns));
  }
  out += "\n";
  return out;
}

WaveformParseResult parse_waveform(const std::string& text) {
  WaveformParseResult result;
  struct Row {
    std::string name;
    std::vector<int> values;
  };
  std::vector<Row> rows;
  bool saw_time = false;
  std::vector<int> times;

  for (const auto& raw_line : util::split_lines(text)) {
    const std::string line(util::trim(raw_line));
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name(util::trim(line.substr(0, colon)));
    const auto values = util::split_ws(line.substr(colon + 1));
    if (values.empty()) continue;
    const bool numeric = std::all_of(values.begin(), values.end(), [](const std::string& v) {
      return !v.empty() && std::all_of(v.begin(), v.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
    });
    if (!numeric) continue;
    if (util::starts_with(name, "time")) {
      saw_time = true;
      for (const auto& v : values) {
        int t = 0;
        if (!util::parse_int(v, &t)) {
          result.error = "time value out of range";
          return result;
        }
        times.push_back(t);
      }
      continue;
    }
    if (!util::is_identifier(name)) continue;
    Row row{std::move(name), {}};
    bool bits = true;
    for (const auto& v : values) {
      if (v != "0" && v != "1") {
        bits = false;
        break;
      }
      row.values.push_back(v == "1");
    }
    if (bits) rows.push_back(std::move(row));
  }

  if (rows.size() < 2) {
    result.error = "need at least one input row and one output row";
    return result;
  }
  Waveform wf;
  // Convention: the last signal row is the output.
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    wf.inputs.push_back(rows[i].name);
    wf.input_samples.push_back(rows[i].values);
  }
  wf.output = rows.back().name;
  wf.output_samples = rows.back().values;
  if (saw_time && times.size() >= 2) wf.time_step_ns = times[1] - times[0];
  if (!wf.valid()) {
    result.error = "inconsistent waveform row lengths";
    return result;
  }
  result.waveform = std::move(wf);
  return result;
}

std::string interpret_waveform(const Waveform& wf) {
  std::string out = "Variables: ";
  for (std::size_t i = 0; i < wf.inputs.size(); ++i) {
    out += util::format("%zu. %s(input); ", i + 1, wf.inputs[i].c_str());
  }
  out += util::format("%zu. %s(output)\n", wf.inputs.size() + 1, wf.output.c_str());
  out += "Rules: ";
  for (std::size_t t = 0; t < wf.num_columns(); ++t) {
    out += util::format("When time is %zuns, ", t * static_cast<std::size_t>(wf.time_step_ns));
    for (std::size_t i = 0; i < wf.inputs.size(); ++i) {
      out += util::format("%s=%d, ", wf.inputs[i].c_str(), wf.input_samples[i][t]);
    }
    out += util::format("%s=%d; ", wf.output.c_str(), wf.output_samples[t]);
  }
  out += "\n";
  return out;
}

WaveformParseResult parse_interpreted_waveform(const std::string& text) {
  WaveformParseResult result;
  // Reuse the truth-table "Variables:" extraction, then scan "When time is".
  std::vector<std::string> inputs;
  std::string output;
  const std::size_t vars_kw = text.find("Variables:");
  if (vars_kw == std::string::npos) {
    result.error = "no Variables line";
    return result;
  }
  const std::size_t vars_end = text.find('\n', vars_kw);
  const std::string vars_line =
      text.substr(vars_kw, (vars_end == std::string::npos ? text.size() : vars_end) - vars_kw);
  for (const std::string& entry : util::split(vars_line, ';')) {
    const std::size_t lp = entry.find('(');
    const std::size_t rp = entry.find(')', lp);
    if (lp == std::string::npos || rp == std::string::npos) continue;
    const auto words = util::split_ws(entry.substr(0, lp));
    if (words.empty()) continue;
    std::string name = words.back();
    const std::size_t dot = name.rfind('.');
    if (dot != std::string::npos) name = name.substr(dot + 1);
    const std::string role = entry.substr(lp + 1, rp - lp - 1);
    if (role == "input") inputs.push_back(name);
    else if (role == "output") output = name;
  }
  if (inputs.empty() || output.empty()) {
    result.error = "could not extract variables";
    return result;
  }

  Waveform wf;
  wf.inputs = inputs;
  wf.output = output;
  wf.input_samples.assign(inputs.size(), {});

  std::size_t pos = 0;
  int first_time = -1, second_time = -1;
  while (true) {
    const std::size_t when = text.find("When time is", pos);
    if (when == std::string::npos) break;
    std::size_t end = text.find("When time is", when + 1);
    if (end == std::string::npos) end = text.size();
    const std::string clause = text.substr(when, end - when);
    // Extract the time value.
    const std::size_t is_kw = clause.find("is");
    int t_ns = 0;
    if (is_kw != std::string::npos) {
      std::size_t p = is_kw + 2;
      while (p < clause.size() && clause[p] == ' ') ++p;
      std::string digits;
      while (p < clause.size() && std::isdigit(static_cast<unsigned char>(clause[p]))) {
        digits += clause[p++];
      }
      if (!digits.empty() && !util::parse_int(digits, &t_ns)) {
        result.error = "time value out of range";
        return result;
      }
    }
    if (first_time < 0) first_time = t_ns;
    else if (second_time < 0) second_time = t_ns;
    // Bindings name=value.
    std::vector<int> in_vals(inputs.size(), -1);
    int out_val = -1;
    std::size_t bp = 0;
    while (true) {
      const std::size_t eq = clause.find('=', bp);
      if (eq == std::string::npos) break;
      // Name: identifier characters immediately before '='.
      std::size_t ns = eq;
      while (ns > 0 && (std::isalnum(static_cast<unsigned char>(clause[ns - 1])) ||
                        clause[ns - 1] == '_')) {
        --ns;
      }
      const std::string name = clause.substr(ns, eq - ns);
      std::size_t vp = eq + 1;
      while (vp < clause.size() && clause[vp] == ' ') ++vp;
      const char vc = vp < clause.size() ? clause[vp] : '?';
      if (vc == '0' || vc == '1') {
        const int v = vc - '0';
        const auto it = std::find(inputs.begin(), inputs.end(), name);
        if (it != inputs.end()) in_vals[static_cast<std::size_t>(it - inputs.begin())] = v;
        else if (name == output) out_val = v;
      }
      bp = eq + 1;
    }
    const bool complete = out_val >= 0 && std::all_of(in_vals.begin(), in_vals.end(),
                                                      [](int v) { return v >= 0; });
    if (complete) {
      for (std::size_t i = 0; i < inputs.size(); ++i) wf.input_samples[i].push_back(in_vals[i]);
      wf.output_samples.push_back(out_val);
    }
    pos = end;
  }
  if (second_time > first_time && first_time >= 0) wf.time_step_ns = second_time - first_time;
  if (!wf.valid()) {
    result.error = "no complete observations parsed";
    return result;
  }
  result.waveform = std::move(wf);
  return result;
}

}  // namespace haven::symbolic
