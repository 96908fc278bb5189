#include "llm/simllm.h"

#include <algorithm>

#include "llm/codegen.h"
#include "llm/instruction.h"
#include "logic/truth_table.h"
#include "util/fault.h"
#include "util/strings.h"
#include "verilog/parser.h"
#include "verilog/pretty.h"

namespace haven::llm {

namespace {

// Fraction of each axis probability that is systematic (per model+prompt)
// rather than per-sample stochastic.
constexpr double kSystematicShare = 0.65;

double temperature_multiplier(double t) { return 0.55 + 0.75 * t; }
double difficulty_multiplier(double d) { return std::min(0.7 + 1.1 * d, 1.5); }

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool looks_vanilla(const std::string& prompt) {
  return prompt.find("part of a larger design") != std::string::npos ||
         prompt.find("current state is") != std::string::npos;
}

}  // namespace

PreparedPrompt prepare_prompt(std::string text) {
  PreparedPrompt prompt;
  prompt.parsed = parse_instruction(text);
  prompt.text = std::move(text);
  if (prompt.parsed.ok()) {
    prompt.task_key = prompt.parsed.spec->fingerprint();
    prompt.difficulty = prompt.parsed.spec->difficulty();
  }
  return prompt;
}

SimLlm::SimLlm(std::string name, HallucinationProfile profile, std::string family)
    : name_(std::move(name)),
      family_(family.empty() ? name_ : std::move(family)),
      profile_(profile) {}

std::uint64_t SimLlm::prompt_hash(const std::string& prompt) const {
  return fnv1a(prompt, fnv1a(name_));
}

bool SimLlm::draw_axis(HalluAxis axis, std::uint64_t key, double difficulty,
                       double temperature, util::Rng& rng, double scale) const {
  // Chaos override: an installed FaultInjector with the axis's site armed
  // ("hallu.<axis>") replaces the stochastic draw with its deterministic,
  // context-keyed coin — the lint-correlation tests arm one axis at p=1 to
  // force that hallucination class. Consumes nothing from `rng`, and unarmed
  // sites (probability 0) fall through, so ordinary chaos runs and all
  // profile-driven draws are untouched.
  if (const util::FaultInjector* injector = util::FaultInjector::current()) {
    const std::string site = hallu_site_name(axis);
    if (injector->probability(site) > 0) return injector->should_fail(site);
  }
  const double p = profile_axis(profile_, axis) * scale;
  if (p <= 0) return false;
  const double dm = difficulty_multiplier(difficulty);
  // Total firing probability is target = p * dm (clamped); the systematic
  // share of it is a per-(family, task, axis) coin, the rest is drawn per
  // sample (scaled by temperature). At target = 1 the axis always fires.
  const double target = std::clamp(p * dm, 0.0, 1.0);
  const double p_sys = target * kSystematicShare;
  // Keyed on (family, task, axis) but NOT on the probability: a lower p
  // (fine-tuned model, interpreted prompt) fires on a strict subset of the
  // tasks a higher p fires on — intervention effects are paired per task.
  util::Rng sys_rng(fnv1a(family_, key) ^
                    (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                static_cast<int>(axis) + 1)));
  if (sys_rng.chance(p_sys)) return true;
  const double p_sto = std::clamp(
      (target - p_sys) / (1.0 - p_sys) * temperature_multiplier(temperature), 0.0, 1.0);
  return rng.chance(p_sto);
}

bool SimLlm::draw_axis(HalluAxis axis, const std::string& prompt, double difficulty,
                       double temperature, util::Rng& rng, double scale) const {
  return draw_axis(axis, prompt_hash(prompt), difficulty, temperature, rng, scale);
}

std::string SimLlm::fallback_module(const ParsedInstruction& parsed, const std::string& prompt,
                                    util::Rng& rng) const {
  // The model "did not understand" — it still emits syntactically plausible
  // Verilog: the declared interface (if any) with outputs tied low, or a
  // guessed generic module otherwise.
  const auto header = extract_header_line(prompt);
  if (parsed.had_header && header) {
    verilog::ParseOutput out = verilog::parse_source(*header + " endmodule");
    if (out.ok() && !out.file.modules.empty()) {
      verilog::Module m = out.file.modules.front();
      for (const auto& port : m.ports) {
        if (port.dir != verilog::Dir::kOutput) continue;
        verilog::ContAssign ca;
        ca.lhs = verilog::Expr::make_ident(port.name);
        ca.rhs = verilog::Expr::make_number(0, std::max(port.width(), 1), true);
        m.items.emplace_back(std::move(ca));
      }
      return verilog::print_module(m);
    }
  }
  // No header: guess a trivial interface (almost surely a mismatch).
  const char* guesses[] = {
      "module top_module(input a, input b, output out);\n  assign out = a & b;\nendmodule\n",
      "module top_module(input clk, input rst, output reg q);\n  always @(posedge clk)\n"
      "    if (rst) q <= 1'b0;\n    else q <= ~q;\nendmodule\n",
      "module top_module(input x, output y);\n  assign y = x;\nendmodule\n",
  };
  return guesses[rng.uniform_int(0, 2)];
}

std::string SimLlm::generate(const PreparedPrompt& prompt, const GenerationConfig& config,
                             util::Rng& rng) const {
  return generate_impl(prompt, config, nullptr, rng);
}

std::string SimLlm::generate(const std::string& prompt, const GenerationConfig& config,
                             util::Rng& rng) const {
  return generate(prepare_prompt(prompt), config, rng);
}

std::string SimLlm::generate_with_hints(const PreparedPrompt& prompt,
                                        const GenerationConfig& config,
                                        const AxisDamping& damping, util::Rng& rng) const {
  return generate_impl(prompt, config, &damping, rng);
}

std::string SimLlm::generate_with_hints(const std::string& prompt,
                                        const GenerationConfig& config,
                                        const AxisDamping& damping, util::Rng& rng) const {
  return generate_with_hints(prepare_prompt(prompt), config, damping, rng);
}

std::string SimLlm::generate_impl(const PreparedPrompt& prepared,
                                  const GenerationConfig& config, const AxisDamping* damping,
                                  util::Rng& rng) const {
  // Chaos hook: a real inference backend fails here (timeout, OOM, truncated
  // response); the injected stand-in lets the eval harness prove it survives.
  util::maybe_inject(util::kSiteLlmGenerate);
  const double t = config.temperature;

  const std::string& prompt = prepared.text;
  const ParsedInstruction& parsed = prepared.parsed;
  if (!parsed.ok()) return fallback_module(parsed, prompt, rng);

  TaskSpec spec = *parsed.spec;
  const double difficulty = prepared.difficulty;
  // Systematic draws key on the task semantics, not the prompt spelling:
  // SI-CoT re-phrasing changes the axis *probabilities*, not the coin.
  const std::uint64_t task_key = prepared.task_key;

  // Repair damping multiplies into each axis's scale. With no damping (or
  // the identity) the multiplication is exact (scale * 1.0 == scale), so the
  // undamped path is bit-identical to the historical generate().
  auto fired = [&](HalluAxis axis, double scale = 1.0) {
    if (damping != nullptr) scale *= damping->of(axis);
    return draw_axis(axis, task_key, difficulty, t, rng, scale);
  };

  // General comprehension failure: emits a stub.
  if (fired(HalluAxis::kComprehension)) return fallback_module(parsed, prompt, rng);

  // Misalignment with engineer phrasing (Table I): vanilla-style prompts are
  // the training distribution of vanilla-tuned models, engineer-style prompts
  // are where the gap shows. On tasks whose payload is symbolic (raw or
  // interpreted) the symbolic axes already model the format misread, so
  // misalignment draws at a reduced rate to avoid double counting.
  const bool symbolic_payload =
      parsed.raw_modality != symbolic::Modality::kNone || parsed.was_interpreted ||
      prompt.find("Karnaugh") != std::string::npos;
  double misalignment_scale = looks_vanilla(prompt) ? 0.25 : 1.0;
  if (symbolic_payload) misalignment_scale *= 0.3;
  if (fired(HalluAxis::kMisalignment, misalignment_scale)) {
    spec = corrupt_alignment(spec, parsed.had_header, rng);
  }

  // Symbolic hallucination. Raw payloads draw the full axis; SI-CoT
  // interpreted payloads draw a *reduced* residual (the Table III rule lists
  // are plain language but still long and misreadable — the paper's Table V
  // shows waveforms remain hardest even for HaVen). The reduction factors
  // encode how much each modality benefits from interpretation.
  {
    const bool interp = parsed.was_interpreted;
    // Consuming the interpreted rule lists correctly is itself an alignment
    // skill: models fine-tuned on HDL-aligned pairs (low misalignment) get
    // more out of SI-CoT than commercial models do (Table V vs Table VI).
    const double align = std::clamp(0.3 + 2.2 * profile_.misalignment, 0.45, 1.1);
    const double tt_scale = interp ? 0.5 * align : 1.0;
    const double wf_scale = interp ? std::max(0.85 * align, 0.55) : 1.0;
    const double sd_scale = interp ? 0.45 * align : 1.0;
    auto corrupt_comb_table = [&]() {
      logic::TruthTable tt =
          logic::TruthTable::from_expr(*spec.expr, spec.comb_inputs, spec.comb_output);
      spec.expr = corrupt_truth_table(tt, rng).to_sum_of_minterms();
    };
    if (spec.kind == TaskKind::kCombExpr &&
        (parsed.raw_modality == symbolic::Modality::kTruthTable ||
         (interp && spec.presentation == CombPresentation::kTruthTable &&
          prompt.find("When time is") == std::string::npos)) &&
        fired(HalluAxis::kSymTruthTable, tt_scale)) {
      corrupt_comb_table();
    } else if (spec.kind == TaskKind::kCombExpr &&
               (parsed.raw_modality == symbolic::Modality::kWaveform ||
                (interp && prompt.find("When time is") != std::string::npos)) &&
               fired(HalluAxis::kSymWaveform, wf_scale)) {
      corrupt_comb_table();
    } else if (spec.kind == TaskKind::kFsm &&
               (parsed.raw_modality == symbolic::Modality::kStateDiagram || interp) &&
               fired(HalluAxis::kSymStateDiagram, sd_scale)) {
      spec.diagram = corrupt_state_diagram(spec.diagram, rng);
    } else if (spec.kind == TaskKind::kCombExpr && !interp &&
               parsed.raw_modality == symbolic::Modality::kNone &&
               spec.presentation == CombPresentation::kTruthTable &&
               prompt.find("Karnaugh") != std::string::npos &&
               fired(HalluAxis::kSymTruthTable)) {
      // Karnaugh maps draw the truth-table axis (no separate lexical marker).
      corrupt_comb_table();
    }
  }

  // Verilog-specific attribute misunderstanding. The declared pin names stay
  // (the header fixes the interface); the *logic* tests the wrong level,
  // edge, or reset mechanism.
  if (spec.sequential() && fired(HalluAxis::kKnowAttribute)) {
    const std::string reset_name = spec.seq.reset_name();
    const std::string enable_name = spec.seq.enable_name();
    spec.seq = corrupt_attributes(spec.seq, rng);
    spec.seq.reset_port = reset_name;
    spec.seq.enable_port = enable_name;
  }

  // Logical hallucination on the function itself.
  if (spec.kind == TaskKind::kCombExpr && spec.expr) {
    const bool prose_logic = spec.presentation == CombPresentation::kEnglishText;
    if (prose_logic) {
      if (fired(HalluAxis::kLogicInstruction)) spec.expr = corrupt_expr(spec.expr, rng);
    } else if (spec.presentation == CombPresentation::kExpressionText ||
               spec.presentation == CombPresentation::kKarnaughMap) {
      if (fired(HalluAxis::kLogicExpression)) spec.expr = corrupt_expr(spec.expr, rng);
    }
  }

  // Choose codegen options: convention and corner-case axes.
  CodegenOptions options;
  if (spec.sequential() && fired(HalluAxis::kKnowConvention)) {
    if (spec.kind == TaskKind::kFsm && rng.chance(0.6)) {
      options.fsm_write_state_in_comb = true;  // "state" instead of "next_state"
    } else {
      options.nonblocking_in_clocked = false;  // blocking in clocked logic
    }
  }
  // Corner-case axis: full rate on structured designs; halved on plain
  // combinational functions (the missing-default failure needs the model to
  // have chosen a case-shaped implementation in the first place).
  if (fired(HalluAxis::kLogicCorner, spec.kind == TaskKind::kCombExpr ? 0.5 : 1.0)) {
    if (spec.kind == TaskKind::kCombExpr) {
      options.comb_as_incomplete_case = true;
    } else if (spec.kind == TaskKind::kFsm || spec.kind == TaskKind::kAlu ||
               (spec.kind == TaskKind::kMux && spec.mux_inputs > 2)) {
      options.include_default_case = false;
      options.omit_case_item = static_cast<int>(rng.uniform_int(0, 7));
    }
  }

  std::string source;
  try {
    source = generate_source(spec, options);
  } catch (const std::exception&) {
    return fallback_module(parsed, prompt, rng);
  }

  // Syntax misapplication: textual damage last.
  if (fired(HalluAxis::kKnowSyntax)) source = corrupt_syntax(source, rng);
  return source;
}

}  // namespace haven::llm
