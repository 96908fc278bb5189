// SimLlm: the mechanistic stand-in for a code-generation language model.
//
// generate() runs the honest pipeline — parse the prompt into a TaskSpec,
// emit the conventional implementation — and then *damages* it according to
// the model's HallucinationProfile, one taxonomy axis at a time. Every
// corruption is a concrete fault from Table II; pass rates downstream emerge
// from real parsing + simulation of the damaged code, never from a
// hard-coded success probability.
//
// Determinism & sampling model: each axis probability splits into a
// systematic part (seeded by model-name + prompt hash: the model either has
// or lacks this pattern for this prompt — identical across samples) and a
// stochastic part (drawn from the caller's Rng per sample, scaled by
// temperature). This reproduces the pass@1-vs-pass@5 structure of real
// models: some tasks are always failed, others fail only sometimes.
#pragma once

#include <cstdint>
#include <string>

#include "llm/hallucination.h"
#include "llm/spec_parser.h"
#include "llm/task_spec.h"
#include "util/rng.h"

namespace haven::llm {

struct GenerationConfig {
  double temperature = 0.2;
};

// What generate() derives from the prompt text alone, on every call: the
// parsed instruction, and for a prompt that parses the systematic-draw key
// (TaskSpec::fingerprint) and difficulty. It depends on neither the model
// nor the sampling state, so one preparation serves every sample of a task;
// generate() only reads it, and copies the spec before damaging it.
struct PreparedPrompt {
  std::string text;
  ParsedInstruction parsed;
  std::uint64_t task_key = 0;  // parsed.spec->fingerprint() (parsed.ok() only)
  double difficulty = 0.0;     // parsed.spec->difficulty() (parsed.ok() only)
};

// Never throws on any prompt text: an instruction outside the grammar,
// numbers included, is a parse error recorded in `parsed`.
PreparedPrompt prepare_prompt(std::string text);

class SimLlm {
 public:
  // `family` identifies the base weights for systematic-draw seeding: a
  // fine-tuned model keeps its base's family so ablation arms are paired
  // (fine-tuning lowers probabilities; it does not reshuffle which tasks the
  // lineage finds hard). Defaults to `name`.
  SimLlm(std::string name, HallucinationProfile profile, std::string family = "");

  const std::string& name() const { return name_; }
  const std::string& family() const { return family_; }
  const HallucinationProfile& profile() const { return profile_; }
  void set_profile(const HallucinationProfile& p) { profile_ = p; }

  // Generate one candidate Verilog module for the prompt. The string
  // overloads prepare the prompt and call the prepared ones; a preparation
  // reused across calls gives byte-identical output and draws from `rng`
  // exactly as preparing afresh does.
  std::string generate(const PreparedPrompt& prompt, const GenerationConfig& config,
                       util::Rng& rng) const;
  std::string generate(const std::string& prompt, const GenerationConfig& config,
                       util::Rng& rng) const;

  // Generate with structured repair feedback: every hallucination-axis draw
  // is scaled by `damping` (haven::repair distills failure evidence into the
  // per-axis factors). The identity damping reproduces generate() bit for
  // bit — same rng draw sequence, same output — so round 0 of a repair loop
  // and a repair-disabled run cannot diverge. Models an LLM that actually
  // reads the feedback: axes named in the hint fire less often, scaled by
  // the policy's repair-efficacy factor.
  std::string generate_with_hints(const PreparedPrompt& prompt, const GenerationConfig& config,
                                  const AxisDamping& damping, util::Rng& rng) const;
  std::string generate_with_hints(const std::string& prompt, const GenerationConfig& config,
                                  const AxisDamping& damping, util::Rng& rng) const;

  // Draw one hallucination axis. The systematic part is keyed on `key`
  // (normally the parsed TaskSpec fingerprint: whether the model "knows the
  // pattern" is a property of the task, not of the prompt's spelling, so
  // SI-CoT rephrasing does not reroll it — only the axis probability
  // changes). `scale` multiplies the axis probability.
  bool draw_axis(HalluAxis axis, std::uint64_t key, double difficulty, double temperature,
                 util::Rng& rng, double scale = 1.0) const;

  // Convenience overload keying on the prompt text (used when no parse is
  // available).
  bool draw_axis(HalluAxis axis, const std::string& prompt, double difficulty,
                 double temperature, util::Rng& rng, double scale = 1.0) const;

  // Stable hash of (model, prompt) used for systematic draws.
  std::uint64_t prompt_hash(const std::string& prompt) const;

 private:
  std::string generate_impl(const PreparedPrompt& prepared, const GenerationConfig& config,
                            const AxisDamping* damping, util::Rng& rng) const;
  std::string fallback_module(const ParsedInstruction& parsed, const std::string& prompt,
                              util::Rng& rng) const;

  std::string name_;
  std::string family_;
  HallucinationProfile profile_;
};

}  // namespace haven::llm
