#include "eval/report.h"

#include "util/strings.h"

namespace haven::eval {

std::string pct(double fraction) { return util::format("%.1f", fraction * 100.0); }

std::string pass_total(std::pair<int, int> pt) {
  const double rate = pt.second == 0 ? 0.0 : 100.0 * pt.first / pt.second;
  return util::format("%d/%d(%.1f%%)", pt.first, pt.second, rate);
}

std::string summarize(const SuiteResult& result) {
  const int k = result.reported_k();
  return util::format("%s on %s: pass@1=%s pass@%d=%s syntax@%d=%s (T=%.1f)",
                      result.model_name.c_str(), result.suite_name.c_str(),
                      pct(result.pass_at(1)).c_str(), k, pct(result.pass_at(k)).c_str(), k,
                      pct(result.syntax_pass_at(k)).c_str(), result.temperature);
}

std::string summarize(const EvalCounters& c) {
  std::string line = util::format(
      "%lld candidates (%lld compile failures, %lld sim mismatches, %lld SI-CoT "
      "refinements); gen %.2fs compile %.2fs sim %.2fs; wall %.2fs cpu %.2fs on %d "
      "thread%s",
      static_cast<long long>(c.candidates), static_cast<long long>(c.compile_failures),
      static_cast<long long>(c.sim_mismatches), static_cast<long long>(c.sicot_refinements),
      c.generate_seconds, c.compile_seconds, c.sim_seconds, c.wall_seconds, c.cpu_seconds,
      c.threads_used, c.threads_used == 1 ? "" : "s");
  if (c.unit_faults != 0 || c.retries != 0) {
    line += util::format("; %lld unit faults (%lld deadline, %lld sim-budget), %lld retries",
                         static_cast<long long>(c.unit_faults),
                         static_cast<long long>(c.deadline_exceeded),
                         static_cast<long long>(c.cycles_aborted),
                         static_cast<long long>(c.retries));
  }
  if (c.lint_triaged != 0 || c.lint_findings != 0 || c.lint_seconds != 0.0) {
    line += util::format("; lint %lld findings, %lld triaged / %lld simulated "
                         "(%lld vectors), lint %.2fs",
                         static_cast<long long>(c.lint_findings),
                         static_cast<long long>(c.lint_triaged),
                         static_cast<long long>(c.simulated),
                         static_cast<long long>(c.sim_vectors), c.lint_seconds);
  }
  if (c.proven_equiv != 0 || c.proven_inequiv != 0 || c.prove_fallback != 0 ||
      c.prove_seconds != 0.0) {
    line += util::format("; prove %lld equiv + %lld inequiv / %lld fallback, prove %.2fs",
                         static_cast<long long>(c.proven_equiv),
                         static_cast<long long>(c.proven_inequiv),
                         static_cast<long long>(c.prove_fallback), c.prove_seconds);
  }
  if (c.repair_rounds != 0 || c.repaired_pass != 0 || c.repair_exhausted != 0) {
    line += util::format("; repair %lld rounds, %lld repaired / %lld exhausted",
                         static_cast<long long>(c.repair_rounds),
                         static_cast<long long>(c.repaired_pass),
                         static_cast<long long>(c.repair_exhausted));
  }
  if (c.cache_hits != 0 || c.cache_misses != 0) {
    line += "; " + summarize_cache(c);
  }
  return line;
}

std::string summarize_cache(const EvalCounters& c) {
  const std::int64_t lookups = c.cache_hits + c.cache_misses;
  if (lookups == 0) return "cache: off";
  const double rate = 100.0 * static_cast<double>(c.cache_hits) / static_cast<double>(lookups);
  return util::format("cache: %lld hits / %lld misses (%.1f%% hit rate), "
                      "%lld evictions, %.1f KiB resident",
                      static_cast<long long>(c.cache_hits),
                      static_cast<long long>(c.cache_misses), rate,
                      static_cast<long long>(c.cache_evictions),
                      static_cast<double>(c.cache_bytes) / 1024.0);
}

std::string summarize(const LintSummary& lint) {
  if (!lint.enabled) return "";
  std::string out = util::format(
      "lint: %lld findings on %lld flagged candidates; "
      "triage precision %s recall %s (tp=%lld fp=%lld fn=%lld tn=%lld)",
      static_cast<long long>(lint.findings),
      static_cast<long long>(lint.flagged_candidates), pct(lint.precision()).c_str(),
      pct(lint.recall()).c_str(), static_cast<long long>(lint.true_positives),
      static_cast<long long>(lint.false_positives),
      static_cast<long long>(lint.false_negatives),
      static_cast<long long>(lint.true_negatives));
  std::string axes;
  for (int a = 0; a < llm::kNumHalluAxes; ++a) {
    const std::int64_t n = lint.axis_candidates[static_cast<std::size_t>(a)];
    if (n == 0) continue;
    if (!axes.empty()) axes += " ";
    axes += util::format("%s=%lld",
                         llm::hallu_axis_name(static_cast<llm::HalluAxis>(a)).c_str(),
                         static_cast<long long>(n));
  }
  if (!axes.empty()) out += "\n  axis histogram: " + axes;
  return out;
}

std::string lint_json(const SuiteResult& result) {
  const LintSummary& lint = result.lint;
  std::string out = "{";
  out += util::format(
      "\"enabled\":%s,\"findings\":%lld,\"flagged_candidates\":%lld,"
      "\"candidates\":%lld,\"lint_triaged\":%lld,\"simulated\":%lld,"
      "\"sim_vectors\":%lld,"
      "\"true_positives\":%lld,\"false_positives\":%lld,"
      "\"false_negatives\":%lld,\"true_negatives\":%lld,"
      "\"precision\":%.4f,\"recall\":%.4f",
      lint.enabled ? "true" : "false", static_cast<long long>(lint.findings),
      static_cast<long long>(lint.flagged_candidates),
      static_cast<long long>(result.counters.candidates),
      static_cast<long long>(result.counters.lint_triaged),
      static_cast<long long>(result.counters.simulated),
      static_cast<long long>(result.counters.sim_vectors),
      static_cast<long long>(lint.true_positives),
      static_cast<long long>(lint.false_positives),
      static_cast<long long>(lint.false_negatives),
      static_cast<long long>(lint.true_negatives), lint.precision(), lint.recall());
  out += ",\"axis_candidates\":{";
  bool first = true;
  for (int a = 0; a < llm::kNumHalluAxes; ++a) {
    if (!first) out += ",";
    first = false;
    out += util::format("\"%s\":%lld",
                        llm::hallu_axis_name(static_cast<llm::HalluAxis>(a)).c_str(),
                        static_cast<long long>(
                            lint.axis_candidates[static_cast<std::size_t>(a)]));
  }
  out += "},\"rule_counts\":{";
  first = true;
  for (const auto& [rule, n] : lint.rule_counts) {
    if (!first) out += ",";
    first = false;
    out += util::format("\"%s\":%lld", rule.c_str(), static_cast<long long>(n));
  }
  out += "},\"candidates_with_findings\":[";
  first = true;
  for (const auto& cf : result.lint_findings) {
    if (!first) out += ",";
    first = false;
    out += util::format("{\"task\":\"%s\",\"sample\":%d,\"temperature\":%.2f,\"findings\":",
                        cf.task_id.c_str(), cf.sample, cf.temperature);
    out += lint::findings_json(cf.findings);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace haven::eval
