#include "trace.h"

#include <cstdio>

namespace haven::perfbench {
namespace {

struct FnInfo {
  const char* name;
  const char* layer;  // "" = grouping span, not a layer call
  bool reported;      // has <name>.calls / .p50_ns / .p99_ns metrics
  bool busy;          // counts toward <layer>.busy_s (work evaluate() does)
};

constexpr FnInfo kFns[] = {
    {"unit", "", false, false},
    {"round", "", false, false},
    {"prepare", "", false, false},
    {"cot.refine", "cot", true, true},
    {"llm.generate", "llm", true, true},
    {"llm.generate_with_hints", "llm", true, true},
    {"cache.key", "cache", true, true},
    {"cache.lookup", "cache", true, true},
    {"cache.decode", "cache", true, true},
    {"cache.encode", "cache", true, true},
    {"cache.insert", "cache", true, true},
    {"verilog.compile_ok", "verilog", true, true},
    {"verilog.parse_candidate", "verilog", true, true},
    {"verilog.parse_golden", "verilog", true, true},
    {"verilog.analyze_source", "verilog", true, true},
    {"lint.findings_from_diagnostics", "lint", false, true},
    {"lint.lint_candidate", "lint", true, true},
    {"lint.profile_from_golden", "lint", true, true},
    {"prove.prove_equivalence", "prove", true, true},
    {"prove.golden_provable", "prove", true, true},
    {"sim.run_diff_test", "sim", true, true},
    {"sim.elaborate_golden", "sim", false, true},
    {"sim.elaborate", "sim", true, false},
    {"sim.compile", "sim", true, false},
    {"repair.distill", "repair", true, true},
    {"serve.submit", "serve", true, false},
};
static_assert(sizeof(kFns) / sizeof(kFns[0]) == static_cast<std::size_t>(Fn::kCount));

const char* kBusyLayers[] = {"llm",  "cot",   "verilog", "sim",
                             "lint", "prove", "repair",  "cache"};

constexpr std::size_t kNotStored = ~std::size_t{0};

thread_local void* t_thread = nullptr;  // this thread's Tracer::Thread
thread_local const Tracer* t_owner = nullptr;
thread_local std::uint32_t t_parent = 0;
thread_local std::uint32_t t_unit = 0;

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Thread* Tracer::local() {
  if (t_owner != this || t_thread == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<Thread>());
    t_thread = threads_.back().get();
    t_owner = this;
    t_parent = 0;
  }
  return static_cast<Thread*>(t_thread);
}

Tracer::Scope::Scope(Tracer* tracer, Fn fn) : tracer_(tracer), fn_(fn) {
  if (tracer_ == nullptr) return;
  Thread* t = tracer_->local();
  saved_parent_ = t_parent;
  index_ = kNotStored;
  if (tracer_->stored_.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    index_ = t->spans.size();
    Span span;
    span.unit = t_unit;
    span.parent = t_parent;
    span.fn = fn;
    t->spans.push_back(span);
    t_parent = static_cast<std::uint32_t>(index_ + 1);
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(fn_, index_, start_, Clock::now());
  t_parent = saved_parent_;
}

void Tracer::close(Fn fn, std::size_t index, Clock::time_point start, Clock::time_point end) {
  Thread* t = local();
  const auto dur = static_cast<std::uint32_t>(ns_between(start, end));
  t->durations[static_cast<std::size_t>(fn)].push_back(dur);
  if (index == kNotStored) return;
  Span& span = t->spans[index];
  span.start_ns = ns_between(epoch_, start);
  span.dur_ns = dur;
}

void Tracer::set_unit(std::uint32_t unit) { t_unit = unit; }

void Tracer::record(Fn fn, Clock::time_point start, Clock::time_point end) {
  Thread* t = local();
  std::size_t index = kNotStored;
  if (stored_.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    index = t->spans.size();
    Span span;
    span.unit = t_unit;
    span.fn = fn;
    t->spans.push_back(span);
  }
  close(fn, index, start, end);
}

std::vector<std::vector<double>> Tracer::durations() const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(Fn::kCount));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (std::size_t f = 0; f < out.size(); ++f) {
      out[f].insert(out[f].end(), t->durations[f].begin(), t->durations[f].end());
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& t : threads_) {
    for (const auto& d : t->durations) n += d.size();
  }
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "perfbench-spans v1 record=%zu threads=%zu stored_max=%zu names=",
               sizeof(Span), threads_.size(), kMaxStoredSpans);
  for (std::size_t i = 0; i < static_cast<std::size_t>(Fn::kCount); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", kFns[i].name);
  }
  std::fprintf(f, "\n");
  bool ok = true;
  for (const auto& t : threads_) {
    const unsigned long long n = t->spans.size();
    ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
    ok = ok && std::fwrite(t->spans.data(), sizeof(Span), n, f) == n;
  }
  return std::fclose(f) == 0 && ok;
}

void LayerMetrics::add_spans(const Tracer& tracer) {
  const std::vector<std::vector<double>> durations = tracer.durations();
  std::map<std::string, double> busy_ns;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    const FnInfo& info = kFns[i];
    if (info.busy) {
      for (double d : durations[i]) busy_ns[info.layer] += d;
    }
    if (!info.reported) continue;
    const std::string name = info.name;
    set(name + ".calls", static_cast<double>(durations[i].size()));
    set(name + ".p50_ns", percentile(durations[i], 0.50));
    set(name + ".p99_ns", percentile(durations[i], 0.99));
  }
  for (const char* layer : kBusyLayers) {
    set(std::string(layer) + ".busy_s", busy_ns[layer] * 1e-9);
  }
}

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs;
  auto fn = [&](const char* name) {
    specs.push_back({std::string(name) + ".calls", "count", "lower"});
    specs.push_back({std::string(name) + ".p50_ns", "ns", "lower"});
    specs.push_back({std::string(name) + ".p99_ns", "ns", "lower"});
  };
  auto one = [&](const char* name, const char* unit, const char* better) {
    specs.push_back({name, unit, better});
  };
  one("core.build_s", "s", "lower");
  fn("llm.generate");
  fn("llm.generate_with_hints");
  one("llm.busy_s", "s", "lower");
  one("llm.distinct_source_share", "ratio", "higher");
  fn("cot.refine");
  one("cot.busy_s", "s", "lower");
  fn("verilog.compile_ok");
  fn("verilog.parse_candidate");
  fn("verilog.parse_golden");
  fn("verilog.analyze_source");
  one("verilog.busy_s", "s", "lower");
  one("verilog.compile_failures", "count", "lower");
  fn("sim.run_diff_test");
  fn("sim.elaborate");
  fn("sim.compile");
  one("sim.busy_s", "s", "lower");
  one("sim.simulated", "count", "lower");
  one("sim.vectors", "count", "lower");
  one("sim.ns_per_vector", "ns", "lower");
  fn("lint.lint_candidate");
  fn("lint.profile_from_golden");
  one("lint.busy_s", "s", "lower");
  one("lint.findings", "count", "lower");
  one("lint.triaged", "count", "higher");
  one("lint.triage_ratio", "ratio", "higher");
  fn("prove.prove_equivalence");
  fn("prove.golden_provable");
  one("prove.busy_s", "s", "lower");
  one("prove.decided", "count", "higher");
  one("prove.fallback", "count", "lower");
  one("prove.decided_ratio", "ratio", "higher");
  fn("repair.distill");
  one("repair.busy_s", "s", "lower");
  one("repair.rounds", "count", "lower");
  one("repair.repaired", "count", "higher");
  one("repair.rescue_ratio", "ratio", "higher");
  fn("cache.key");
  fn("cache.lookup");
  fn("cache.insert");
  fn("cache.decode");
  fn("cache.encode");
  one("cache.busy_s", "s", "lower");
  one("cache.hits", "count", "higher");
  one("cache.misses", "count", "lower");
  one("cache.hit_ratio", "ratio", "higher");
  one("cache.bytes", "bytes", "lower");
  one("cache.evictions", "count", "lower");
  one("eval.evaluate_s", "s", "lower");
  one("eval.pool_utilization", "ratio", "higher");
  one("eval.unit_faults", "count", "lower");
  one("eval.retries", "count", "lower");
  fn("serve.submit");
  one("serve.queue_wait_p50_ms", "ms", "lower");
  one("serve.queue_wait_p99_ms", "ms", "lower");
  one("serve.run_p50_ms", "ms", "lower");
  one("serve.coalesced_share", "ratio", "higher");
  one("serve.admitted", "count", "higher");
  one("serve.rejected", "count", "lower");
  one("serve.send_lag_max_ms", "ms", "lower");
  one("trace.overhead_share", "ratio", "lower");
  return specs;
}

void LayerMetrics::emit(Report* report) const {
  for (const MetricSpec& spec : per_layer_specs()) {
    auto it = values.find(spec.name);
    report->metric(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace haven::perfbench
