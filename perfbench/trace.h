// Outside-in tracing for the traced run: every span is one public call into
// a layer, timed by the benchmark around the call. A span carries a name,
// start, duration, parent span and unit id. Spans stay in per-thread buffers
// until the run ends, when they are written out; the per-layer metrics come
// from the durations of every call. Past kMaxStoredSpans a run keeps only the
// durations, which bounds the memory of long traced runs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace haven::perfbench {

// The calls the replay times. kUnit and kRound group a unit's calls;
// kPrepare groups the per-task work evaluate() does before its fan-out.
// kSimElaborate/kSimCompile are the isolation timings; kSimElaborateGolden
// is the golden elaboration evaluate() does itself when lint is on.
enum class Fn : std::uint8_t {
  kUnit,
  kRound,
  kPrepare,
  kCotRefine,
  kLlmGenerate,
  kLlmGenerateWithHints,
  kCacheKey,
  kCacheLookup,
  kCacheDecode,
  kCacheEncode,
  kCacheInsert,
  kVerilogCompileOk,
  kVerilogParseCandidate,
  kVerilogParseGolden,
  kVerilogAnalyzeSource,
  kLintFromDiagnostics,
  kLintCandidate,
  kLintProfileFromGolden,
  kProveEquivalence,
  kProveGoldenProvable,
  kSimRunDiffTest,
  kSimElaborateGolden,
  kSimElaborate,
  kSimCompile,
  kRepairDistill,
  kServeSubmit,
  kCount,
};

struct Span {
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::uint32_t dur_ns = 0;
  std::uint32_t unit = 0;
  std::uint32_t parent = 0;  // 1 + index of the parent in the same thread's buffer; 0 = root
  Fn fn = Fn::kUnit;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = std::size_t{1} << 21;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(Tracer* tracer, Fn fn);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Fn fn_;
    std::size_t index_ = 0;  // position in the thread's span buffer, or kNotStored
    std::uint32_t saved_parent_ = 0;
    Clock::time_point start_;
  };

  // Sets the unit id stamped on spans the calling thread opens from now on.
  static void set_unit(std::uint32_t unit);

  // Record an externally timed call (e.g. serve::Server::submit) as a root span.
  void record(Fn fn, Clock::time_point start, Clock::time_point end);

  // Durations in ns of every call, per function, across threads.
  std::vector<std::vector<double>> durations() const;
  std::size_t span_count() const;
  // A header line, then per thread the count and raw Span records.
  bool write(const std::string& path) const;

 private:
  struct Thread {
    std::vector<Span> spans;
    std::array<std::vector<std::uint32_t>, static_cast<std::size_t>(Fn::kCount)> durations;
  };
  Thread* local();
  void close(Fn fn, std::size_t index, Clock::time_point start, Clock::time_point end);

  Clock::time_point epoch_;
  std::atomic<std::size_t> stored_{0};
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<Thread>> threads_;
};

// The per-layer metrics of the traced run, in the order BENCHMARK.json lists
// them. Values a workload does not set stay 0 (a layer that is off).
struct LayerMetrics {
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  // <fn>.calls, <fn>.p50_ns and <fn>.p99_ns for every timed function, and the
  // <layer>.busy_s sums, from the tracer's calls.
  void add_spans(const Tracer& tracer);
  void emit(Report* report) const;
};

// (name, unit, better) of every per-layer metric, for BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
};
std::vector<MetricSpec> per_layer_specs();

}  // namespace haven::perfbench
