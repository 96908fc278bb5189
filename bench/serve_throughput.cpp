// serve_throughput: mixed multi-tenant traffic against the haven::serve
// daemon vs the same jobs run sequentially one-shot, both on a warm shared
// result cache. The serving layer's request coalescing (many tenants, few
// distinct computations) is what buys the aggregate throughput.
//
//   $ ./build/bench/serve_throughput [eval flags] [--check]
//
// Writes a BENCH_serve.json record (path overridable via --bench-json).
// --check exits non-zero unless the server achieves >= 2x the sequential
// aggregate task throughput AND every tenant's verdict is bit-identical to
// the one-shot reference.
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.h"
#include "llm/model_zoo.h"
#include "serve/serve.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace haven;

  std::vector<std::string> leftover;
  eval::RequestOptions options = eval::RequestOptions::parse(argc, argv, &leftover);
  bool check = false;
  for (const std::string& arg : leftover) {
    if (arg == "--check") check = true;
  }
  if (options.bench_json.empty()) options.bench_json = "BENCH_serve.json";

  // Workload: 3 tenants x 8 jobs drawn from 4 distinct shapes (differing
  // only in eval seed), so 24 submissions dedup to 4 computations.
  const int kTenants = 3;
  const int kJobsPerTenant = 8;
  const int kDistinctShapes = 4;
  const std::size_t n_tasks = options.fast ? 6 : 8;

  eval::Suite suite = eval::build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  const llm::SimLlm model = llm::make_model("RTLCoder-DeepSeek");

  auto request_for_shape = [&](int shape) {
    eval::EvalRequest request = options.request();
    request.n_samples = 2;
    request.temperatures = {0.2};
    request.seed = eval::kDefaultEvalSeed + static_cast<std::uint64_t>(shape);
    request.on_progress = nullptr;
    return request;
  };

  // One shared cache for every arm; warm it so both arms replay verdicts.
  cache::CacheConfig cache_config;
  cache_config.max_bytes = options.cache_mb << 20;
  auto shared_cache = std::make_shared<cache::ResultCache>(cache_config);

  std::vector<eval::SuiteResult> reference(kDistinctShapes);
  for (int shape = 0; shape < kDistinctShapes; ++shape) {
    eval::EvalRequest request = request_for_shape(shape);
    request.cache = shared_cache.get();
    reference[shape] = eval::EvalEngine(request).evaluate(model, suite);
  }

  const int total_jobs = kTenants * kJobsPerTenant;
  const std::size_t total_tasks = static_cast<std::size_t>(total_jobs) * suite.tasks.size();

  // Arm 1: sequential one-shot — every job recomputed back to back (the
  // cache replays verdicts, but 24 engine runs still happen).
  const Clock::time_point sequential_start = Clock::now();
  for (int job = 0; job < total_jobs; ++job) {
    eval::EvalRequest request = request_for_shape(job % kDistinctShapes);
    request.cache = shared_cache.get();
    const eval::SuiteResult result = eval::EvalEngine(request).evaluate(model, suite);
    if (serve::verdict_digest(result) !=
        serve::verdict_digest(reference[job % kDistinctShapes])) {
      std::cerr << "sequential arm verdict mismatch on job " << job << "\n";
      return 1;
    }
  }
  const double sequential_ms = ms_since(sequential_start);

  // Arm 2: the serve daemon — same 24 jobs, submitted concurrently by
  // tenant; coalescing collapses them onto 4 computations.
  serve::ServerConfig server_config;
  server_config.threads = options.req.threads;
  server_config.cache = shared_cache;
  serve::Server server(server_config);

  const Clock::time_point serve_start = Clock::now();
  std::vector<std::pair<int, serve::JobTicket>> tickets;
  tickets.reserve(static_cast<std::size_t>(total_jobs));
  for (int job = 0; job < total_jobs; ++job) {
    const int shape = job % kDistinctShapes;
    serve::EvalJob eval_job;
    eval_job.tenant = "tenant-" + std::to_string(job % kTenants);
    eval_job.model = model;
    eval_job.suite = suite;
    eval_job.request = request_for_shape(shape);
    tickets.emplace_back(shape, server.submit(std::move(eval_job)));
  }
  bool identical = true;
  for (auto& [shape, ticket] : tickets) {
    if (ticket.wait() != serve::JobStatus::kDone ||
        serve::verdict_digest(ticket.result()) !=
            serve::verdict_digest(reference[shape])) {
      identical = false;
    }
  }
  const double serve_ms = ms_since(serve_start);
  const serve::ServeCounters counters = server.stats();
  server.drain();

  const double sequential_tps =
      sequential_ms <= 0.0 ? 0.0 : 1000.0 * static_cast<double>(total_tasks) / sequential_ms;
  const double serve_tps =
      serve_ms <= 0.0 ? 0.0 : 1000.0 * static_cast<double>(total_tasks) / serve_ms;
  const double speedup = sequential_ms <= 0.0 ? 0.0 : sequential_ms / serve_ms;

  std::cout << util::format(
      "serve_throughput: %d jobs (%d distinct) x %zu tasks\n"
      "  sequential one-shot: %8.1f ms  (%8.1f tasks/s)\n"
      "  serve daemon:        %8.1f ms  (%8.1f tasks/s)\n"
      "  speedup: %.2fx   coalesced=%lld admitted=%lld   verdicts %s\n",
      total_jobs, kDistinctShapes, suite.tasks.size(), sequential_ms, sequential_tps,
      serve_ms, serve_tps, speedup, static_cast<long long>(counters.coalesced),
      static_cast<long long>(counters.admitted),
      identical ? "bit-identical" : "MISMATCH");

  std::ofstream out(options.bench_json, std::ios::binary | std::ios::trunc);
  if (out) {
    out << util::format(
        "{\"bench\":\"serve_throughput\",\"schema\":1,\"jobs\":%d,"
        "\"distinct_shapes\":%d,\"tasks_per_job\":%zu,"
        "\"sequential_ms\":%.3f,\"serve_ms\":%.3f,"
        "\"sequential_tasks_per_sec\":%.1f,\"serve_tasks_per_sec\":%.1f,"
        "\"speedup\":%.3f,\"verdicts_identical\":%s,"
        "\"counters\":{\"submitted\":%lld,\"admitted\":%lld,\"coalesced\":%lld,"
        "\"rejected\":%lld,\"expired\":%lld,\"completed\":%lld,\"failed\":%lld}}\n",
        total_jobs, kDistinctShapes, suite.tasks.size(), sequential_ms, serve_ms,
        sequential_tps, serve_tps, speedup, identical ? "true" : "false",
        static_cast<long long>(counters.submitted),
        static_cast<long long>(counters.admitted),
        static_cast<long long>(counters.coalesced),
        static_cast<long long>(counters.rejected),
        static_cast<long long>(counters.expired),
        static_cast<long long>(counters.completed),
        static_cast<long long>(counters.failed));
    std::cerr << "  [bench-json] wrote " << options.bench_json << "\n";
  } else {
    std::cerr << "  [bench-json] cannot open " << options.bench_json << "\n";
  }

  if (check && (!identical || speedup < 2.0)) {
    std::cerr << "CHECK FAILED: speedup " << speedup << "x (need >= 2x), verdicts "
              << (identical ? "identical" : "mismatch") << "\n";
    return 1;
  }
  return identical ? 0 : 1;
}
