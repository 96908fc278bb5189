// Demonstrates the haven::serve evaluation service: two tenants submit
// overlapping jobs, the second submission coalesces onto the first's
// computation (bit-identical SuiteResult, no recompute), a third job with an
// impossible deadline is rejected upfront, and a streaming-progress
// subscriber watches units complete in index order.
//
//   $ ./build/examples/serve_demo [eval flags]
//
// Also runs the line protocol over a scripted session, which is exactly how
// the CI smoke job drives the daemon over stdin/stdout.
#include <atomic>
#include <iostream>
#include <sstream>

#include "eval/options.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "serve/protocol.h"
#include "serve/serve.h"

int main(int argc, char** argv) {
  using namespace haven;

  const eval::RequestOptions options = eval::RequestOptions::parse(argc, argv);

  serve::ServerConfig config;
  config.threads = options.req.threads;
  config.initial_unit_seconds = 0.050;  // calibrate the feasibility estimator
  serve::Server server(config);

  auto make_job = [&](const std::string& tenant) {
    serve::EvalJob job;
    job.tenant = tenant;
    job.model = llm::make_model("RTLCoder-DeepSeek");
    job.suite = eval::build_rtllm();
    job.suite.tasks.resize(8);
    job.request = eval::EvalRequest{}.with_samples(2).with_temperature(0.2);
    return job;
  };

  // Tenant A subscribes to streaming progress; tenant B's identical job
  // coalesces onto A's computation.
  std::atomic<std::size_t> units_seen{0};
  serve::JobTicket a = server.submit(make_job("tenant-a"));
  a.subscribe([&units_seen](const eval::EvalProgress& p) {
    ++units_seen;
    if (p.completed == p.total) {
      std::cout << "  [progress] " << p.completed << "/" << p.total
                << " units complete\n";
    }
  });
  serve::JobTicket b = server.submit(make_job("tenant-b"));
  std::cout << "tenant-b coalesced: " << (b.coalesced() ? "yes" : "no") << "\n";

  // A job that cannot possibly finish in 1ms is rejected at admission. It
  // must be a *distinct* computation (different seed): an identical one
  // would coalesce first — attaching to an in-flight result is free, so
  // coalescing always wins over feasibility rejection.
  serve::EvalJob hopeless = make_job("tenant-c");
  hopeless.request.with_seed(0xFEEDBEEF);
  hopeless.deadline_ms = 1;
  serve::JobTicket c = server.submit(std::move(hopeless));
  std::cout << "tenant-c status: " << serve::job_status_name(c.status());
  if (c.status() == serve::JobStatus::kRejected) std::cout << " (" << c.error() << ")";
  std::cout << "\n";

  a.wait();
  b.wait();
  const bool identical =
      serve::verdict_digest(a.result()) == serve::verdict_digest(b.result());
  std::cout << "verdicts bit-identical: " << (identical ? "yes" : "no")
            << "  (pass@1 = " << a.result().pass_at(1) << ", " << units_seen.load()
            << " progress units streamed)\n";

  const serve::ServeCounters stats = server.stats();
  std::cout << "counters: submitted=" << stats.submitted << " admitted=" << stats.admitted
            << " coalesced=" << stats.coalesced << " rejected=" << stats.rejected
            << " completed=" << stats.completed << "\n";

  // The same flow over the line protocol (the daemon's stdin/stdout face).
  std::istringstream script(
      "SUBMIT tenant-a RTLCoder-DeepSeek rtllm tasks=4 n=2 temps=0.2\n"
      "SUBMIT tenant-b RTLCoder-DeepSeek rtllm tasks=4 n=2 temps=0.2\n"
      "ONESHOT RTLCoder-DeepSeek rtllm tasks=4 n=2 temps=0.2\n"
      "WAIT *\n"
      "STATS\n"
      "DRAIN\n"
      "QUIT\n");
  std::cout << "\nline protocol session:\n";
  serve::LineServer line_server(server, script, std::cout);
  line_server.run();
  return identical && b.coalesced() ? 0 : 1;
}
