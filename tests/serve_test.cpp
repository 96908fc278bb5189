// haven::serve — coalescing soundness, admission control, streaming
// progress, drain/stop semantics, the line protocol, and the consolidated
// EvalRequest builder surface the service's EvalJob embeds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "serve/protocol.h"
#include "serve/serve.h"
#include "sim/backend.h"
#include "util/strings.h"

namespace haven::serve {
namespace {

eval::Suite small_rtllm(std::size_t n_tasks) {
  eval::Suite suite = eval::build_rtllm();
  if (suite.tasks.size() > n_tasks) suite.tasks.resize(n_tasks);
  return suite;
}

EvalJob make_job(const std::string& tenant, std::uint64_t seed = eval::kDefaultEvalSeed,
                 std::size_t n_tasks = 6) {
  EvalJob job;
  job.tenant = tenant;
  job.model = llm::make_model("RTLCoder-DeepSeek");
  job.suite = small_rtllm(n_tasks);
  job.request = eval::EvalRequest{}.with_samples(2).with_temperature(0.2).with_seed(seed);
  return job;
}

void expect_same_result(const eval::SuiteResult& a, const eval::SuiteResult& b) {
  EXPECT_EQ(a.suite_name, b.suite_name);
  EXPECT_EQ(a.model_name, b.model_name);
  EXPECT_DOUBLE_EQ(a.temperature, b.temperature);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].task_id, b.per_task[i].task_id);
    EXPECT_EQ(a.per_task[i].n, b.per_task[i].n);
    EXPECT_EQ(a.per_task[i].syntax_pass, b.per_task[i].syntax_pass);
    EXPECT_EQ(a.per_task[i].func_pass, b.per_task[i].func_pass);
  }
  EXPECT_EQ(verdict_digest(a), verdict_digest(b));
}

// A job whose first progress unit blocks until `release` fires: submitting
// it first pins the (single) dispatcher inside evaluate(), making the
// queued/in-flight window deterministic for the tests below.
EvalJob make_blocker(std::shared_future<void> release) {
  EvalJob job = make_job("blocker", 0xB10CC, 2);
  job.request.n_samples = 1;
  job.request.on_progress = [release = std::move(release)](const eval::EvalProgress&) {
    release.wait();
  };
  return job;
}

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, BurstBoundsInitialCapacity) {
  TokenBucket bucket(/*rate=*/0.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));
  // rate 0: never refills, at any later time.
  EXPECT_FALSE(bucket.try_acquire(1000.0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.5));  // only half a token back
  EXPECT_TRUE(bucket.try_acquire(1.6));   // refilled past one
  // Refill caps at burst: a long idle period does not bank extra tokens.
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_FALSE(bucket.try_acquire(100.0));
}

TEST(TokenBucket, NonPositiveBurstDisablesLimiting) {
  TokenBucket bucket(/*rate=*/0.0, /*burst=*/0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_acquire(0.0));
}

TEST(TokenBucket, IdleMeansRefilledToFullBurst) {
  TokenBucket fresh(/*rate=*/1.0, /*burst=*/2.0);
  EXPECT_TRUE(fresh.idle(0.0));  // untouched = indistinguishable from new
  TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.idle(0.0));   // a token is spent
  EXPECT_FALSE(bucket.idle(0.5));   // refill not complete yet
  EXPECT_TRUE(bucket.idle(1.0));    // refilled to burst
  TokenBucket unlimited(/*rate=*/0.0, /*burst=*/0.0);
  EXPECT_TRUE(unlimited.try_acquire(0.0));
  EXPECT_TRUE(unlimited.idle(0.0));  // limiting disabled = stateless
}

// --- counters ---------------------------------------------------------------

TEST(ServeCounters, ConsistencyHelperChecksTheIdentity) {
  ServeCounters c;
  EXPECT_TRUE(serve_counters_consistent(c));
  c.submitted = 5;
  c.admitted = 2;
  c.coalesced = 2;
  c.rejected = 1;
  c.completed = 1;
  c.expired = 1;
  EXPECT_TRUE(serve_counters_consistent(c));
  c.failed = 1;  // expired + completed + failed > admitted
  EXPECT_FALSE(serve_counters_consistent(c));
  c.failed = 0;
  c.rejected = 2;  // breaks submitted == admitted + coalesced + rejected
  EXPECT_FALSE(serve_counters_consistent(c));
}

// --- digests ----------------------------------------------------------------

TEST(JobDigest, IgnoresSchedulingKnobsAndBindsResultKnobs) {
  const EvalJob base = make_job("t");
  const cache::Digest d0 = job_digest(base.model, base.suite, base.request);

  // Scheduling-only knobs must not change the digest (they never change
  // results, so they must not prevent coalescing).
  eval::EvalRequest sched = base.request;
  sched.threads = 7;
  cache::ResultCache cache_obj{cache::CacheConfig{}};
  sched.cache = &cache_obj;
  sched.on_progress = [](const eval::EvalProgress&) {};
  sched.sim_backend = sim::SimBackend::kInterpreter;
  EXPECT_EQ(job_digest(base.model, base.suite, sched), d0);

  // Result-affecting knobs must.
  EXPECT_NE(job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_seed(1)),
            d0);
  EXPECT_NE(job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_samples(3)),
            d0);
  EXPECT_NE(
      job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_temperature(0.8)),
      d0);
  EXPECT_NE(job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_lint()),
            d0);
  EXPECT_NE(job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_prove()),
            d0);
  // prove_budget only matters once prove is on — and then it must bind.
  EXPECT_NE(job_digest(base.model, base.suite,
                       eval::EvalRequest(base.request).with_prove().with_prove_budget(64)),
            job_digest(base.model, base.suite, eval::EvalRequest(base.request).with_prove()));
  // And so must the model identity.
  EXPECT_NE(job_digest(llm::make_model("CodeQwen"), base.suite, base.request), d0);
}

TEST(VerdictDigest, BindsTheVerdictFields) {
  eval::SuiteResult a;
  a.suite_name = "s";
  a.model_name = "m";
  a.per_task.push_back({"t0", symbolic::Modality::kNone, 2, 2, 1});
  eval::SuiteResult b = a;
  EXPECT_EQ(verdict_digest(a), verdict_digest(b));
  b.per_task[0].func_pass = 2;
  EXPECT_NE(verdict_digest(a), verdict_digest(b));
}

// --- EvalRequest builder (the API the service embeds) -----------------------

TEST(EvalRequestBuilder, BuilderIsBitIdenticalToFieldAssignment) {
  eval::EvalRequest fields;
  fields.n_samples = 3;
  fields.temperatures = {0.2, 0.8};
  fields.seed = 42;
  fields.threads = 2;
  fields.lint = true;
  fields.lint_triage = true;
  fields.deadline_ms = 5000;
  fields.sim_step_budget = 1u << 20;
  fields.retry.max_retries = 2;

  const eval::EvalRequest built = eval::EvalRequest{}
                                      .with_samples(3)
                                      .with_temperatures({0.2, 0.8})
                                      .with_seed(42)
                                      .with_threads(2)
                                      .with_lint()
                                      .with_lint_triage()
                                      .with_deadline_ms(5000)
                                      .with_sim_budget(1u << 20)
                                      .with_retries(2);

  const llm::SimLlm model = llm::make_model("CodeQwen");
  const eval::Suite suite = small_rtllm(5);
  // Same job digest (stronger than field-by-field equality: everything
  // result-affecting matches)...
  EXPECT_EQ(job_digest(model, suite, fields), job_digest(model, suite, built));
  // ...and bit-identical evaluation results.
  expect_same_result(eval::EvalEngine(fields).evaluate(model, suite),
                     eval::EvalEngine(built).evaluate(model, suite));
}

// --- coalescing -------------------------------------------------------------

// The tentpole soundness property: a coalesced job's SuiteResult is
// bit-identical to a solo EvalEngine::evaluate of the same request, at any
// thread count.
TEST(Serve, CoalescedJobIsBitIdenticalToSoloRun) {
  const EvalJob job = make_job("solo");
  const eval::SuiteResult solo =
      eval::EvalEngine(eval::EvalRequest(job.request).with_threads(1))
          .evaluate(job.model, job.suite);

  ServerConfig config;
  config.threads = 4;
  Server server(config);
  JobTicket a = server.submit(make_job("tenant-a"));
  JobTicket b = server.submit(make_job("tenant-b"));
  ASSERT_EQ(a.wait(), JobStatus::kDone);
  ASSERT_EQ(b.wait(), JobStatus::kDone);

  EXPECT_TRUE(b.coalesced());
  expect_same_result(solo, a.result());
  expect_same_result(solo, b.result());

  const ServeCounters stats = server.stats();
  EXPECT_TRUE(serve_counters_consistent(stats));
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_GE(stats.coalesced, 1);
}

TEST(Serve, AttachesToAQueuedComputationWhileDispatcherIsBusy) {
  std::promise<void> release;
  ServerConfig config;
  config.threads = 2;
  Server server(config);

  JobTicket blocker = server.submit(make_blocker(release.get_future().share()));
  // Dispatcher is pinned inside the blocker: these two are queued, and the
  // second provably attaches to the first (not to a memoized result).
  JobTicket first = server.submit(make_job("tenant-a", 77));
  JobTicket second = server.submit(make_job("tenant-b", 77));
  EXPECT_FALSE(first.coalesced());
  EXPECT_TRUE(second.coalesced());
  EXPECT_FALSE(is_terminal(second.status()));  // attached, not replayed

  release.set_value();
  ASSERT_EQ(blocker.wait(), JobStatus::kDone);
  ASSERT_EQ(first.wait(), JobStatus::kDone);
  ASSERT_EQ(second.wait(), JobStatus::kDone);
  expect_same_result(first.result(), second.result());
  EXPECT_EQ(first.id(), second.id());  // one shared computation
}

TEST(Serve, MemoReplaysCompletedResultsImmediately) {
  Server server{ServerConfig{}};
  JobTicket first = server.submit(make_job("tenant-a", 5));
  ASSERT_EQ(first.wait(), JobStatus::kDone);

  JobTicket replay = server.submit(make_job("tenant-b", 5));
  // A memo hit is terminal at submit time: no queueing, no recompute.
  EXPECT_TRUE(replay.coalesced());
  EXPECT_EQ(replay.status(), JobStatus::kDone);
  expect_same_result(first.result(), replay.result());

  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.coalesced, 1);
}

// --- admission control ------------------------------------------------------

TEST(Serve, TenantRateLimitsAreIndependentUnderSaturation) {
  ServerConfig config;
  config.threads = 2;
  config.tenant_rate = 0.0;  // no refill: burst is the whole budget
  config.tenant_burst = 2.0;
  config.clock = [] { return 0.0; };
  Server server(config);

  // Tenant A saturates its bucket with distinct jobs (distinct seeds:
  // coalescing must not muddy the admission accounting)...
  std::vector<JobTicket> a;
  for (int i = 0; i < 5; ++i) a.push_back(server.submit(make_job("tenant-a", 100 + i, 2)));
  int a_rejected = 0;
  for (const JobTicket& t : a) a_rejected += t.status() == JobStatus::kRejected;
  EXPECT_EQ(a_rejected, 3);
  EXPECT_NE(a[4].error().find("rate-limited"), std::string::npos);

  // ...and tenant B's bucket is untouched by A's saturation.
  JobTicket b0 = server.submit(make_job("tenant-b", 200, 2));
  JobTicket b1 = server.submit(make_job("tenant-b", 201, 2));
  JobTicket b2 = server.submit(make_job("tenant-b", 202, 2));
  EXPECT_NE(b0.status(), JobStatus::kRejected);
  EXPECT_NE(b1.status(), JobStatus::kRejected);
  EXPECT_EQ(b2.status(), JobStatus::kRejected);

  server.drain();
  EXPECT_TRUE(serve_counters_consistent(server.stats()));
}

TEST(Serve, TenantBucketMapStaysBoundedUnderNameChurn) {
  ServerConfig config;
  config.threads = 2;
  config.tenant_rate = 0.0;  // rate 0: spent buckets never refill to idle
  config.tenant_burst = 1.0;
  config.tenant_bucket_capacity = 4;
  config.clock = [] { return 0.0; };
  Server server(config);

  // 100 distinct (hostile/random) tenant names: without eviction this map
  // would grow one bucket per name forever. Identical jobs, so all but the
  // first coalesce — the bucket is still created per tenant before that.
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 100; ++i) {
    tickets.push_back(server.submit(make_job(util::format("churn-%d", i), 0xC0, 2)));
  }
  EXPECT_LE(server.tenant_bucket_count(), 4u);

  server.drain();
  for (const JobTicket& t : tickets) EXPECT_TRUE(is_terminal(t.wait()));
  EXPECT_TRUE(serve_counters_consistent(server.stats()));
}

TEST(Serve, RejectsInfeasibleDeadlinesUpfront) {
  ServerConfig config;
  config.threads = 2;
  config.initial_unit_seconds = 10.0;  // calibrated: every unit "costs" 10s
  Server server(config);

  EvalJob infeasible = make_job("tenant-a");  // 6 tasks * 2 samples = 12 units
  infeasible.deadline_ms = 1000;              // backlog estimate >> 1s
  JobTicket rejected = server.submit(std::move(infeasible));
  EXPECT_EQ(rejected.status(), JobStatus::kRejected);
  EXPECT_NE(rejected.error().find("infeasible"), std::string::npos);

  // No deadline = no feasibility rejection, however slow the estimate.
  JobTicket accepted = server.submit(make_job("tenant-b"));
  EXPECT_NE(accepted.status(), JobStatus::kRejected);
  ASSERT_EQ(accepted.wait(), JobStatus::kDone);

  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_TRUE(serve_counters_consistent(stats));
}

TEST(Serve, ExpiresQueuedJobsWhoseDeadlineLapsedBeforeDispatch) {
  std::promise<void> release;
  ServerConfig config;
  config.threads = 2;
  Server server(config);

  JobTicket blocker = server.submit(make_blocker(release.get_future().share()));
  EvalJob urgent = make_job("tenant-a", 7);
  urgent.deadline_ms = 1;
  JobTicket expired = server.submit(std::move(urgent));
  EXPECT_NE(expired.status(), JobStatus::kRejected);  // admitted (no estimate yet)

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();
  EXPECT_EQ(expired.wait(), JobStatus::kExpired);
  ASSERT_EQ(blocker.wait(), JobStatus::kDone);

  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_TRUE(serve_counters_consistent(stats));
}

// --- streaming progress -----------------------------------------------------

TEST(Serve, StreamsPerUnitProgressInIndexOrderToSubscribers) {
  std::promise<void> release;
  ServerConfig config;
  config.threads = 4;  // parallel evaluation must not reorder the stream
  Server server(config);

  JobTicket blocker = server.submit(make_blocker(release.get_future().share()));
  JobTicket job = server.submit(make_job("tenant-a", 9, 3));  // 3 tasks * 2 = 6 units

  std::vector<std::pair<std::size_t, std::size_t>> seen;
  std::mutex seen_mutex;
  job.subscribe([&](const eval::EvalProgress& p) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen.emplace_back(p.completed, p.total);
  });
  release.set_value();
  ASSERT_EQ(job.wait(), JobStatus::kDone);
  ASSERT_EQ(blocker.wait(), JobStatus::kDone);

  std::lock_guard<std::mutex> lock(seen_mutex);
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i + 1);  // 1..total, in index order
    EXPECT_EQ(seen[i].second, 6u);
  }
}

TEST(Serve, CoalescedSubscribersObserveTheSharedRun) {
  std::promise<void> release;
  Server server{ServerConfig{}};
  JobTicket blocker = server.submit(make_blocker(release.get_future().share()));

  EvalJob primary = make_job("tenant-a", 11, 2);
  std::atomic<int> primary_units{0};
  primary.request.on_progress = [&primary_units](const eval::EvalProgress&) {
    ++primary_units;
  };
  JobTicket first = server.submit(std::move(primary));

  EvalJob attached = make_job("tenant-b", 11, 2);
  std::atomic<int> attached_units{0};
  attached.request.on_progress = [&attached_units](const eval::EvalProgress&) {
    ++attached_units;
  };
  JobTicket second = server.submit(std::move(attached));
  ASSERT_TRUE(second.coalesced());

  release.set_value();
  ASSERT_EQ(first.wait(), JobStatus::kDone);
  EXPECT_EQ(primary_units.load(), 4);   // 2 tasks * 2 samples
  EXPECT_EQ(attached_units.load(), 4);  // the coalesced tenant streams too
}

// --- drain / stop -----------------------------------------------------------

TEST(Serve, DrainCompletesBacklogThenRejectsNewWork) {
  ServerConfig config;
  config.threads = 2;
  Server server(config);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(server.submit(make_job("t", 300 + i, 3)));

  server.drain();
  for (const JobTicket& t : tickets) EXPECT_EQ(t.status(), JobStatus::kDone);

  JobTicket late = server.submit(make_job("t", 999, 3));
  EXPECT_EQ(late.status(), JobStatus::kRejected);
  EXPECT_NE(late.error().find("not accepting"), std::string::npos);

  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_TRUE(serve_counters_consistent(stats));
}

TEST(Serve, StopExpiresQueuedJobsAndEveryAdmittedJobTerminates) {
  std::promise<void> release;
  ServerConfig config;
  config.threads = 2;
  Server server(config);

  JobTicket blocker = server.submit(make_blocker(release.get_future().share()));
  JobTicket q0 = server.submit(make_job("t", 400, 2));
  JobTicket q1 = server.submit(make_job("t", 401, 2));

  release.set_value();
  server.stop();  // finishes the running blocker; q0/q1 may run or expire

  EXPECT_TRUE(is_terminal(blocker.status()));
  EXPECT_TRUE(is_terminal(q0.status()));
  EXPECT_TRUE(is_terminal(q1.status()));
  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.completed + stats.failed + stats.expired, stats.admitted);
  EXPECT_TRUE(serve_counters_consistent(stats));

  // stop() is idempotent and the destructor tolerates a stopped server.
  server.stop();
}

// --- line protocol ----------------------------------------------------------

TEST(LineProtocol, CoalescedAndOneshotVerdictsAreBitIdentical) {
  Server server{ServerConfig{}};
  // The dispatcher stays pinned in a blocker job until both SUBMITs are in,
  // so tenant-b attaches to tenant-a's queued job. Unpinned, tenant-a could
  // finish before the second SUBMIT is read, and tenant-b would replay the
  // memo ("JOB 2 done") instead of coalescing.
  std::promise<void> release;
  const JobTicket blocker = server.submit(make_blocker(release.get_future().share()));
  std::stringstream in;
  std::ostringstream out;
  LineServer line_server(server, in, out);
  in << "SUBMIT tenant-a RTLCoder-DeepSeek rtllm tasks=3 n=2 temps=0.2\n"
        "SUBMIT tenant-b RTLCoder-DeepSeek rtllm tasks=3 n=2 temps=0.2\n";
  std::size_t handled = line_server.run();
  release.set_value();
  in.clear();  // run() stopped at end of input; the session continues
  in << "ONESHOT RTLCoder-DeepSeek rtllm tasks=3 n=2 temps=0.2\n"
        "WAIT *\n"
        "STATS\n"
        "DRAIN\n"
        "QUIT\n";
  handled += line_server.run();
  EXPECT_EQ(handled, 7u);
  EXPECT_EQ(blocker.wait(), JobStatus::kDone);

  const std::vector<std::string> lines = util::split_lines(out.str());
  std::vector<std::string> verdicts;
  for (const std::string& line : lines) {
    const std::size_t at = line.find("verdict=");
    if (at != std::string::npos) {
      verdicts.push_back(line.substr(at));
      // n=2 jobs report pass@2 under its own name — never a clamped value
      // masquerading as pass5=.
      EXPECT_NE(line.find("pass2="), std::string::npos) << line;
      EXPECT_EQ(line.find("pass5="), std::string::npos) << line;
    }
  }
  ASSERT_EQ(verdicts.size(), 3u);  // oneshot + two tenant results
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(verdicts[1], verdicts[2]);

  bool saw_coalesced_job = false, saw_stats = false, saw_drained = false;
  for (const std::string& line : lines) {
    saw_coalesced_job |= line.find("coalesced") != std::string::npos &&
                         line.rfind("JOB", 0) == 0;
    saw_stats |= line.rfind("STATS", 0) == 0 &&
                 line.find("coalesced=1") != std::string::npos;
    saw_drained |= line == "DRAINED";
  }
  EXPECT_TRUE(saw_coalesced_job) << out.str();
  EXPECT_TRUE(saw_stats) << out.str();
  EXPECT_TRUE(saw_drained) << out.str();
}

TEST(LineProtocol, RejectsUnknownModelsSuitesAndKnobs) {
  Server server{ServerConfig{}};
  std::istringstream in(
      "SUBMIT t NotAModel rtllm\n"
      "SUBMIT t CodeQwen not-a-suite\n"
      "SUBMIT t CodeQwen rtllm bogus=1\n"
      "SUBMIT t CodeQwen rtllm n=abc\n"
      "FROB\n"
      "WAIT 99\n"
      "WAIT 1x\n"
      "QUIT\n");
  std::ostringstream out;
  LineServer line_server(server, in, out);
  line_server.run();

  const std::vector<std::string> lines = util::split_lines(out.str());
  ASSERT_EQ(lines.size(), 7u);
  for (const std::string& line : lines) EXPECT_EQ(line.rfind("ERR", 0), 0u) << line;
  // A malformed session never touches the server proper.
  const ServeCounters stats = server.stats();
  EXPECT_EQ(stats.submitted, 0);
}

TEST(LineProtocol, RejectsMalformedAndOutOfRangeKnobValues) {
  const std::vector<std::vector<std::string>> bad_knobs = {
      {"n=abc"},      {"n=0"},          {"n=-3"},        {"n="},
      {"temps=x"},    {"temps="},       {"temps=0.2,y"},
      {"seed=-1"},    {"seed=12z"},
      {"tasks=0"},    {"tasks=many"},
      {"sicot=2"},    {"lint=maybe"},   {"triage=-1"},
      {"deadline=5s"},{"deadline=-1"},  {"unit-deadline=1.5"},
      {"budget=-1"},  {"retries=-2"},   {"retries=two"},
      {"prove=2"},    {"prove=yes"},    {"prove-budget=-1"}, {"prove-budget=lots"},
      {"repair=2"},   {"repair=yes"},   {"repair-rounds=-1"}, {"repair-rounds=x"},
      {"repair-budget=-1"}, {"repair-efficacy=1.5"}, {"repair-efficacy=-0.1"},
      {"repair-efficacy=abc"},
  };
  for (const std::vector<std::string>& knobs : bad_knobs) {
    EvalJob job;
    std::string error;
    EXPECT_FALSE(parse_job("t", "CodeQwen", "rtllm", knobs, &job, &error))
        << "knob accepted: " << knobs.front();
    EXPECT_NE(error.find("knob"), std::string::npos) << error;
  }
}

// Keys outside the flag table are an ERR, never a silently ignored knob;
// neither abort-on-fault nor the simulator backend is a serve knob.
TEST(LineProtocol, DeletedKnobsAreUnknown) {
  Server server{ServerConfig{}};
  std::istringstream in(
      "SUBMIT t CodeQwen rtllm fail-fast=1\n"
      "SUBMIT t CodeQwen rtllm backend=compiled\n"
      "QUIT\n");
  std::ostringstream out;
  LineServer line_server(server, in, out);
  line_server.run();

  const std::vector<std::string> lines = util::split_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ERR unknown knob 'fail-fast'");
  EXPECT_EQ(lines[1], "ERR unknown knob 'backend'");
  EXPECT_EQ(server.stats().submitted, 0);
}

TEST(LineProtocol, ParseJobAppliesKnobs) {
  EvalJob job;
  std::string error;
  ASSERT_TRUE(parse_job("t", "CodeQwen", "human",
                        {"n=4", "temps=0.2,0.8", "seed=7", "tasks=5", "lint=1",
                         "triage=1", "deadline=1500", "unit-deadline=200",
                         "budget=1000", "prove=1", "prove-budget=4096", "retries=2"},
                        &job, &error))
      << error;
  EXPECT_EQ(job.suite.tasks.size(), 5u);
  EXPECT_EQ(job.request.n_samples, 4);
  EXPECT_EQ(job.request.temperatures, (std::vector<double>{0.2, 0.8}));
  EXPECT_EQ(job.request.seed, 7u);
  EXPECT_TRUE(job.request.lint);
  EXPECT_TRUE(job.request.lint_triage);
  EXPECT_EQ(job.deadline_ms, 1500);
  EXPECT_EQ(job.request.deadline_ms, 200);
  EXPECT_EQ(job.request.sim_step_budget, 1000u);
  EXPECT_TRUE(job.request.prove);
  EXPECT_EQ(job.request.prove_budget, 4096u);
  EXPECT_EQ(job.request.retry.max_retries, 2);
  EXPECT_EQ(job_units(job), 2u * 5u * 4u);
}

TEST(LineProtocol, ParseJobAppliesRepairKnobs) {
  EvalJob job;
  std::string error;
  ASSERT_TRUE(parse_job("t", "CodeQwen", "rtllm",
                        {"repair-rounds=3", "repair-budget=2", "repair-efficacy=0.5"},
                        &job, &error))
      << error;
  EXPECT_EQ(job.request.repair.max_rounds, 3);
  EXPECT_EQ(job.request.repair.attempt_budget, 2);
  EXPECT_DOUBLE_EQ(job.request.repair.efficacy, 0.5);

  // repair=1 is a shorthand that picks the default round count only when
  // repair-rounds= hasn't chosen one; repair=0 forces the loop off.
  EvalJob on;
  ASSERT_TRUE(parse_job("t", "CodeQwen", "rtllm", {"repair=1"}, &on, &error)) << error;
  EXPECT_EQ(on.request.repair.max_rounds, 2);
  EvalJob keep;
  ASSERT_TRUE(parse_job("t", "CodeQwen", "rtllm", {"repair-rounds=5", "repair=1"}, &keep,
                        &error))
      << error;
  EXPECT_EQ(keep.request.repair.max_rounds, 5);
  EvalJob off;
  ASSERT_TRUE(parse_job("t", "CodeQwen", "rtllm", {"repair-rounds=5", "repair=0"}, &off,
                        &error))
      << error;
  EXPECT_EQ(off.request.repair.max_rounds, 0);
  EXPECT_FALSE(off.request.repair.enabled());
}

// The STATS line is a wire contract: fields are appended, never reordered, so
// a golden parse pins the exact names and order (including the repair
// counters this change appended).
TEST(LineProtocol, StatsLineMatchesTheGoldenFieldOrder) {
  Server server{ServerConfig{}};
  std::istringstream in("STATS\nQUIT\n");
  std::ostringstream out;
  LineServer line_server(server, in, out);
  line_server.run();

  const std::vector<std::string> lines = util::split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "STATS submitted=0 admitted=0 coalesced=0 rejected=0 expired=0 "
            "completed=0 failed=0 repair-rounds=0 repaired=0 repair-exhausted=0");
}

// Repair tallies aggregate into STATS from completed computations, and STATS
// stays well-formed after DRAIN (regression: draining must not reset or
// corrupt the counter snapshot).
TEST(LineProtocol, StatsAggregatesRepairCountersAndSurvivesDrain) {
  Server server{ServerConfig{}};
  std::istringstream in(
      "SUBMIT t RTLCoder-DeepSeek rtllm tasks=3 n=2 temps=0.8 repair-rounds=2\n"
      "WAIT *\n"
      "STATS\n"
      "DRAIN\n"
      "STATS\n"
      "QUIT\n");
  std::ostringstream out;
  LineServer line_server(server, in, out);
  line_server.run();

  std::vector<std::string> stats_lines;
  for (const std::string& line : util::split_lines(out.str())) {
    if (line.rfind("STATS", 0) == 0) stats_lines.push_back(line);
  }
  ASSERT_EQ(stats_lines.size(), 2u);
  // Identical snapshots: DRAIN finished the backlog before the first STATS
  // already, so the second must reproduce it verbatim.
  EXPECT_EQ(stats_lines[0], stats_lines[1]);
  EXPECT_NE(stats_lines[0].find("completed=1"), std::string::npos) << stats_lines[0];
  EXPECT_NE(stats_lines[0].find(" repair-rounds="), std::string::npos) << stats_lines[0];

  const ServeCounters stats = server.stats();
  EXPECT_TRUE(serve_counters_consistent(stats));
  EXPECT_GT(stats.repair_rounds, 0);
  EXPECT_LE(stats.repaired_pass + stats.repair_exhausted, stats.repair_rounds);
}

// Digest separation for the repair knobs: a disabled policy binds nothing
// (repair-off jobs keep coalescing with pre-repair peers), while distinct
// enabled configs never share a computation.
TEST(JobDigest, BindsRepairKnobsOnlyWhenEnabled) {
  const EvalJob base = make_job("t");
  const cache::Digest d0 = job_digest(base.model, base.suite, base.request);

  eval::EvalRequest off = base.request;
  off.repair.efficacy = 0.25;  // knobs on a disabled loop are inert
  off.repair.attempt_budget = 7;
  EXPECT_EQ(job_digest(base.model, base.suite, off), d0);

  const cache::Digest two = job_digest(
      base.model, base.suite, eval::EvalRequest(base.request).with_repair_rounds(2));
  EXPECT_NE(two, d0);
  EXPECT_NE(job_digest(base.model, base.suite,
                       eval::EvalRequest(base.request).with_repair_rounds(3)),
            two);
  EXPECT_NE(job_digest(base.model, base.suite,
                       eval::EvalRequest(base.request).with_repair_rounds(2).with_repair_efficacy(0.5)),
            two);
  EXPECT_NE(job_digest(base.model, base.suite,
                       eval::EvalRequest(base.request).with_repair_rounds(2).with_repair_budget(4)),
            two);
}

}  // namespace
}  // namespace haven::serve
