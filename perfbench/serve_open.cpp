// serve_open: an open loop of evaluation jobs against one serve::Server.
//
// The arrival schedule is drawn from the seed before the run: Poisson
// arrivals at kArrivalRate for --seconds, each a fresh job (a random zoo card
// x a random suite x a random temperature x a fresh eval seed, n = 1) or, with
// probability kResubmitShare, a re-submission of one of the last kRecentJobs
// fresh jobs, which the server coalesces. Eight tenants submit round-robin
// from one generator thread, with no rate limits or deadlines. Each job is
// timed from its due time to its ticket turning terminal. A burst of fresh
// jobs then keeps the queue non-empty to measure capacity.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "replay.h"
#include "serve/serve.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace haven::perfbench {
namespace {

constexpr double kArrivalRate = 80.0;  // jobs/s: fresh jobs near a third of capacity
constexpr double kResubmitShare = 0.25;
constexpr std::size_t kRecentJobs = 32;
constexpr int kTenants = 8;
constexpr std::size_t kBurstJobs = 600;
constexpr std::size_t kWarmupJobs = 128;
constexpr std::size_t kSoloSample = 16;
constexpr int kSetupRepeats = 9;
// A run whose generator sent any job later than this after its due time is
// invalid: the offered load would then no longer follow the schedule.
constexpr double kMaxSendLagMs = 200.0;
const double kTemps[] = {0.2, 0.5, 0.8};

struct JobSpec {
  std::size_t card = 0;
  std::size_t suite = 0;
  std::size_t temp = 0;
  std::uint64_t seed = 0;
};

struct Arrival {
  double due_s = 0.0;
  std::size_t job = 0;
  bool resubmit = false;
};

struct Schedule {
  std::vector<JobSpec> jobs;      // fresh jobs: the open loop's, then the burst's
  std::vector<Arrival> arrivals;  // the open loop
  std::size_t open_jobs = 0;
  std::size_t resubmits = 0;
};

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

JobSpec random_job(util::Rng& rng, std::size_t cards, std::size_t suites) {
  JobSpec j;
  j.card = pick(rng, cards);
  j.suite = pick(rng, suites);
  j.temp = pick(rng, std::size(kTemps));
  j.seed = rng.next();
  return j;
}

Schedule make_schedule(std::uint64_t seed, int seconds, std::size_t cards, std::size_t suites) {
  util::Rng rng(seed ^ 0x7365727665ULL);
  Schedule s;
  auto fresh = [&] {
    s.jobs.push_back(random_job(rng, cards, suites));
    return s.jobs.size() - 1;
  };
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / kArrivalRate;
    if (t >= seconds) break;
    if (!s.jobs.empty() && rng.chance(kResubmitShare)) {
      const std::size_t back = pick(rng, std::min(kRecentJobs, s.jobs.size()));
      s.arrivals.push_back({t, s.jobs.size() - 1 - back, true});
      ++s.resubmits;
    } else {
      s.arrivals.push_back({t, fresh(), false});
    }
  }
  s.open_jobs = s.jobs.size();
  for (std::size_t i = 0; i < kBurstJobs; ++i) fresh();
  return s;
}

eval::EvalRequest job_request(const JobSpec& spec) {
  return eval::EvalRequest{}
      .with_samples(1)
      .with_temperature(kTemps[spec.temp])
      .with_seed(spec.seed);
}

serve::EvalJob make_job(const Setup& setup, const JobSpec& spec, std::size_t submission) {
  serve::EvalJob job;
  job.tenant = util::format("tenant-%zu", submission % kTenants);
  job.model = setup.zoo[spec.card];
  job.suite = setup.suites[spec.suite];
  job.request = job_request(spec);
  return job;
}

// Outcome of one fresh job, filled when its ticket turns terminal.
struct Done {
  bool ok = false;
  Clock::time_point at;
  cache::Digest digest;
  Ledger ledger;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double thread_s = 0.0;
  std::int64_t lint_findings = 0;
  std::int64_t retries = 0;
};

// Waits on fresh tickets in admission order. The server runs one computation
// at a time, first in first out, so tickets turn terminal in this order and
// each wait returns as its job completes.
class Collector {
 public:
  explicit Collector(std::vector<Done>* done) : done_(done), thread_([this] { loop(); }) {}
  ~Collector() { close(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::size_t job, serve::JobTicket ticket) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.emplace_back(job, std::move(ticket));
      ++pushed_;
    }
    cv_.notify_all();
  }
  // Block until every pushed ticket has been collected.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return collected_ == pushed_; });
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, serve::JobTicket> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closing_ || !pending_.empty(); });
        if (pending_.empty()) return;
        item = std::move(pending_.front());
        pending_.pop_front();
      }
      const serve::JobStatus status = item.second.wait();
      Done& d = (*done_)[item.first];
      d.at = Clock::now();
      d.ok = status == serve::JobStatus::kDone;
      if (d.ok) {
        const eval::SuiteResult& r = item.second.result();
        d.digest = serve::verdict_digest(r);
        d.ledger.add(r.counters);
        d.wall_s = r.counters.wall_seconds;
        d.cpu_s = r.counters.cpu_seconds;
        d.thread_s = r.counters.wall_seconds * r.counters.threads_used;
        d.lint_findings = r.counters.lint_findings;
        d.retries = r.counters.retries;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++collected_;
      }
      cv_.notify_all();
    }
  }

  std::vector<Done>* done_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, serve::JobTicket>> pending_;
  std::size_t pushed_ = 0;
  std::size_t collected_ = 0;
  bool closing_ = false;
  std::thread thread_;
};

enum class Kind { kFresh, kAttached, kMemo };

struct Sent {
  Clock::time_point due;
  Clock::time_point send;
  Clock::time_point returned;
  Kind kind = Kind::kFresh;
  cache::Digest memo_digest;
};

}  // namespace

void run_serve_open(const Options& opt, const Expected& expected, Report* report,
                    cache::Digest* fold_out) {
  // Set-up: suites, zoo models and server start, median of several.
  Setup setup;
  std::unique_ptr<serve::Server> server;
  serve::ServerConfig config;
  config.threads = static_cast<int>(util::ThreadPool::default_worker_count());
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    Setup s = Setup::make(/*with_haven=*/false);
    auto srv = std::make_unique<serve::Server>(config);
    setups.push_back(seconds_since(start));
    if (i + 1 == kSetupRepeats) {
      setup = std::move(s);
      server = std::move(srv);
    }
  }
  double setup_s = percentile(setups, 0.5);

  const std::size_t cards = setup.zoo.size();
  const Schedule sched = make_schedule(opt.seed, opt.seconds, cards, setup.suites.size());

  // Warm-up, part of set-up: a first burst through a fresh process runs
  // several times slower while its memory is first touched, which would
  // otherwise build a backlog at the start of every open loop.
  {
    const Clock::time_point start = Clock::now();
    util::Rng warm_rng(opt.seed ^ 0x7761726d7570ULL);
    std::vector<serve::JobTicket> warmup;
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      const JobSpec spec = random_job(warm_rng, cards, setup.suites.size());
      warmup.push_back(server->submit(make_job(setup, spec, i)));
    }
    for (const serve::JobTicket& t : warmup) t.wait();
    setup_s += seconds_since(start);
  }
  const serve::ServeCounters before = server->stats();

  std::vector<Done> done(sched.jobs.size());
  std::vector<Sent> sent(sched.arrivals.size());
  std::vector<std::uint64_t> fresh_ids(sched.jobs.size(), 0);
  Collector collector(&done);

  // Open loop: one generator thread (this one) sends each job at its due time.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::size_t unexpected_fresh = 0;
  for (std::size_t i = 0; i < sched.arrivals.size(); ++i) {
    const Arrival& a = sched.arrivals[i];
    serve::EvalJob job = make_job(setup, sched.jobs[a.job], i);
    Sent& s = sent[i];
    s.due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(s.due);
    s.send = Clock::now();
    serve::JobTicket ticket = server->submit(std::move(job));
    s.returned = Clock::now();
    if (!ticket.coalesced()) {
      s.kind = Kind::kFresh;
      unexpected_fresh += a.resubmit;
      fresh_ids[a.job] = ticket.id();
      collector.push(a.job, std::move(ticket));
    } else if (ticket.id() == fresh_ids[a.job]) {
      s.kind = Kind::kAttached;  // completes with the computation it joined
    } else {
      s.kind = Kind::kMemo;  // replayed from the memo: terminal when submit() returned
      if (ticket.status() == serve::JobStatus::kDone) {
        s.memo_digest = serve::verdict_digest(ticket.result());
      }
    }
  }
  collector.wait_idle();

  // Burst: every remaining fresh job at once; the queue stays non-empty.
  for (std::size_t j = sched.open_jobs; j < sched.jobs.size(); ++j) {
    const std::size_t submission = sched.arrivals.size() + j;
    collector.push(j, server->submit(make_job(setup, sched.jobs[j], submission)));
  }
  collector.wait_idle();
  collector.close();
  serve::ServeCounters counters = server->stats();
  for (auto field : {&serve::ServeCounters::submitted, &serve::ServeCounters::admitted,
                     &serve::ServeCounters::coalesced, &serve::ServeCounters::rejected,
                     &serve::ServeCounters::expired, &serve::ServeCounters::completed,
                     &serve::ServeCounters::failed}) {
    counters.*field -= before.*field;
  }

  // Latency of every open-loop submission, from due time to terminal.
  std::vector<double> latency_ms;
  std::vector<double> submit_ms;
  double max_lag_ms = 0.0;
  std::int64_t memo_mismatch = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const Done& d = done[sched.arrivals[i].job];
    const Clock::time_point end = s.kind == Kind::kMemo ? s.returned : d.at;
    latency_ms.push_back(seconds_between(s.due, end) * 1e3);
    submit_ms.push_back(seconds_between(s.send, s.returned) * 1e3);
    max_lag_ms = std::max(max_lag_ms, seconds_between(s.due, s.send) * 1e3);
    memo_mismatch += s.kind == Kind::kMemo && s.memo_digest != d.digest;
  }
  // Queue wait and run time of the open loop's fresh jobs: the dispatcher
  // starts a job when it has been queued and the previous one has finished.
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  Clock::time_point prev_done{};
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].kind != Kind::kFresh) continue;
    const Done& d = done[sched.arrivals[i].job];
    const Clock::time_point start = std::max(sent[i].returned, prev_done);
    queue_ms.push_back(seconds_between(sent[i].returned, start) * 1e3);
    run_ms.push_back(seconds_between(start, d.at) * 1e3);
    prev_done = d.at;
  }
  // Capacity: burst completions after the first one, over their span.
  const Done& first = done[sched.open_jobs];
  const Done& last = done.back();
  const double burst_s = seconds_between(first.at, last.at);
  std::int64_t burst_units = 0;
  for (std::size_t j = sched.open_jobs + 1; j < sched.jobs.size(); ++j) {
    burst_units += static_cast<std::int64_t>(setup.suites[sched.jobs[j].suite].tasks.size());
  }

  // Verification.
  Ledger total;
  std::int64_t failed_jobs = 0;
  for (const Done& d : done) {
    failed_jobs += !d.ok;
    total.add(d.ledger);
  }
  if (failed_jobs != 0) {
    report->fail(
        util::format("%lld jobs did not complete", static_cast<long long>(failed_jobs)));
  }
  const auto resubmits = static_cast<std::int64_t>(sched.resubmits);
  if (unexpected_fresh != 0 || counters.coalesced != resubmits) {
    report->fail(util::format("coalesced %lld of %zu re-submissions",
                              static_cast<long long>(counters.coalesced), sched.resubmits));
  }
  const std::int64_t refused = counters.rejected + counters.expired + counters.failed;
  if (!serve::serve_counters_consistent(counters) || refused != 0) {
    report->fail("serve counters inconsistent or jobs refused");
  }
  if (memo_mismatch != 0) report->fail("a memo replay differs from its original job");
  if (total.unit_faults != 0) report->fail("unit faults in a fault-free workload");
  if (max_lag_ms > kMaxSendLagMs) {
    report->fail(util::format("invalid run: the generator sent a job %.1f ms late (limit %.0f)",
                              max_lag_ms, kMaxSendLagMs));
  }
  util::Rng sample_rng(opt.seed ^ 0x736f6c6fULL);
  for (std::size_t k = 0; k < kSoloSample; ++k) {
    const auto j = static_cast<std::size_t>(
        sample_rng.uniform_int(0, static_cast<std::int64_t>(sched.jobs.size()) - 1));
    const JobSpec& spec = sched.jobs[j];
    const eval::EvalEngine engine(job_request(spec).with_threads(1));
    const eval::SuiteResult solo = engine.evaluate(setup.zoo[spec.card], setup.suites[spec.suite]);
    Ledger want;
    want.add(solo.counters);
    want.cache_misses = done[j].ledger.cache_misses;  // the served run had the shared cache on
    if (serve::verdict_digest(solo) != done[j].digest || !(want == done[j].ledger)) {
      report->fail(util::format("served job %zu differs from a solo EvalEngine run", j));
    }
  }
  cache::Hasher fold;
  fold.bytes("perfbench.serve.v1");
  auto fold_job = [&](std::size_t j) { fold.u64(done[j].digest.hi).u64(done[j].digest.lo); };
  for (const Arrival& a : sched.arrivals) fold_job(a.job);
  for (std::size_t j = sched.open_jobs; j < sched.jobs.size(); ++j) fold_job(j);
  if (auto it = expected.serve_folds.find({opt.seed, opt.seconds});
      it != expected.serve_folds.end() && it->second != fold.digest()) {
    report->fail(util::format("verdict fold %s, recorded %s",
                              cache::to_hex(fold.digest()).c_str(),
                              cache::to_hex(it->second).c_str()));
  }
  if (fold_out != nullptr) *fold_out = fold.digest();

  report->attempted = counters.submitted;
  report->failed = refused;
  const double p99 = percentile(latency_ms, 0.99);
  const auto beyond =
      std::count_if(latency_ms.begin(), latency_ms.end(), [&](double v) { return v > p99; });
  const double coalesced_share = ratio(static_cast<double>(counters.coalesced),
                                       static_cast<double>(counters.submitted));
  report->note(util::format(
      "serve_open seed=%llu workers=%zu open_jobs=%zu fresh=%zu resubmits=%zu burst=%zu "
      "beyond_p99=%lld max_send_lag_ms=%.3f verdict_fold=%s",
      static_cast<unsigned long long>(opt.seed), server->pool_width(), sched.arrivals.size(),
      sched.open_jobs, sched.resubmits, kBurstJobs, static_cast<long long>(beyond), max_lag_ms,
      cache::to_hex(fold.digest()).c_str()));
  report->note(util::format("ledger serve.coalesced_share=%.6f ", coalesced_share) +
               total.describe());

  if (!opt.trace) {
    report->metric("candidates_per_s", static_cast<double>(burst_units) / burst_s,
                   "candidates/s");
    report->metric("capacity_jobs_per_s", static_cast<double>(kBurstJobs - 1) / burst_s,
                   "jobs/s");
    report->metric("job_latency_p50_ms", percentile(latency_ms, 0.5), "ms");
    report->metric("job_latency_p99_ms", p99, "ms");
    report->metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report->metric("setup_s", setup_s, "s");
    return;
  }

  // Traced run: submit() timings become spans, and every fresh job is
  // replayed unit by unit against a cache of its own.
  Tracer tracer;
  for (const Sent& s : sent) tracer.record(Fn::kServeSubmit, s.send, s.returned);
  cache::ResultCache replay_cache;
  Replayer replayer(&tracer, util::ThreadPool::default_worker_count());
  double replay_s = 0.0, sim_ns = 0.0, evaluate_s = 0.0, cpu_s = 0.0, thread_s = 0.0;
  std::int64_t generations = 0, distinct = 0, findings = 0, retries = 0;
  for (std::size_t j = 0; j < sched.jobs.size(); ++j) {
    const JobSpec& spec = sched.jobs[j];
    ReplayJob rj;
    rj.model = &setup.zoo[spec.card];
    rj.suite = &setup.suites[spec.suite];
    rj.request = job_request(spec).with_cache(&replay_cache);
    const ReplayOutcome out = replayer.run(rj, true);
    if (out.digest != done[j].digest || !(out.ledger == done[j].ledger)) {
      report->fail(util::format("replay of job %zu differs from the served result", j));
    }
    replay_s += out.wall_s;
    sim_ns += out.sim_ns;
    generations += out.generations;
    distinct += out.distinct_sources;
    evaluate_s += done[j].wall_s;
    cpu_s += done[j].cpu_s;
    thread_s += done[j].thread_s;
    findings += done[j].lint_findings;
    retries += done[j].retries;
  }
  if (!opt.spans.empty() && !tracer.write(opt.spans)) {
    report->fail("cannot write spans to " + opt.spans);
  }
  LayerMetrics m;
  m.add_spans(tracer);
  m.set("llm.distinct_source_share",
        ratio(static_cast<double>(distinct), static_cast<double>(generations)));
  m.set("verilog.compile_failures", static_cast<double>(total.compile_failures));
  m.set("sim.simulated", static_cast<double>(total.simulated));
  m.set("sim.vectors", static_cast<double>(total.sim_vectors));
  m.set("sim.ns_per_vector", ratio(sim_ns, static_cast<double>(total.sim_vectors)));
  m.set("lint.findings", static_cast<double>(findings));
  m.set("cache.hits", static_cast<double>(total.cache_hits));
  m.set("cache.misses", static_cast<double>(total.cache_misses));
  m.set("cache.hit_ratio", ratio(static_cast<double>(total.cache_hits),
                                 static_cast<double>(total.cache_hits + total.cache_misses)));
  const cache::CacheStats cs = server->cache()->stats();
  m.set("cache.bytes", static_cast<double>(cs.bytes));
  m.set("cache.evictions", static_cast<double>(cs.evictions));
  m.set("eval.evaluate_s", evaluate_s);
  m.set("eval.pool_utilization", ratio(cpu_s, thread_s));
  m.set("eval.unit_faults", static_cast<double>(total.unit_faults));
  m.set("eval.retries", static_cast<double>(retries));
  m.set("serve.queue_wait_p50_ms", percentile(queue_ms, 0.5));
  m.set("serve.queue_wait_p99_ms", percentile(queue_ms, 0.99));
  m.set("serve.run_p50_ms", percentile(run_ms, 0.5));
  m.set("serve.coalesced_share", coalesced_share);
  m.set("serve.admitted", static_cast<double>(counters.admitted));
  m.set("serve.rejected", static_cast<double>(counters.rejected));
  m.set("serve.send_lag_max_ms", max_lag_ms);
  double served_s = 0.0;
  for (const Done& d : done) served_s += d.wall_s;
  m.set("trace.overhead_share", ratio(replay_s, served_s));
  report->note(util::format("trace spans=%zu replay_s=%.3f served_evaluate_s=%.3f",
                            tracer.span_count(), replay_s, served_s));
  m.emit(report);
}

void record_serve(const Options& opt) {
  Options o = opt;
  o.trace = false;
  Report report;
  cache::Digest fold;
  run_serve_open(o, Expected{}, &report, &fold);
  if (!report.correct()) {
    report.print();
    std::exit(1);
  }
  std::printf("serve\t%llu\t%d\t%s\n", static_cast<unsigned long long>(opt.seed), opt.seconds,
              cache::to_hex(fold).c_str());
}

}  // namespace haven::perfbench
