// The Table IV workloads. The composition is every (row, suite) evaluation of
// Table IV: 22 rows (19 zoo cards + 3 HaVen models with SI-CoT) x 4 suites,
// at the paper's n = 10 and temperatures {0.2, 0.5, 0.8}. Each suite is split
// into eight fixed slices balanced by test cost (make_slices), and block q is
// the 88 evaluate() calls of slice q: a stratified eighth of Table IV, about
// 40k candidates. The timed phase runs whole blocks, in an order drawn from
// the seed, until --seconds have passed, so every run measures a similar mix.
//
//  * paper_default: default knobs, 1 worker (the engine's serial path).
//  * paper_allpaths: lint triage, prove, 2 repair rounds and a cold result
//    cache at its default budget (a new cache per block), nproc workers.
//  * paper_warm: paper_default's request against a cache that one cold pass
//    over two seeded blocks fills during set-up; the timed phase repeats
//    those two blocks, so every verdict is a cache read. nproc workers.
//
// The eval seed is the engine's default in every workload, so each block's
// verdict digests and counts are fixed and recorded in expected.tsv; the
// workload seed only orders the blocks and the calls inside them.
#include <algorithm>
#include <memory>
#include <numeric>

#include "cache/result_cache.h"
#include "replay.h"
#include "serve/serve.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace haven::perfbench {
namespace {

constexpr int kSlices = 8;
constexpr int kSuites = 4;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kMaxBlocks = 400;

enum class Paper { kDefault, kAllPaths, kWarm };

struct Grid {
  Setup setup;
  std::vector<eval::Suite> slices;  // [suite * kSlices + slice]

  const eval::Suite& slice(int suite, int q) const {
    return slices[static_cast<std::size_t>(suite * kSlices + q)];
  }
  int cells() const { return static_cast<int>(setup.rows.size()) * kSuites; }
};

// Vectors or cycles the testbench drives for a task: the per-candidate cost
// that varies most between tasks (an exhaustive 12-bit sweep is 4096 vectors,
// a sequential test 48 cycles).
std::uint64_t test_vectors(const eval::EvalTask& task) {
  const sim::StimulusSpec& s = task.stimulus;
  if (s.sequential) return static_cast<std::uint64_t>(s.cycles);
  int bits = 0;
  for (const llm::TaskSpec::PortInfo& p : task.spec.interface()) {
    if (p.is_input && p.name != s.clock && p.name != s.reset) bits += p.width;
  }
  if (bits <= s.max_exhaustive_bits && bits <= 20) return std::uint64_t{1} << bits;
  return static_cast<std::uint64_t>(s.random_vectors);
}

// Split each suite's tasks into the slices so that every slice of a suite
// gets the same number of tasks and every block an even share of the test
// cost: the tasks, in descending cost, are dealt in rounds of one per slice,
// the heaviest of each round to the block with the least cost so far (a fixed
// assignment, independent of the seed). A task's cost is its vectors plus the
// vector-equivalent of the work every candidate does regardless of them.
void make_slices(Grid* g) {
  std::vector<std::uint64_t> block_load(kSlices, 0);
  g->slices.clear();
  for (const eval::Suite& suite : g->setup.suites) {
    std::vector<std::size_t> by_cost(suite.tasks.size());
    std::iota(by_cost.begin(), by_cost.end(), 0);
    auto cost = [&](std::size_t t) { return test_vectors(suite.tasks[t]) + 1500; };
    std::stable_sort(by_cost.begin(), by_cost.end(),
                     [&](std::size_t a, std::size_t b) { return cost(a) > cost(b); });
    std::vector<std::vector<std::size_t>> members(kSlices);
    for (std::size_t round = 0; round < by_cost.size(); round += kSlices) {
      std::vector<std::size_t> lightest(kSlices);
      std::iota(lightest.begin(), lightest.end(), 0);
      std::stable_sort(lightest.begin(), lightest.end(), [&](std::size_t a, std::size_t b) {
        return block_load[a] < block_load[b];
      });
      for (std::size_t k = 0; k < lightest.size() && round + k < by_cost.size(); ++k) {
        const std::size_t t = by_cost[round + k];
        members[lightest[k]].push_back(t);
        block_load[lightest[k]] += cost(t);
      }
    }
    for (int q = 0; q < kSlices; ++q) {
      std::vector<std::size_t>& idx = members[static_cast<std::size_t>(q)];
      std::sort(idx.begin(), idx.end());
      eval::Suite slice;
      slice.name = suite.name + util::format("/%dof%d", q + 1, kSlices);
      for (std::size_t i : idx) slice.tasks.push_back(suite.tasks[i]);
      g->slices.push_back(std::move(slice));
    }
  }
}

eval::EvalRequest cell_request(const Row& row, bool allpaths, int threads,
                               cache::ResultCache* cache) {
  eval::EvalRequest r;
  r.with_threads(threads).with_cache(cache);
  if (row.cot != nullptr) r.with_sicot().set_cot_model(*row.cot);
  if (allpaths) r.with_lint_triage().with_prove().with_repair_rounds(2);
  return r;
}

// One evaluate() call of a block, in canonical (row, suite) position.
struct Cell {
  cache::Digest digest;
  Ledger ledger;
  double wall_ms = 0.0;
};

struct Block {
  int slice = 0;
  std::vector<int> order;  // cell indices in execution order
  std::vector<Cell> cells;  // canonical order: row * kSuites + suite
  cache::Digest fold;
  Ledger ledger;
  double wall_s = 0.0;
  // eval-layer sums from the SuiteResult counters.
  double evaluate_s = 0.0;
  double cpu_s = 0.0;
  double thread_s = 0.0;
  std::int64_t lint_findings = 0;
  std::int64_t repair_exhausted = 0;
  std::int64_t retries = 0;
  std::int64_t cache_bytes = 0;
  std::int64_t cache_evictions = 0;
};

cache::Digest fold_cells(const std::vector<Cell>& cells) {
  cache::Hasher h;
  h.bytes("perfbench.block.v1");
  for (const Cell& c : cells) h.u64(c.digest.hi).u64(c.digest.lo);
  return h.digest();
}

Block run_block(const Grid& g, int q, bool allpaths, int threads, cache::ResultCache* cache,
                util::Rng& order_rng) {
  Block b;
  b.slice = q;
  b.order.resize(static_cast<std::size_t>(g.cells()));
  std::iota(b.order.begin(), b.order.end(), 0);
  order_rng.shuffle(b.order);
  b.cells.resize(b.order.size());
  const Clock::time_point start = Clock::now();
  for (int c : b.order) {
    const Row& row = g.setup.rows[static_cast<std::size_t>(c / kSuites)];
    const eval::EvalEngine engine(cell_request(row, allpaths, threads, cache));
    const Clock::time_point t0 = Clock::now();
    const eval::SuiteResult r = engine.evaluate(*row.model, g.slice(c % kSuites, q));
    Cell& cell = b.cells[static_cast<std::size_t>(c)];
    cell.wall_ms = seconds_since(t0) * 1e3;
    cell.digest = serve::verdict_digest(r);
    cell.ledger.add(r.counters);
    b.evaluate_s += r.counters.wall_seconds;
    b.cpu_s += r.counters.cpu_seconds;
    b.thread_s += r.counters.wall_seconds * r.counters.threads_used;
    b.lint_findings += r.counters.lint_findings;
    b.repair_exhausted += r.counters.repair_exhausted;
    b.retries += r.counters.retries;
    b.cache_evictions += r.counters.cache_evictions;
    b.cache_bytes = std::max<std::int64_t>(b.cache_bytes, r.counters.cache_bytes);
  }
  b.wall_s = seconds_since(start);
  for (const Cell& c : b.cells) b.ledger.add(c.ledger);
  b.fold = fold_cells(b.cells);
  return b;
}

// The ledger of a block replayed entirely from the cache: every candidate is
// a hit, no pipeline bucket moves.
Ledger warm_ledger(const Ledger& cold) {
  Ledger l;
  l.candidates = cold.candidates;
  l.cache_hits = cold.candidates;
  return l;
}

void check_block(const Block& b, const Expected& expected, const std::string& config,
                 bool warm, Report* report) {
  const Expected::Block* want = expected.block(config, b.slice);
  if (want == nullptr) {
    report->fail(util::format("no recorded %s block %d", config.c_str(), b.slice));
    return;
  }
  if (b.fold != want->fold) {
    report->fail(util::format("%s block %d: verdict digest %s, recorded %s", config.c_str(),
                              b.slice, cache::to_hex(b.fold).c_str(),
                              cache::to_hex(want->fold).c_str()));
  }
  const Ledger want_ledger = warm ? warm_ledger(want->ledger) : want->ledger;
  if (!(b.ledger == want_ledger)) {
    report->fail(util::format("%s block %d: counts [%s], recorded [%s]", config.c_str(),
                              b.slice, b.ledger.describe().c_str(),
                              want_ledger.describe().c_str()));
  }
}

// Replay every executed block through the public functions and check it
// reproduces the untraced run cell by cell.
struct TraceTotals {
  double replay_s = 0.0;
  double sim_ns = 0.0;
  std::int64_t generations = 0;
  std::int64_t distinct = 0;
};

TraceTotals replay_blocks(const Grid& g, const std::vector<Block>& blocks, bool allpaths,
                          int threads, cache::ResultCache* warm_cache, Tracer* tracer,
                          const Expected* expected, const std::string& config,
                          Report* report) {
  TraceTotals totals;
  Replayer replayer(tracer, static_cast<std::size_t>(threads));
  for (const Block& b : blocks) {
    std::unique_ptr<cache::ResultCache> cold;
    if (allpaths) cold = std::make_unique<cache::ResultCache>();
    cache::ResultCache* cache = allpaths ? cold.get() : warm_cache;
    std::int64_t distinct = 0;
    for (int c : b.order) {
      const Row& row = g.setup.rows[static_cast<std::size_t>(c / kSuites)];
      ReplayJob job;
      job.model = row.model;
      job.suite = &g.slice(c % kSuites, b.slice);
      job.request = cell_request(row, allpaths, threads, cache);
      const ReplayOutcome out = replayer.run(job, tracer != nullptr);
      const Cell& cell = b.cells[static_cast<std::size_t>(c)];
      if (out.digest != cell.digest || !(out.ledger == cell.ledger)) {
        report->fail(util::format(
            "replay of %s on %s differs from evaluate(): digest %s vs %s, counts [%s] vs [%s]",
            row.model->name().c_str(), job.suite->name.c_str(),
            cache::to_hex(out.digest).c_str(), cache::to_hex(cell.digest).c_str(),
            out.ledger.describe().c_str(), cell.ledger.describe().c_str()));
      }
      totals.replay_s += out.wall_s;
      totals.sim_ns += out.sim_ns;
      totals.generations += out.generations;
      distinct += out.distinct_sources;
    }
    totals.distinct += distinct;
    if (expected != nullptr) {
      const Expected::Block* want = expected->block(config, b.slice);
      if (want != nullptr && want->distinct_sources != distinct) {
        report->fail(util::format("%s block %d: %lld distinct sources, recorded %lld",
                                  config.c_str(), b.slice, static_cast<long long>(distinct),
                                  static_cast<long long>(want->distinct_sources)));
      }
    }
  }
  return totals;
}

}  // namespace

void run_paper(const Options& opt, const Expected& expected, Report* report) {
  const Paper kind = opt.workload == "paper_allpaths" ? Paper::kAllPaths
                     : opt.workload == "paper_warm"   ? Paper::kWarm
                                                      : Paper::kDefault;
  const bool allpaths = kind == Paper::kAllPaths;
  const std::string config = allpaths ? "allpaths" : "default";
  const int nproc = static_cast<int>(util::ThreadPool::default_worker_count());
  const int threads = kind == Paper::kDefault ? 1 : nproc;

  // Set-up: suites and their slices, the zoo, the three HaVen builds
  // (median of several), then paper_warm's cold fill.
  Grid g;
  std::vector<double> setups;
  std::vector<double> builds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    Grid fresh;
    fresh.setup = Setup::make(/*with_haven=*/true);
    make_slices(&fresh);
    setups.push_back(seconds_since(start));
    builds.push_back(fresh.setup.build_s);
    if (i + 1 == kSetupRepeats) g = std::move(fresh);
  }
  double setup_s = percentile(setups, 0.5);

  util::Rng order_rng(opt.seed ^ 0x7065726662656e63ULL);
  std::vector<int> permutation(kSlices);
  std::iota(permutation.begin(), permutation.end(), 0);
  order_rng.shuffle(permutation);
  std::size_t next = 0;
  auto next_slice = [&]() {
    if (kind == Paper::kWarm) return permutation[next++ % 2];
    if (next == permutation.size()) {
      order_rng.shuffle(permutation);
      next = 0;
    }
    return permutation[next++];
  };

  std::unique_ptr<cache::ResultCache> warm_cache;
  std::map<int, cache::Digest> fill_folds;
  if (kind == Paper::kWarm) {
    const Clock::time_point start = Clock::now();
    warm_cache = std::make_unique<cache::ResultCache>();
    for (int k = 0; k < 2; ++k) {
      const Block fill = run_block(g, permutation[static_cast<std::size_t>(k)], false, threads,
                                   warm_cache.get(), order_rng);
      const Expected::Block* want = expected.block("default", fill.slice);
      Ledger want_ledger;
      if (want != nullptr) {
        want_ledger = want->ledger;
        want_ledger.cache_misses = want_ledger.candidates;
      }
      if (want == nullptr || fill.fold != want->fold || !(fill.ledger == want_ledger)) {
        report->fail(
            util::format("cold fill of block %d differs from the recorded default run", fill.slice));
      }
      fill_folds[fill.slice] = fill.fold;
    }
    setup_s += seconds_since(start);
  }

  // Timed phase: whole blocks until --seconds have passed.
  std::vector<Block> blocks;
  double timed_s = 0.0;
  while (timed_s < opt.seconds && blocks.size() < kMaxBlocks) {
    const int q = next_slice();
    std::unique_ptr<cache::ResultCache> cold;
    if (allpaths) cold = std::make_unique<cache::ResultCache>();
    cache::ResultCache* cache = allpaths ? cold.get() : warm_cache.get();
    blocks.push_back(run_block(g, q, allpaths, threads, cache, order_rng));
    timed_s += blocks.back().wall_s;
  }

  Ledger total;
  std::vector<double> cell_ms;
  for (const Block& b : blocks) {
    total.add(b.ledger);
    for (const Cell& c : b.cells) cell_ms.push_back(c.wall_ms);
    check_block(b, expected, config, kind == Paper::kWarm, report);
    if (kind == Paper::kWarm && b.fold != fill_folds[b.slice]) {
      report->fail(util::format("warm block %d differs from its cold fill", b.slice));
    }
  }
  report->attempted = total.candidates;
  report->failed = total.unit_faults;
  if (total.unit_faults != 0) report->fail("unit faults in a fault-free workload");

  std::string order;
  for (const Block& b : blocks) {
    order += util::format("%s%d:%.3fs", order.empty() ? "" : ",", b.slice, b.wall_s);
  }
  const double p99 = percentile(cell_ms, 0.99);
  const auto beyond =
      std::count_if(cell_ms.begin(), cell_ms.end(), [&](double v) { return v > p99; });
  report->note(util::format(
      "%s seed=%llu threads=%d blocks=%zu slices=[%s] jobs=%zu beyond_p99=%lld",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), threads, blocks.size(),
      order.c_str(), cell_ms.size(), static_cast<long long>(beyond)));
  report->note("ledger " + total.describe());

  if (!opt.trace) {
    report->metric("candidates_per_s", static_cast<double>(total.candidates) / timed_s,
                   "candidates/s");
    report->metric("capacity_jobs_per_s", static_cast<double>(cell_ms.size()) / timed_s,
                   "jobs/s");
    report->metric("job_latency_p50_ms", percentile(cell_ms, 0.5), "ms");
    report->metric("job_latency_p99_ms", p99, "ms");
    report->metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report->metric("setup_s", setup_s, "s");
    return;
  }

  Tracer tracer;
  const TraceTotals t = replay_blocks(g, blocks, allpaths, threads, warm_cache.get(), &tracer,
                                      &expected, config, report);
  if (!opt.spans.empty() && !tracer.write(opt.spans)) {
    report->fail("cannot write spans to " + opt.spans);
  }
  LayerMetrics m;
  m.add_spans(tracer);
  double evaluate_s = 0, cpu_s = 0, thread_s = 0;
  std::int64_t findings = 0, exhausted = 0, retries = 0, bytes = 0, evictions = 0;
  for (const Block& b : blocks) {
    evaluate_s += b.evaluate_s;
    cpu_s += b.cpu_s;
    thread_s += b.thread_s;
    findings += b.lint_findings;
    exhausted += b.repair_exhausted;
    retries += b.retries;
    evictions += b.cache_evictions;
    bytes = std::max(bytes, b.cache_bytes);
  }
  auto num = [](std::int64_t v) { return static_cast<double>(v); };
  // Passes that reached lint: every pass but faults, compile failures and hits.
  const std::int64_t linted = total.candidates + total.repair_rounds - total.unit_faults -
                              total.compile_failures - total.cache_hits;
  m.set("core.build_s", percentile(builds, 0.5));
  m.set("llm.distinct_source_share", ratio(num(t.distinct), num(t.generations)));
  m.set("verilog.compile_failures", num(total.compile_failures));
  m.set("sim.simulated", num(total.simulated));
  m.set("sim.vectors", num(total.sim_vectors));
  m.set("sim.ns_per_vector", ratio(t.sim_ns, num(total.sim_vectors)));
  m.set("lint.findings", num(findings));
  m.set("lint.triaged", num(total.lint_triaged));
  m.set("lint.triage_ratio", allpaths ? ratio(num(total.lint_triaged), num(linted)) : 0.0);
  m.set("prove.decided", num(total.prove_decided));
  m.set("prove.fallback", num(total.prove_fallback));
  m.set("prove.decided_ratio",
        ratio(num(total.prove_decided), num(total.prove_decided + total.prove_fallback)));
  m.set("repair.rounds", num(total.repair_rounds));
  m.set("repair.repaired", num(total.repaired));
  m.set("repair.rescue_ratio", ratio(num(total.repaired), num(total.repaired + exhausted)));
  m.set("cache.hits", num(total.cache_hits));
  m.set("cache.misses", num(total.cache_misses));
  m.set("cache.hit_ratio",
        ratio(num(total.cache_hits), num(total.cache_hits + total.cache_misses)));
  m.set("cache.bytes", num(bytes));
  m.set("cache.evictions", num(evictions));
  m.set("eval.evaluate_s", evaluate_s);
  m.set("eval.pool_utilization", ratio(cpu_s, thread_s));
  m.set("eval.unit_faults", num(total.unit_faults));
  m.set("eval.retries", num(retries));
  m.set("trace.overhead_share", ratio(t.replay_s, timed_s));
  report->note(util::format("trace spans=%zu replay_s=%.3f timed_s=%.3f", tracer.span_count(),
                            t.replay_s, timed_s));
  m.emit(report);
}

void record_paper() {
  Grid g;
  g.setup = Setup::make(true);
  make_slices(&g);
  const int threads = static_cast<int>(util::ThreadPool::default_worker_count());
  util::Rng order_rng(1);
  Report report;
  std::printf(
      "# kind\tconfig\tslice\tverdict_fold\tcandidates\tunit_faults\tcompile_failures\t"
      "simulated\tsim_vectors\tlint_triaged\tprove_decided\tprove_fallback\tcache_hits\t"
      "cache_misses\trepair_rounds\trepaired\tdistinct_sources\n");
  for (const bool allpaths : {false, true}) {
    const std::string config = allpaths ? "allpaths" : "default";
    for (int q = 0; q < kSlices; ++q) {
      std::unique_ptr<cache::ResultCache> cache;
      if (allpaths) cache = std::make_unique<cache::ResultCache>();
      const Block b = run_block(g, q, allpaths, threads, cache.get(), order_rng);
      const TraceTotals t = replay_blocks(g, {b}, allpaths, threads, nullptr, nullptr, nullptr,
                                          config, &report);
      std::printf("block\t%s\t%d\t%s\t%s\t%lld\n", config.c_str(), q,
                  cache::to_hex(b.fold).c_str(), b.ledger.to_string().c_str(),
                  static_cast<long long>(t.distinct));
      std::fflush(stdout);
    }
  }
  if (!report.correct()) {
    report.print();
    std::exit(1);
  }
}

}  // namespace haven::perfbench
