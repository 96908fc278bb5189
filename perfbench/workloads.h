// The four workloads. Each runs in its own process (one invocation of the
// benchmark), measures after its set-up, verifies its outputs against the
// recorded expectations, and fills the report.
#pragma once

#include "bench.h"

namespace haven::perfbench {

// paper_default, paper_allpaths, paper_warm.
void run_paper(const Options& opt, const Expected& expected, Report* report);
// serve_open. `fold_out`, when set, receives the run's verdict fold.
void run_serve_open(const Options& opt, const Expected& expected, Report* report,
                    cache::Digest* fold_out = nullptr);

// --record: print the expectation lines (stdout) for the paper blocks, and
// the serve_open verdict fold of `opt.seed`.
void record_paper();
void record_serve(const Options& opt);

}  // namespace haven::perfbench
