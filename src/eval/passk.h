// The unbiased pass@k estimator of Chen et al. (Eq. 1 in the paper):
//   pass@k = E_tasks[ 1 - C(n-c, k) / C(n, k) ]
// with n samples per task and c functional passes.
#pragma once

#include <cstddef>
#include <vector>

namespace haven::eval {

// Single-task estimate; requires k <= n. Exact (no floating-point binomials:
// computed as a product of ratios).
double pass_at_k(int n, int c, int k);

// Mean over tasks of per-task estimates.
double mean_pass_at_k(const std::vector<std::pair<int, int>>& n_c_pairs, int k);

// The k of the reported pass@5 column: 5, or n when tasks drew fewer than 5
// samples each, so the estimate stays defined (at least 1). Whoever prints
// the column labels it with this k, never as pass@5.
int reported_k(int n_samples);

}  // namespace haven::eval
