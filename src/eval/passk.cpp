#include "eval/passk.h"

#include <algorithm>
#include <stdexcept>

namespace haven::eval {

double pass_at_k(int n, int c, int k) {
  if (n <= 0 || k <= 0 || k > n) throw std::invalid_argument("pass_at_k: need 0 < k <= n");
  if (c < 0 || c > n) throw std::invalid_argument("pass_at_k: need 0 <= c <= n");
  if (c == 0) return 0.0;
  if (n - c < k) return 1.0;
  // 1 - prod_{i=0..k-1} (n - c - i) / (n - i)
  double prod = 1.0;
  for (int i = 0; i < k; ++i) {
    prod *= static_cast<double>(n - c - i) / static_cast<double>(n - i);
  }
  return 1.0 - prod;
}

int reported_k(int n_samples) { return std::clamp(n_samples, 1, 5); }

double mean_pass_at_k(const std::vector<std::pair<int, int>>& n_c_pairs, int k) {
  if (n_c_pairs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [n, c] : n_c_pairs) sum += pass_at_k(n, c, k);
  return sum / static_cast<double>(n_c_pairs.size());
}

}  // namespace haven::eval
