#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t NearestRank(double p, std::size_t n) {
  const double exact = p * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t SamplesNeeded(double p) {
  std::size_t n = kMinBeyond + 1;
  while (n - NearestRank(p, n) < kMinBeyond) ++n;
  return n;
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = NearestRank(p, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double MedianSegmentRate(const std::vector<double>& work,
                         const std::vector<double>& seconds,
                         std::size_t segments) {
  const std::size_t n = std::min(work.size(), seconds.size());
  if (segments == 0 || n < segments) return 0.0;
  std::vector<double> rates;
  for (std::size_t s = 0; s < segments; ++s) {
    double w = 0.0, t = 0.0;
    for (std::size_t i = s * n / segments; i < (s + 1) * n / segments; ++i) {
      w += work[i];
      t += seconds[i];
    }
    rates.push_back(t > 0.0 ? w / t : 0.0);
  }
  std::sort(rates.begin(), rates.end());
  return segments % 2 == 1
             ? rates[segments / 2]
             : 0.5 * (rates[segments / 2 - 1] + rates[segments / 2]);
}

}  // namespace perfbench
