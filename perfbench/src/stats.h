// Sample statistics with the benchmark's reporting rule: a percentile is
// reported only when at least kMinBeyond samples lie above it, so a p99
// never rests on a handful of observations.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile's rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position (1-based) of quantile `p` in (0, 1) over `n`
/// samples: the smallest rank r with r >= p * n.
std::size_t NearestRank(double p, std::size_t n);

/// Smallest sample count for which quantile `p` has kMinBeyond samples
/// beyond its nearest rank.
std::size_t SamplesNeeded(double p);

/// Nearest-rank quantile `p` of `samples`, or nullopt when fewer than
/// kMinBeyond samples lie beyond it (the refusal rule).
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Throughput that a stretch of slow machine time cannot decide: the
/// samples, in order, are cut into `segments` contiguous runs of equal
/// count, each run's rate is its summed work over its summed seconds,
/// and the median rate is returned (0 when there are fewer samples than
/// segments).
double MedianSegmentRate(const std::vector<double>& work,
                         const std::vector<double>& seconds,
                         std::size_t segments);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
