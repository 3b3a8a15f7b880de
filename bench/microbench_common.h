// Shared helpers of the plain-main microbenches (microbench_batch_knn,
// microbench_quantized_knn, microbench_join, microbench_recall, ...).
//
// These binaries deliberately do NOT link google-benchmark — they print
// their own JSON and enforce invariants with exit codes — so this header
// must stay free of <benchmark/benchmark.h> (bench_common.h includes it
// on top for the figure benchmarks). Everything here is seeded and
// deterministic: two benches calling the same generator with the same
// seed get bit-identical workloads.

#ifndef PARSIM_BENCH_MICROBENCH_COMMON_H_
#define PARSIM_BENCH_MICROBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/geometry/point.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace bench {

/// Positive-integer environment override (PARSIM_BENCH_N and friends);
/// falls back on unset, empty, or unparsable values.
inline std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::size_t parsed =
      static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  if (parsed == 0) {
    std::fprintf(stderr, "ignoring %s=\"%s\" (want a positive integer)\n",
                 name, value);
    return fallback;
  }
  return parsed;
}

/// Wall-time summary of repeated runs: the median is the headline (and
/// what floors compare), min and the interquartile range the noise band.
struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double iqr_ms = 0.0;
};

/// One untimed warm-up call of `fn`, then `reps` (>= 1) timed calls.
/// Quantiles interpolate linearly between order statistics.
template <typename Fn>
Timing Measure(int reps, const Fn& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    ms.push_back(watch.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  const auto quantile = [&ms](double q) {
    const double pos = q * static_cast<double>(ms.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, ms.size() - 1);
    return ms[lo] + (pos - static_cast<double>(lo)) * (ms[hi] - ms[lo]);
  };
  return Timing{quantile(0.5), ms.front(), quantile(0.75) - quantile(0.25)};
}

/// Hot-spot query workload: every query is a small Gaussian jitter
/// around one of `hotspots` data points, so batch frontiers overlap
/// heavily and page coalescing has something to coalesce.
inline PointSet MakeHotSpotQueries(const PointSet& data, std::size_t n,
                                   std::size_t hotspots, double jitter,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> centers(hotspots);
  for (std::size_t c = 0; c < hotspots; ++c) {
    centers[c] = static_cast<std::size_t>(rng.NextBounded(data.size()));
  }
  PointSet queries(data.dim());
  std::vector<Scalar> q(data.dim());
  for (std::size_t i = 0; i < n; ++i) {
    const PointView center = data[centers[i % hotspots]];
    for (std::size_t d = 0; d < data.dim(); ++d) {
      const double v =
          static_cast<double>(center[d]) + rng.NextGaussian(0.0, jitter);
      q[d] = static_cast<Scalar>(std::clamp(v, 0.0, 1.0));
    }
    queries.Add(PointView(q.data(), q.size()));
  }
  return queries;
}

/// Anisotropic point cloud: dimension j's spread decays as decay^j, so
/// the data's energy concentrates in the leading dimensions like real
/// feature vectors' does.
inline PointSet MakeAnisotropic(std::size_t n, std::size_t dim, double decay,
                                std::uint64_t seed) {
  const PointSet base = GenerateUniform(n, dim, seed);
  PointSet out(dim);
  std::vector<Scalar> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const PointView p = base[i];
    double spread = 1.0;
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<Scalar>(static_cast<double>(p[d]) * spread);
      spread *= decay;
    }
    out.Add(PointView{row.data(), row.size()});
  }
  return out;
}

}  // namespace bench
}  // namespace parsim

#endif  // PARSIM_BENCH_MICROBENCH_COMMON_H_
