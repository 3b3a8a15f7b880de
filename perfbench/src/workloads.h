// The workloads and what they share: run arguments, the thread budget,
// oracle comparisons and the timed-loop rule.
//
// Thread budget: nproc (the CPUs this process may use) bounds every
// load. A ThreadPool's ParallelFor runs on its workers AND the calling
// thread, so an engine or join at "nproc threads" gets nproc - 1 pool
// workers; the service probe runs one load-generator thread and one
// dispatcher, with no pool workers.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/open_loop.h"
#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "src/index/knn.h"
#include "src/parallel/engine.h"
#include "src/service/query_service.h"
#include "src/util/random.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Context {
  RunArgs args;
  unsigned nproc = 1;
  /// Non-null only in the traced run.
  Tracer* tracer = nullptr;
  Report* report = nullptr;

  /// Pool workers that, with the calling thread, use `threads` CPUs.
  static unsigned WorkersFor(unsigned threads) {
    return threads > 1 ? threads - 1 : 0;
  }
};

/// Derived seeds: one per input stream, so changing how many values one
/// generator draws never shifts another stream.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  parsim::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng.NextUint64();
}

/// `count` distinct indices in [0, n), drawn from `seed`, ascending.
inline std::vector<std::size_t> SampleIndices(std::size_t n,
                                              std::size_t count,
                                              std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  parsim::Rng rng(seed);
  rng.Shuffle(&all);
  all.resize(std::min(count, n));
  std::sort(all.begin(), all.end());
  return all;
}

/// Exact agreement: same ids and bit-identical distances, rank by rank.
inline bool SameKnn(const parsim::KnnResult& a, const parsim::KnnResult& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// A timed loop runs until `seconds` have passed AND it holds `min_samples`
/// samples, so each reported percentile keeps ten samples beyond it; the
/// cap keeps a pathologically slow build inside the run's time limit.
inline bool KeepMeasuring(double elapsed_s, double seconds,
                          std::size_t samples, std::size_t min_samples) {
  constexpr double kCapFactor = 6.0;
  if (elapsed_s >= seconds * kCapFactor) return false;
  return elapsed_s < seconds || samples < min_samples;
}

/// Contiguous segments a closed loop's samples are cut into for its
/// throughput (see MedianSegmentRate).
inline constexpr std::size_t kRateSegments = 5;

/// The service layer's per-layer metrics (service.*, loadgen.lag_p99_ms)
/// from one traced open-loop pass of `pass_s` seconds at a fixed nominal
/// rate and query mix into a started `service` over `engine`; sampled
/// answers are checked against engine.Query. Adds the pass's queries to
/// the report's attempted and failed counts.
void ProbeService(const parsim::ParallelSearchEngine& engine,
                  parsim::QueryService& service,
                  const parsim::PointSet& queries, double pass_s,
                  std::uint64_t seed, Tracer* tracer, Report* report);

void RunKnnHotspot(Context& ctx);
void RunSelfJoin(Context& ctx);
void RunDynamicMix(Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
