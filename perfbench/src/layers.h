// Per-layer probes for the traced run. Each probe calls one layer's
// public functions directly, on the workload's built tree and inputs,
// and reports time or counts per unit of work. Calls that the
// end-to-end path makes inside QueryBatch or SelfJoin are reached this
// way without instrumenting the program itself.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "src/parallel/engine.h"

namespace perfbench {

/// Builds one engine over the workload's data; setup_s times this.
using EngineFactory =
    std::function<std::unique_ptr<parsim::ParallelSearchEngine>()>;

/// Runs `factory` + Build `repeats` times and, when `report_setup`,
/// reports the median wall time as setup_s. Returns the last engine, or
/// nullptr (with the run failed) when a build fails.
std::unique_ptr<parsim::ParallelSearchEngine> BuildTimed(
    const EngineFactory& factory, const parsim::PointSet& data, int repeats,
    bool report_setup, Report* report);

struct ProbeInputs {
  const parsim::ParallelSearchEngine* engine = nullptr;
  const parsim::PointSet* data = nullptr;
  /// Probe queries (at least 64, so p50 has ten samples beyond it).
  const parsim::PointSet* queries = nullptr;
  std::size_t k = 10;
  /// Comparable-scale sweep threshold; <= 0 means each query's own
  /// k-th nearest distance (from HsKnn).
  double fixed_threshold = 0.0;
  /// Pool workers for the fresh bulk load (the caller thread also runs).
  unsigned workers = 1;
};

/// core.decluster_ns_per_point, hilbert.key_ns_per_point,
/// index.bulk_load_s, index.warm_s: the set-up path, layer by layer.
void ProbeBuildLayers(const ProbeInputs& in, Tracer* tracer, Report* report);

/// index.hs_knn_us_p50, index.sweep_ns_per_candidate, index.prune_rate,
/// geometry.{exact,sq8,sq8_under}_ns_per_*, geometry.mindist_ns_per_rect.
void ProbeSearchLayers(const ProbeInputs& in, Tracer* tracer,
                       Report* report);

/// Reports phase.* from a profiled serial pass: `phases` summed over the
/// pass, `wall_ms` its wall time, `ops` the operations it ran.
void AddPhases(const parsim::PhaseBreakdown& phases, double wall_ms,
               std::size_t ops, Report* report);

/// phase.* from a profiled serial HsKnn pass over in.queries.
void ProfileHsKnnPhases(const ProbeInputs& in, Tracer* tracer,
                        Report* report);

/// Mean simulated and page counters over per-query stats:
/// core.busiest_disk_pages, core.balance, index.data_pages_per_query,
/// index.dir_pages_per_query, index.frontier_pops_per_query,
/// index.cutoff_skipped_per_query, io.coalesced_share,
/// io.unavailable_pages.
void AddQueryCounters(const std::vector<parsim::QueryStats>& stats,
                      Report* report);

/// Per-layer self time of every recorded span, as <layer>.self_s for the
/// layers in kTracedLayers (0 when a layer has no spans).
void AddLayerSelfTimes(const Tracer& tracer, Report* report);

/// The per-layer metric names this benchmark reports that a workload
/// may not exercise; ZeroFill adds each missing one as 0 with its unit,
/// so every traced run prints the same metric set.
void ZeroFillPerLayer(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
