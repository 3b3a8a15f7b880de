// Microbenchmark of the concurrent query execution layer and the SIMD
// distance kernels. Plain main() binary (no google-benchmark): it runs
// two experiments and emits machine-readable results.
//
//   1. QueryBatch wall-clock QPS, serial vs on the worker pool, on a
//      shared-tree engine over the ISSUE workload (uniform, d=16, 100k
//      points), with a bit-identity check on the per-query simulated
//      stats between the two executions.
//   2. One-to-many kernel throughput (million distances / second),
//      dispatched kernel vs the pre-dispatch scalar loop, per metric.
//
// Timing: every configuration runs once untimed, then `reps` timed runs;
// the JSON records the median (the headline), min and IQR.
//
// Output: a human-readable table on stdout and BENCH_query_parallel.json
// in the working directory. Scale with PARSIM_BENCH_N / PARSIM_BENCH_QUERIES;
// pass --smoke for a seconds-scale CI run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench/microbench_common.h"
#include "src/core/near_optimal.h"
#include "src/eval/throughput.h"
#include "src/geometry/metric.h"
#include "src/parallel/engine.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::EnvSize;
using bench::Measure;
using bench::Timing;

bool StatsBitIdentical(const std::vector<QueryStats>& a,
                       const std::vector<QueryStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].parallel_ms != b[i].parallel_ms ||
        a[i].total_pages != b[i].total_pages ||
        a[i].max_pages != b[i].max_pages ||
        a[i].directory_pages != b[i].directory_pages ||
        a[i].pages_per_disk != b[i].pages_per_disk) {
      return false;
    }
  }
  return true;
}

struct KernelRow {
  const char* name;
  Timing scalar;             // one pass over the points, scalar loop
  Timing simd;               // same, dispatched kernel
  double scalar_mdps = 0.0;  // million distances per second at the median
  double simd_mdps = 0.0;
  double speedup = 0.0;
};

KernelRow BenchKernel(const char* name, MetricKind kind,
                      double (*scalar)(PointView, PointView),
                      const PointSet& points, PointView query, int reps) {
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  const Metric metric(kind);
  std::vector<double> dists(n);

  // Seed-style baseline: one scalar-kernel call per point.
  volatile double sink = 0.0;
  KernelRow row;
  row.name = name;
  row.scalar = Measure(reps, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += scalar(query, points[i]);
    sink = acc;
  });
  // Dispatched one-to-many kernel, blocked like the scan drivers.
  row.simd = Measure(reps, [&] {
    constexpr std::size_t kBlock = 1024;
    for (std::size_t start = 0; start < n; start += kBlock) {
      const std::size_t m = std::min(kBlock, n - start);
      metric.ComparableMany(query, points.data() + start * dim, m, dim,
                            dists.data() + start);
    }
    sink = dists[n - 1];
  });

  row.scalar_mdps = static_cast<double>(n) / (row.scalar.median_ms * 1e3);
  row.simd_mdps = static_cast<double>(n) / (row.simd.median_ms * 1e3);
  row.speedup = row.simd_mdps / row.scalar_mdps;
  return row;
}

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 20000 : 100000);
  const std::size_t dim = EnvSize("PARSIM_BENCH_DIM", 16);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 16 : 64);
  const std::size_t k = 10;
  const std::size_t disks = 8;
  const unsigned pooled_threads = 4;

  std::printf("== microbench_query_parallel ==\n");
  std::printf("workload: n=%zu dim=%zu queries=%zu k=%zu disks=%zu\n", n,
              dim, num_queries, k, disks);
  std::printf("hardware threads: %u, simd kernels: %s\n",
              std::thread::hardware_concurrency(),
              detail::SimdEnabled() ? "avx2+fma" : "scalar-unrolled");

  const PointSet data = GenerateUniform(n, dim, 4201);
  const PointSet queries = GenerateUniformQueries(num_queries, dim, 4203);

  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  ParallelSearchEngine engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
  if (!engine.Build(data).ok()) {
    std::fprintf(stderr, "engine build failed\n");
    return 1;
  }

  // --- Experiment 1: batch execution, serial vs pooled -----------------
  std::vector<QueryStats> serial_stats;
  std::vector<QueryStats> pooled_stats;
  const int batch_reps = smoke ? 1 : 5;
  const Timing serial = Measure(batch_reps, [&] {
    (void)engine.QueryBatch(queries, k, &serial_stats, 1);
  });
  const Timing pooled = Measure(batch_reps, [&] {
    (void)engine.QueryBatch(queries, k, &pooled_stats, pooled_threads);
  });
  const double serial_qps =
      static_cast<double>(num_queries) / (serial.median_ms / 1000.0);
  const double pooled_qps =
      static_cast<double>(num_queries) / (pooled.median_ms / 1000.0);
  const bool identical = StatsBitIdentical(serial_stats, pooled_stats);

  std::printf("\nQueryBatch wall-clock (median of %d):\n", batch_reps);
  std::printf("  serial  (1 thread):  %8.2f ms (iqr %.2f)  %10.1f qps\n",
              serial.median_ms, serial.iqr_ms, serial_qps);
  std::printf(
      "  pooled  (%u threads): %8.2f ms (iqr %.2f)  %10.1f qps  (%.2fx)\n",
      pooled_threads, pooled.median_ms, pooled.iqr_ms, pooled_qps,
      pooled_qps / serial_qps);
  std::printf("  simulated stats bit-identical across executions: %s\n",
              identical ? "yes" : "NO (BUG)");

  // --- Experiment 2: kernel throughput ---------------------------------
  const PointView query = queries[0];
  const int reps = smoke ? 2 : 10;
  std::vector<KernelRow> rows;
  rows.push_back(BenchKernel("squared_l2", MetricKind::kL2,
                             &detail::SquaredL2Scalar, data, query, reps));
  rows.push_back(BenchKernel("l1", MetricKind::kL1, &detail::L1Scalar, data,
                             query, reps));
  rows.push_back(BenchKernel("lmax", MetricKind::kLmax, &detail::LmaxScalar,
                             data, query, reps));

  std::printf("\nOne-to-many kernel throughput (Mdist/s, median of %d):\n",
              reps);
  for (const KernelRow& row : rows) {
    std::printf("  %-10s scalar %8.1f   dispatched %8.1f   speedup %.2fx\n",
                row.name, row.scalar_mdps, row.simd_mdps, row.speedup);
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_query_parallel.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_query_parallel.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, "
               "\"queries\": %zu, \"k\": %zu, \"disks\": %zu},\n",
               n, dim, num_queries, k, disks);
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"simd_enabled\": %s,\n",
               detail::SimdEnabled() ? "true" : "false");
  std::fprintf(json, "  \"query_batch\": {\n");
  std::fprintf(json,
               "    \"serial_wall_ms\": %.3f, \"serial_min_ms\": %.3f, "
               "\"serial_iqr_ms\": %.3f,\n",
               serial.median_ms, serial.min_ms, serial.iqr_ms);
  std::fprintf(json, "    \"serial_qps\": %.1f,\n", serial_qps);
  std::fprintf(json, "    \"pooled_threads\": %u,\n", pooled_threads);
  std::fprintf(json,
               "    \"pooled_wall_ms\": %.3f, \"pooled_min_ms\": %.3f, "
               "\"pooled_iqr_ms\": %.3f,\n",
               pooled.median_ms, pooled.min_ms, pooled.iqr_ms);
  std::fprintf(json, "    \"pooled_qps\": %.1f,\n", pooled_qps);
  std::fprintf(json, "    \"speedup\": %.3f,\n", pooled_qps / serial_qps);
  std::fprintf(json, "    \"stats_bit_identical\": %s\n",
               identical ? "true" : "false");
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"kernels\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::fprintf(json,
                 "    \"%s\": {\"scalar_mdist_per_s\": %.1f, "
                 "\"simd_mdist_per_s\": %.1f, \"speedup\": %.3f, "
                 "\"scalar_ms\": %.4f, \"scalar_min_ms\": %.4f, "
                 "\"scalar_iqr_ms\": %.4f, \"simd_ms\": %.4f, "
                 "\"simd_min_ms\": %.4f, \"simd_iqr_ms\": %.4f}%s\n",
                 r.name, r.scalar_mdps, r.simd_mdps, r.speedup,
                 r.scalar.median_ms, r.scalar.min_ms, r.scalar.iqr_ms,
                 r.simd.median_ms, r.simd.min_ms, r.simd.iqr_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_query_parallel.json\n");

  return identical ? 0 : 1;
}

}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
