// Microbenchmark of the sharded page-buffer pool. Plain main() binary
// (no google-benchmark): it runs two experiments and emits
// machine-readable results.
//
//   1. Buffered QueryBatch wall-clock QPS, serial vs on the worker pool
//      (buffered batches no longer force serial execution), with
//      invariance checks against the serial run: identical k-NN results
//      per query and identical aggregate pool accounting (total touched
//      pages, hits + misses == touches, per-shard touch totals).
//   2. Buffer hit-rate sweep over pool sizes, quantifying how much
//      simulated I/O the buffer absorbs per pages_per_disk budget.
//
// Output: a human-readable table on stdout and BENCH_buffer_pool.json in
// the working directory. Scale with PARSIM_BENCH_N / PARSIM_BENCH_DIM /
// PARSIM_BENCH_QUERIES; pass --smoke for a seconds-scale CI run.
// The speedup is wall-clock (ratio of the medians of the timed runs,
// each configuration after one untimed warm-up run), so on a
// single-core machine it sits near 1.0 however well the locking
// behaves; the invariance checks are meaningful regardless.

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
#include "src/io/buffer_pool.h"
#include "src/parallel/engine.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::EnvSize;
using bench::Measure;
using bench::Timing;

std::unique_ptr<ParallelSearchEngine> MakeBufferedEngine(
    const PointSet& data, std::size_t disks, std::uint64_t pages_per_disk) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.buffer_pages_per_disk = pages_per_disk;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  if (!engine->Build(data).ok()) return nullptr;
  return engine;
}

bool ResultsIdentical(const std::vector<KnnResult>& a,
                      const std::vector<KnnResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 15000 : 60000);
  const std::size_t dim = EnvSize("PARSIM_BENCH_DIM", 12);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 24 : 96);
  const std::size_t k = 10;
  const std::size_t disks = 8;
  const std::uint64_t pages_per_disk = 256;
  const unsigned pooled_threads = 8;

  std::printf("== microbench_buffer_pool ==\n");
  std::printf("workload: n=%zu dim=%zu queries=%zu k=%zu disks=%zu "
              "buffer=%llu pages/disk\n",
              n, dim, num_queries, k, disks,
              static_cast<unsigned long long>(pages_per_disk));
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const PointSet data = GenerateUniform(n, dim, 5101);
  const PointSet queries = GenerateUniformQueries(num_queries, dim, 5103);

  // --- Experiment 1: buffered batch, serial vs pooled ------------------
  // Fresh engine per timed configuration: the buffer carries history
  // across batches, so reusing one engine would hand later runs a warmer
  // buffer. Measure gives each engine one untimed warm-up pass first,
  // making the timed passes steady-state (and their pool accounting
  // comparable: both engines run the same number of batches).
  const auto serial_engine = MakeBufferedEngine(data, disks, pages_per_disk);
  const auto pooled_engine = MakeBufferedEngine(data, disks, pages_per_disk);
  if (serial_engine == nullptr || pooled_engine == nullptr) {
    std::fprintf(stderr, "engine build failed\n");
    return 1;
  }

  std::vector<KnnResult> serial_results;
  std::vector<KnnResult> pooled_results;
  unsigned serial_threads = 0;
  unsigned pooled_effective = 0;
  const int batch_reps = smoke ? 1 : 5;
  const Timing serial = Measure(batch_reps, [&] {
    serial_results =
        serial_engine->QueryBatch(queries, k, nullptr, 1, &serial_threads);
  });
  const Timing pooled = Measure(batch_reps, [&] {
    pooled_results = pooled_engine->QueryBatch(queries, k, nullptr,
                                               pooled_threads,
                                               &pooled_effective);
  });
  const double serial_qps =
      static_cast<double>(num_queries) / (serial.median_ms / 1000.0);
  const double pooled_qps =
      static_cast<double>(num_queries) / (pooled.median_ms / 1000.0);
  const double speedup = pooled_qps / serial_qps;

  const BufferPool& serial_pool = *serial_engine->buffer_pool();
  const BufferPool& pooled_pool = *pooled_engine->buffer_pool();
  const bool results_identical =
      ResultsIdentical(serial_results, pooled_results);
  const bool touches_invariant =
      serial_pool.TotalTouchedPages() == pooled_pool.TotalTouchedPages() &&
      serial_pool.TouchedPagesPerShard() == pooled_pool.TouchedPagesPerShard();
  const bool accounting_exact =
      pooled_pool.TotalHitPages() + pooled_pool.TotalMissPages() ==
      pooled_pool.TotalTouchedPages();

  std::printf("\nbuffered QueryBatch wall-clock (median of %d):\n",
              batch_reps);
  std::printf("  serial (1 thread):   %8.2f ms (iqr %.2f)  %10.1f qps\n",
              serial.median_ms, serial.iqr_ms, serial_qps);
  std::printf(
      "  pooled (%u threads): %8.2f ms (iqr %.2f)  %10.1f qps  (%.2fx)\n",
      pooled_effective, pooled.median_ms, pooled.iqr_ms, pooled_qps, speedup);
  std::printf("  results identical to serial: %s\n",
              results_identical ? "yes" : "NO (BUG)");
  std::printf("  touched pages invariant (total and per shard): %s\n",
              touches_invariant ? "yes" : "NO (BUG)");
  std::printf("  hits + misses == touches under interleaving: %s\n",
              accounting_exact ? "yes" : "NO (BUG)");

  // --- Experiment 2: hit-rate sweep over buffer sizes ------------------
  const std::uint64_t sweep_sizes[] = {16, 64, 256, 1024, 4096};
  struct SweepRow {
    std::uint64_t pages_per_disk = 0;
    double hit_rate = 0.0;
    std::uint64_t hit_pages = 0;
    std::uint64_t miss_pages = 0;
  };
  std::vector<SweepRow> sweep;
  std::printf("\nhit-rate sweep (steady state, %zu queries):\n", num_queries);
  for (const std::uint64_t size : sweep_sizes) {
    const auto engine = MakeBufferedEngine(data, disks, size);
    if (engine == nullptr) {
      std::fprintf(stderr, "engine build failed (sweep size %llu)\n",
                   static_cast<unsigned long long>(size));
      return 1;
    }
    (void)engine->QueryBatch(queries, k, nullptr, 1);  // cold pass
    const std::uint64_t warm_hits = engine->buffer_pool()->TotalHitPages();
    const std::uint64_t warm_misses = engine->buffer_pool()->TotalMissPages();
    (void)engine->QueryBatch(queries, k, nullptr, 1);  // steady-state pass
    SweepRow row;
    row.pages_per_disk = size;
    row.hit_pages = engine->buffer_pool()->TotalHitPages() - warm_hits;
    row.miss_pages = engine->buffer_pool()->TotalMissPages() - warm_misses;
    const std::uint64_t touched = row.hit_pages + row.miss_pages;
    row.hit_rate = touched > 0
                       ? static_cast<double>(row.hit_pages) /
                             static_cast<double>(touched)
                       : 0.0;
    sweep.push_back(row);
    std::printf("  %5llu pages/disk: hit rate %5.1f%%  (%llu hits, %llu "
                "misses)\n",
                static_cast<unsigned long long>(size), 100.0 * row.hit_rate,
                static_cast<unsigned long long>(row.hit_pages),
                static_cast<unsigned long long>(row.miss_pages));
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_buffer_pool.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_buffer_pool.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, "
               "\"queries\": %zu, \"k\": %zu, \"disks\": %zu, "
               "\"buffer_pages_per_disk\": %llu},\n",
               n, dim, num_queries, k, disks,
               static_cast<unsigned long long>(pages_per_disk));
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"buffered_query_batch\": {\n");
  std::fprintf(json,
               "    \"serial_wall_ms\": %.3f, \"serial_min_ms\": %.3f, "
               "\"serial_iqr_ms\": %.3f,\n",
               serial.median_ms, serial.min_ms, serial.iqr_ms);
  std::fprintf(json, "    \"serial_qps\": %.1f,\n", serial_qps);
  std::fprintf(json, "    \"pooled_threads_requested\": %u,\n",
               pooled_threads);
  std::fprintf(json, "    \"pooled_threads_effective\": %u,\n",
               pooled_effective);
  std::fprintf(json,
               "    \"pooled_wall_ms\": %.3f, \"pooled_min_ms\": %.3f, "
               "\"pooled_iqr_ms\": %.3f,\n",
               pooled.median_ms, pooled.min_ms, pooled.iqr_ms);
  std::fprintf(json, "    \"pooled_qps\": %.1f,\n", pooled_qps);
  std::fprintf(json, "    \"speedup\": %.3f,\n", speedup);
  std::fprintf(json, "    \"results_identical\": %s,\n",
               results_identical ? "true" : "false");
  std::fprintf(json, "    \"touched_pages_invariant\": %s,\n",
               touches_invariant ? "true" : "false");
  std::fprintf(json, "    \"accounting_exact\": %s\n",
               accounting_exact ? "true" : "false");
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"hit_rate_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(json,
                 "    {\"pages_per_disk\": %llu, \"hit_rate\": %.4f, "
                 "\"hit_pages\": %llu, \"miss_pages\": %llu}%s\n",
                 static_cast<unsigned long long>(sweep[i].pages_per_disk),
                 sweep[i].hit_rate,
                 static_cast<unsigned long long>(sweep[i].hit_pages),
                 static_cast<unsigned long long>(sweep[i].miss_pages),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_buffer_pool.json\n");

  return results_identical && touches_invariant && accounting_exact ? 0 : 1;
}

}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
