// knn-hotspot: one client in a closed loop calls QueryBatch with batches
// of 64 queries jittered around 16 hot spots (the run cycles through
// eight such hot-spot sets). About 1M clustered points at d=16 on 8 disks,
// in a bulk-loaded X-tree with SQ8 leaf blocks and the coalesced batch
// path. The buffer pool holds 1/8 of each disk's leaf pages, so the
// working set is larger than the program's cache.
//
// Why: queries share most of their pages, so coalescing, the buffer
// pool, descent/frontier work and the SQ8 sweep all carry heavy load,
// while the service layer does nothing.
//
// The timed loop runs QueryBatch serially. At nproc threads the
// coalesced batch meets a barrier every round, and on a shared VM one
// descheduled vCPU stalls each of them: in one stretch of host noise,
// five seeds ran at 1178-2483 queries/s on 4 threads against 2588-3447
// serially. The traced run reports the nproc-thread batch
// (parallel.batch_scaling, parallel.batch_ms_p50).

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/microbench_common.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/near_optimal.h"
#include "src/io/buffer_pool.h"
#include "src/parallel/batch_knn.h"
#include "src/parallel/engine.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using parsim::KnnResult;
using parsim::ParallelSearchEngine;
using parsim::PointSet;
using parsim::QueryStats;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoints = 1000000;
constexpr std::size_t kDim = 16;
constexpr std::uint32_t kDisks = 8;
constexpr std::size_t kClusters = 256;
constexpr double kStddev = 0.05;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kDistinctBatches = 64;
constexpr std::size_t kHotSpots = 16;
/// Independent hot-spot sets the run cycles through, so a seed's result
/// does not hang on where one set of 16 hot spots happens to land.
constexpr std::size_t kHotSpotSets = 8;
constexpr double kJitter = 0.02;
constexpr std::size_t kK = 10;
constexpr std::size_t kOracleSamples = 32;
constexpr double kTailQuantile = 0.9;
constexpr double kWarmupShare = 0.15;
constexpr std::size_t kTracedBatches = 32;
constexpr std::size_t kScalingBatches = 8;
constexpr int kSetupRepeats = 5;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Buffer pages per disk: 1/8 of a disk's share of the leaf pages.
std::uint64_t BufferPagesPerDisk(double fill) {
  const double per_leaf =
      std::max(1.0, static_cast<double>(parsim::LeafCapacityPerPage(kDim)) *
                        fill);
  const double leaves = static_cast<double>(kPoints) / per_leaf;
  return static_cast<std::uint64_t>(leaves / kDisks / 8.0);
}

}  // namespace

void RunKnnHotspot(Context& ctx) {
  Report& report = *ctx.report;
  const unsigned workers = Context::WorkersFor(ctx.nproc);

  const PointSet data = parsim::GenerateClusteredGaussian(
      kPoints, kDim, kClusters, kStddev, SubSeed(ctx.args.seed, 1));
  // Batch b draws its queries from hot-spot set b % kHotSpotSets.
  constexpr std::size_t kBatchesPerSet = kDistinctBatches / kHotSpotSets;
  std::vector<PointSet> sets;
  for (std::size_t g = 0; g < kHotSpotSets; ++g) {
    sets.push_back(parsim::bench::MakeHotSpotQueries(
        data, kBatch * kBatchesPerSet, kHotSpots, kJitter,
        SubSeed(ctx.args.seed, 100 + g)));
  }
  std::vector<PointSet> batches;
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    const PointSet& set = sets[b % kHotSpotSets];
    const std::size_t first = (b / kHotSpotSets) * kBatch;
    PointSet batch(kDim);
    for (std::size_t i = 0; i < kBatch; ++i) batch.Add(set[first + i]);
    batches.push_back(std::move(batch));
  }
  // Query q of the run is query q % kBatch of batch q / kBatch.
  const auto query = [&](std::size_t q) {
    return batches[q / kBatch][q % kBatch];
  };
  constexpr std::size_t kPoolQueries = kDistinctBatches * kBatch;

  parsim::EngineOptions options;
  options.bulk_load = true;
  options.quantized_leaf_blocks = true;
  options.coalesced_batch = true;
  options.parallel_workers = workers;
  options.buffer_pages_per_disk = BufferPagesPerDisk(options.bulk_load_fill);
  const auto factory = [&] {
    return std::make_unique<ParallelSearchEngine>(
        kDim, std::make_unique<parsim::NearOptimalDeclusterer>(kDim, kDisks),
        options);
  };
  const auto engine =
      BuildTimed(factory, data, ctx.tracer ? 1 : kSetupRepeats,
                 ctx.tracer == nullptr, &report);
  if (engine == nullptr) return;
  report.Note("threads", "timed loop serial; build and traced batches " +
                             std::to_string(workers + 1) + " (" +
                             std::to_string(workers) +
                             " pool workers + caller)");
  report.Note("buffer_pages_per_disk",
              std::to_string(options.buffer_pages_per_disk));

  // Oracle samples: which queries of the pool are checked, and the latest
  // answer the run produced for each.
  const std::vector<std::size_t> sample = SampleIndices(
      kPoolQueries, kOracleSamples, SubSeed(ctx.args.seed, 3));
  std::vector<KnnResult> answers(kPoolQueries);
  std::vector<bool> answered(kPoolQueries, false);

  // QueryBatch's pool runs `full_threads` workers plus the calling
  // thread; the gated loop is serial (see the file comment).
  const unsigned full_threads = std::max(1u, workers);
  constexpr unsigned kServing = 1;
  const auto run_batch = [&](std::size_t b, unsigned batch_threads,
                             std::vector<QueryStats>* stats,
                             std::uint64_t request) {
    b %= kDistinctBatches;
    std::vector<KnnResult> results;
    {
      ScopedSpan op(ctx.tracer, "bench.batch", request);
      ScopedSpan call(ctx.tracer, "parallel.QueryBatch", request);
      results = engine->QueryBatch(batches[b], kK, stats, batch_threads);
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t q = b * kBatch + i;
      answers[q] = std::move(results[i]);
      answered[q] = true;
    }
  };
  std::size_t next = 0;  // batch cursor of the warm-up and timed loop

  // Warm-up: fills the buffer pool and caches before anything is timed.
  {
    std::vector<QueryStats> stats;
    const Clock::time_point start = Clock::now();
    while (Ms(start, Clock::now()) < ctx.args.seconds * kWarmupShare * 1e3) {
      run_batch(next++, kServing, &stats, 0);
    }
  }

  if (ctx.tracer == nullptr) {
    std::vector<double> batch_ms;
    double sim_ms = 0.0;
    std::size_t queries = 0;
    std::vector<QueryStats> stats;
    const std::size_t min_batches = SamplesNeeded(kTailQuantile);
    const Clock::time_point start = Clock::now();
    while (KeepMeasuring(Ms(start, Clock::now()) * 1e-3, ctx.args.seconds,
                         batch_ms.size(), min_batches)) {
      const Clock::time_point t0 = Clock::now();
      run_batch(next++, kServing, &stats, 0);
      batch_ms.push_back(Ms(t0, Clock::now()));
      for (const QueryStats& s : stats) sim_ms += s.parallel_ms;
      queries += stats.size();
    }
    report.attempted = queries;
    std::vector<double> batch_s, batch_queries(batch_ms.size(), kBatch);
    for (double ms : batch_ms) batch_s.push_back(ms * 1e-3);
    report.Add("ops_per_s",
               MedianSegmentRate(batch_queries, batch_s, kRateSegments),
               "1/s");
    report.AddPercentile("p50_ms", Percentile(batch_ms, 0.5), "ms",
                         batch_ms.size());
    report.AddPercentile("tail_ms", Percentile(batch_ms, kTailQuantile), "ms",
                         batch_ms.size());
    report.Add("sim_ms_per_query", sim_ms / static_cast<double>(queries),
               "ms");
    report.Note("tail_quantile", "p90 of batch latency");
    report.Note("batches", std::to_string(batch_ms.size()));
  } else {
    // Traced run: each batch runs untraced and traced back to back, the
    // order alternating, to price the tracer; per-query counters come
    // from the traced runs.
    Tracer* tracer = ctx.tracer;
    const parsim::BufferPool* pool = engine->buffer_pool();
    std::uint64_t hits = 0, touched = 0;
    std::vector<QueryStats> stats, all_stats;
    std::vector<double> batch_ms;
    double untraced_ms = 0.0, traced_ms = 0.0;
    for (std::size_t i = 0; i < 2 * kTracedBatches; ++i) {
      const bool traced = (i % 2 == 0) == (i % 4 < 2);
      ctx.tracer = traced ? tracer : nullptr;
      const std::uint64_t hits0 = pool->TotalHitPages();
      const std::uint64_t touched0 = pool->TotalTouchedPages();
      const Clock::time_point b0 = Clock::now();
      run_batch(next + i / 2, full_threads, &stats,
                traced ? i / 2 + 1 : 0);
      const double ms = Ms(b0, Clock::now());
      if (!traced) {
        untraced_ms += ms;
        continue;
      }
      traced_ms += ms;
      batch_ms.push_back(ms);
      hits += pool->TotalHitPages() - hits0;
      touched += pool->TotalTouchedPages() - touched0;
      all_stats.insert(all_stats.end(), stats.begin(), stats.end());
    }
    ctx.tracer = tracer;
    const std::size_t first = next;
    report.attempted = 2 * kTracedBatches * kBatch;
    report.Add("trace.overhead_frac", traced_ms / untraced_ms - 1.0, "ratio");
    report.AddPercentile("parallel.batch_ms_p50", Percentile(batch_ms, 0.5),
                         "ms", batch_ms.size());
    AddQueryCounters(all_stats, &report);
    report.Add("io.buffer_hit_rate",
               touched > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(touched)
                           : 0.0,
               "ratio");

    // Scaling: the same batches at 1 thread and at the full budget.
    double walls[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < kScalingBatches; ++i) {
        run_batch(first + i, pass == 0 ? 1u : full_threads, nullptr, 0);
      }
      walls[pass] = Ms(t0, Clock::now());
    }
    report.Add("parallel.batch_scaling", walls[0] / walls[1], "ratio");

    // Phases: the coalesced batch executor, serial, profiled.
    parsim::PhaseAccumulator phase_acc;
    double phase_wall = 0.0;
    for (std::size_t i = 0; i < kScalingBatches; ++i) {
      const PointSet& batch = batches[(first + i) % kDistinctBatches];
      std::vector<parsim::QueryCostAccumulator> accs(
          batch.size(), parsim::QueryCostAccumulator(kDisks + 1));
      const Clock::time_point b0 = Clock::now();
      {
        ScopedSpan span(tracer, "parallel.CoalescedHsBatch");
        parsim::CoalescedHsBatch(engine->tree(), batch, kK,
                                 engine->options().metric, &accs, nullptr,
                                 &phase_acc);
      }
      phase_wall += Ms(b0, Clock::now());
    }
    AddPhases(parsim::PhaseBreakdown::From(phase_acc), phase_wall,
              kScalingBatches * kBatch, &report);

    ProbeInputs in;
    in.engine = engine.get();
    in.data = &data;
    in.queries = &batches[0];
    in.k = kK;
    in.workers = workers;
    ProbeBuildLayers(in, tracer, &report);
    ProbeSearchLayers(in, tracer, &report);
  }

  // Oracle: sampled answers against the linear scan.
  std::size_t checked = 0;
  for (const std::size_t q : sample) {
    if (!answered[q]) continue;
    ++checked;
    if (!SameKnn(answers[q],
                 parsim::BruteForceKnn(data, query(q), kK))) {
      report.Fail("knn-hotspot: query " + std::to_string(q) +
                  " differs from BruteForceKnn");
    }
  }
  if (checked == 0) report.Fail("knn-hotspot: no sampled query was run");
  report.Note("oracle_checked", std::to_string(checked));
}

}  // namespace perfbench
