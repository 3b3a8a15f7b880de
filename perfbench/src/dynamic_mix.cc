// dynamic-mix: one client in a closed loop over an engine of about 200k
// clustered points at d=8 with the default leaf options (exact sweep, no
// SQ8). 90% Query k=10, 5% Insert of fresh points, 5% Remove of points
// inserted earlier, so the size stays level.
//
// Why: the only workload with writes. Every write drops the leaf-route
// memo and bumps the leaf-block epoch, so a read-side cache that helps
// knn-hotspot but costs writes shows here; it also covers the
// insert/split/condense path and the exact sweep. SQ8 changes should not
// move it.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/near_optimal.h"
#include "src/parallel/engine.h"
#include "src/service/query_service.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using parsim::ParallelSearchEngine;
using parsim::PointSet;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoints = 200000;
constexpr std::size_t kFresh = 60000;
constexpr std::size_t kDim = 8;
constexpr std::uint32_t kDisks = 8;
constexpr std::size_t kClusters = 256;
constexpr double kStddev = 0.05;
constexpr std::size_t kQueries = 4096;
constexpr double kQueryJitter = 0.02;
constexpr std::size_t kK = 10;
constexpr double kQueryShare = 0.90;
constexpr double kInsertShare = 0.05;
constexpr std::size_t kMaxOps = 1000000;
constexpr std::size_t kWarmupOps = 4000;
constexpr std::size_t kTracedBlocks = 16;
constexpr std::size_t kOpsPerBlock = 1000;
constexpr std::size_t kOracleSamples = 32;
constexpr double kServiceProbeShare = 0.15;
constexpr int kSetupRepeats = 9;

enum class OpType { kQuery, kInsert, kRemove };

struct Op {
  OpType type = OpType::kQuery;
  /// Query index, or fresh-point index for writes.
  std::size_t index = 0;
};

/// The whole operation sequence, drawn up front. A remove always names a
/// fresh point inserted earlier and not yet removed.
std::vector<Op> DrawOps(std::size_t count, std::uint64_t seed) {
  parsim::Rng rng(seed);
  std::vector<Op> ops;
  std::vector<std::size_t> live;
  std::size_t next_fresh = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.NextDouble();
    Op op;
    if (u < kQueryShare) {
      op.index = static_cast<std::size_t>(rng.NextBounded(kQueries));
    } else if ((u < kQueryShare + kInsertShare || live.empty()) &&
               next_fresh < kFresh) {
      op.type = OpType::kInsert;
      op.index = next_fresh++;
      live.push_back(op.index);
    } else if (!live.empty()) {
      op.type = OpType::kRemove;
      const std::size_t j = static_cast<std::size_t>(rng.NextBounded(live.size()));
      op.index = live[j];
      live[j] = live.back();
      live.pop_back();
    } else {
      op.index = static_cast<std::size_t>(rng.NextBounded(kQueries));
    }
    ops.push_back(op);
  }
  return ops;
}

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

void RunDynamicMix(Context& ctx) {
  Report& report = *ctx.report;
  const unsigned workers = Context::WorkersFor(ctx.nproc);

  const PointSet all = parsim::GenerateClusteredGaussian(
      kPoints + kFresh, kDim, kClusters, kStddev, SubSeed(ctx.args.seed, 1));
  PointSet data(kDim), fresh(kDim);
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i < kPoints ? data : fresh).Add(all[i]);
  }
  const PointSet queries = parsim::SampleQueriesFromData(
      data, kQueries, kQueryJitter, SubSeed(ctx.args.seed, 2));
  const std::vector<Op> ops = DrawOps(kMaxOps, SubSeed(ctx.args.seed, 3));

  parsim::EngineOptions options;
  options.bulk_load = true;
  options.parallel_workers = workers;  // the build only; the client is serial
  const auto factory = [&] {
    return std::make_unique<ParallelSearchEngine>(
        kDim, std::make_unique<parsim::NearOptimalDeclusterer>(kDim, kDisks),
        options);
  };
  const auto engine =
      BuildTimed(factory, data, ctx.tracer ? 1 : kSetupRepeats,
                 ctx.tracer == nullptr, &report);
  if (engine == nullptr) return;
  report.Note("threads", "1 client");

  std::vector<bool> fresh_live(kFresh, false);
  std::size_t cursor = 0;
  bool after_write = false;
  // Latency samples of the current pass, by kind, and the running sum of
  // simulated query time. Per-query stats are kept only in the traced run
  // (for AddQueryCounters), so the untraced run's memory does not grow
  // with its throughput.
  std::vector<double> query_us, insert_us, remove_us, first_after_write_us;
  double sim_ms = 0.0;
  std::vector<parsim::QueryStats> stats;
  const auto run_op = [&](std::uint64_t request) {
    const Op& op = ops[cursor++];
    const parsim::PointId id = static_cast<parsim::PointId>(kPoints + op.index);
    parsim::QueryStats s;
    parsim::Status status;
    ScopedSpan span(ctx.tracer, "bench.op", request);
    const Clock::time_point t0 = Clock::now();
    switch (op.type) {
      case OpType::kQuery: {
        ScopedSpan call(ctx.tracer, "parallel.Query", request);
        engine->Query(queries[op.index], kK, &s);
        break;
      }
      case OpType::kInsert: {
        ScopedSpan call(ctx.tracer, "parallel.Insert", request);
        status = engine->Insert(fresh[op.index], id);
        break;
      }
      case OpType::kRemove: {
        ScopedSpan call(ctx.tracer, "parallel.Remove", request);
        status = engine->Remove(fresh[op.index], id);
        break;
      }
    }
    const double us = Us(t0, Clock::now());
    ++report.attempted;
    if (!status.ok()) {
      ++report.failed;
      report.Fail("dynamic-mix: write failed: " + status.ToString());
    }
    if (op.type == OpType::kQuery) {
      query_us.push_back(us);
      sim_ms += s.parallel_ms;
      if (ctx.tracer != nullptr) stats.push_back(s);
      if (after_write) first_after_write_us.push_back(us);
      after_write = false;
    } else {
      (op.type == OpType::kInsert ? insert_us : remove_us).push_back(us);
      fresh_live[op.index] = op.type == OpType::kInsert;
      after_write = true;
    }
  };
  const auto reset_samples = [&] {
    query_us.clear();
    insert_us.clear();
    remove_us.clear();
    first_after_write_us.clear();
    sim_ms = 0.0;
    stats.clear();
    report.attempted = 0;
  };

  for (std::size_t i = 0; i < kWarmupOps; ++i) run_op(0);
  reset_samples();

  if (ctx.tracer == nullptr) {
    // Room for every op the run may draw, so no sample vector reallocates
    // inside the timed loop.
    std::vector<double> op_s;
    for (std::vector<double>* v :
         {&op_s, &query_us, &insert_us, &remove_us, &first_after_write_us}) {
      v->reserve(ops.size());
    }
    const std::size_t min_samples = SamplesNeeded(0.99);
    const Clock::time_point start = Clock::now();
    while (cursor < ops.size() &&
           KeepMeasuring(Us(start, Clock::now()) * 1e-6, ctx.args.seconds,
                         std::min(query_us.size(),
                                  insert_us.size() + remove_us.size()),
                         min_samples)) {
      const Clock::time_point t0 = Clock::now();
      run_op(0);
      op_s.push_back(Us(t0, Clock::now()) * 1e-6);
    }
    std::vector<double> query_ms, write_ms;
    for (double us : query_us) query_ms.push_back(us * 1e-3);
    for (double us : insert_us) write_ms.push_back(us * 1e-3);
    for (double us : remove_us) write_ms.push_back(us * 1e-3);
    report.Add("ops_per_s",
               MedianSegmentRate(std::vector<double>(op_s.size(), 1.0), op_s,
                                 kRateSegments),
               "1/s");
    report.AddPercentile("p50_ms", Percentile(query_ms, 0.5), "ms",
                         query_ms.size());
    report.AddPercentile("tail_ms", Percentile(query_ms, 0.99), "ms",
                         query_ms.size());
    report.Add("sim_ms_per_query",
               sim_ms / static_cast<double>(query_us.size()), "ms");
    const std::optional<double> write_p99 = Percentile(write_ms, 0.99);
    report.Note("write_p99_ms",
                write_p99 ? std::to_string(*write_p99) : "refused");
    report.Note("tail_quantile", "p99 of query latency");
    report.Note("ops", std::to_string(report.attempted));
  } else {
    // Blocks of ops alternate untraced and traced (ABBA order) to price
    // the tracer; per-layer latencies come from the traced blocks.
    Tracer* tracer = ctx.tracer;
    double untraced_us = 0.0, traced_us = 0.0;
    std::vector<double> keep_insert, keep_remove, keep_first;
    std::vector<parsim::QueryStats> keep_stats;
    std::uint64_t attempted = 0;
    for (std::size_t block = 0; block < 2 * kTracedBlocks; ++block) {
      const bool traced = (block % 2 == 0) == (block % 4 < 2);
      ctx.tracer = traced ? tracer : nullptr;
      reset_samples();
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < kOpsPerBlock; ++i) {
        run_op(traced ? block * kOpsPerBlock + i + 1 : 0);
      }
      const double us = Us(t0, Clock::now());
      attempted += report.attempted;
      if (!traced) {
        untraced_us += us;
        continue;
      }
      traced_us += us;
      keep_insert.insert(keep_insert.end(), insert_us.begin(), insert_us.end());
      keep_remove.insert(keep_remove.end(), remove_us.begin(), remove_us.end());
      keep_first.insert(keep_first.end(), first_after_write_us.begin(),
                        first_after_write_us.end());
      keep_stats.insert(keep_stats.end(), stats.begin(), stats.end());
    }
    ctx.tracer = tracer;
    report.attempted = attempted;
    insert_us = std::move(keep_insert);
    remove_us = std::move(keep_remove);
    first_after_write_us = std::move(keep_first);
    stats = std::move(keep_stats);
    report.Add("trace.overhead_frac", traced_us / untraced_us - 1.0, "ratio");
    report.AddPercentile("index.insert_us_p50", Percentile(insert_us, 0.5),
                         "us", insert_us.size());
    report.AddPercentile("index.remove_us_p50", Percentile(remove_us, 0.5),
                         "us", remove_us.size());
    report.AddPercentile("index.first_query_after_write_us",
                         Percentile(first_after_write_us, 0.5), "us",
                         first_after_write_us.size());
    AddQueryCounters(stats, &report);

    // The service layer, probed on this engine between write phases.
    {
      parsim::QueryService service(*engine);
      service.Start();
      ProbeService(*engine, service, queries,
                   ctx.args.seconds * kServiceProbeShare,
                   SubSeed(ctx.args.seed, 5), tracer, &report);
      service.Stop();
    }

    PointSet probe(kDim);
    for (std::size_t i = 0; i < 64; ++i) probe.Add(queries[i]);
    ProbeInputs in;
    in.engine = engine.get();
    in.data = &data;
    in.queries = &probe;
    in.k = kK;
    in.workers = workers;
    ProfileHsKnnPhases(in, tracer, &report);
    ProbeBuildLayers(in, tracer, &report);
    ProbeSearchLayers(in, tracer, &report);
  }

  // Oracle: a final sample of queries against the linear scan over the
  // live point set (original points plus inserted, not removed, ones).
  PointSet live(kDim);
  std::vector<parsim::PointId> live_ids;
  for (std::size_t i = 0; i < kPoints; ++i) {
    live.Add(data[i]);
    live_ids.push_back(static_cast<parsim::PointId>(i));
  }
  for (std::size_t i = 0; i < kFresh; ++i) {
    if (!fresh_live[i]) continue;
    live.Add(fresh[i]);
    live_ids.push_back(static_cast<parsim::PointId>(kPoints + i));
  }
  if (engine->size() != live.size()) {
    report.Fail("dynamic-mix: engine holds " + std::to_string(engine->size()) +
                " points, expected " + std::to_string(live.size()));
  }
  const auto by_distance = [](const parsim::Neighbor& x,
                              const parsim::Neighbor& y) {
    return x.distance != y.distance ? x.distance < y.distance : x.id < y.id;
  };
  for (const std::size_t q :
       SampleIndices(queries.size(), kOracleSamples, SubSeed(ctx.args.seed, 4))) {
    parsim::KnnResult want = parsim::BruteForceKnn(live, queries[q], kK);
    for (parsim::Neighbor& n : want) n.id = live_ids[n.id];
    parsim::KnnResult have = engine->Query(queries[q], kK);
    std::sort(want.begin(), want.end(), by_distance);
    std::sort(have.begin(), have.end(), by_distance);
    if (!SameKnn(want, have)) {
      report.Fail("dynamic-mix: query " + std::to_string(q) +
                  " differs from BruteForceKnn over the live set");
    }
  }
  report.Note("oracle_checked", std::to_string(kOracleSamples));
}

}  // namespace perfbench
