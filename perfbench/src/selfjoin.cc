// selfjoin: repeated SelfJoin(eps) calls at nproc threads. About 500k
// clustered points at d=16 with SQ8; eps is set per seed for a few
// million pairs (Özkural & Aykanat's all-pairs setting).
//
// Why: compute-bound work in Sq8ManyUnder and the block-pair scheduler,
// including the join's serial stages. There is only one directory
// descent, so the HS frontier does almost nothing.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/near_optimal.h"
#include "src/parallel/engine.h"
#include "src/parallel/join.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using parsim::JoinResult;
using parsim::JoinStats;
using parsim::ParallelSearchEngine;
using parsim::PointSet;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoints = 100000;
constexpr std::size_t kDim = 16;
constexpr std::uint32_t kDisks = 8;
constexpr std::size_t kClusters = 256;
constexpr double kStddev = 0.05;
constexpr double kTargetPairs = 3e5;
constexpr std::size_t kEpsSamples = 1000;
constexpr std::size_t kOracleRows = 24;
constexpr double kTailQuantile = 0.75;
constexpr int kSetupRepeats = 9;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Epsilon for about `target` pairs: each sampled point's distances to
/// every point estimate the neighbour-count curve, and eps is where the
/// mean count reaches 2 * target / n (each pair has two endpoints).
double CalibrateEps(const PointSet& data, double target, std::uint64_t seed) {
  const parsim::Metric metric;
  const std::size_t n = data.size();
  const double per_point = 2.0 * target / static_cast<double>(n);
  const std::size_t keep = static_cast<std::size_t>(per_point * 4.0) + 16;
  std::vector<double> dist(n), nearest;
  for (const std::size_t s : SampleIndices(n, kEpsSamples, seed)) {
    metric.ComparableMany(data[s], data.data(), n, data.dim(), dist.data());
    std::partial_sort(dist.begin(),
                      dist.begin() + static_cast<std::ptrdiff_t>(keep + 1),
                      dist.end());
    // Skip the point itself (distance 0).
    nearest.insert(nearest.end(), dist.begin() + 1,
                   dist.begin() + static_cast<std::ptrdiff_t>(keep + 1));
  }
  std::sort(nearest.begin(), nearest.end());
  const std::size_t rank = std::min(
      nearest.size() - 1,
      static_cast<std::size_t>(per_point * static_cast<double>(kEpsSamples)));
  return metric.FromComparable(nearest[rank]);
}

/// The page-conservation identity of a healthy, unbuffered join: each
/// distinct leaf (one page) is read once, and every further pair-touch
/// of a leaf books a coalesced read.
bool PagesConserved(const JoinStats& s) {
  return s.total_pages + s.buffer_hit_pages == s.leaf_blocks &&
         s.coalesced_reads == 2 * (s.block_pairs_swept - s.leaf_blocks) &&
         s.unavailable_pages == 0;
}

}  // namespace

void RunSelfJoin(Context& ctx) {
  Report& report = *ctx.report;
  const unsigned workers = Context::WorkersFor(ctx.nproc);

  const PointSet data = parsim::GenerateClusteredGaussian(
      kPoints, kDim, kClusters, kStddev, SubSeed(ctx.args.seed, 1));
  const double eps = CalibrateEps(data, kTargetPairs, SubSeed(ctx.args.seed, 2));
  report.Note("epsilon", std::to_string(eps));

  parsim::EngineOptions options;
  options.bulk_load = true;
  options.bulk_load_fill = 1.0;
  options.quantized_leaf_blocks = true;
  options.parallel_workers = workers;
  const auto factory = [&] {
    return std::make_unique<ParallelSearchEngine>(
        kDim, std::make_unique<parsim::NearOptimalDeclusterer>(kDim, kDisks),
        options);
  };
  const auto engine =
      BuildTimed(factory, data, ctx.tracer ? 1 : kSetupRepeats,
                 ctx.tracer == nullptr, &report);
  if (engine == nullptr) return;
  report.Note("threads", std::to_string(workers + 1) + " (" +
                             std::to_string(workers) +
                             " pool workers + caller)");

  parsim::JoinOptions join_options;
  join_options.threads = std::max(1u, workers);  // + the calling thread
  std::uint64_t expected_pairs = 0;
  JoinResult checked;  // the result the oracle samples
  const auto run_join = [&](const parsim::JoinOptions& o,
                            std::uint64_t request) {
    JoinResult r;
    {
      ScopedSpan op(ctx.tracer, "bench.join", request);
      ScopedSpan call(ctx.tracer, "parallel.SelfJoin", request);
      r = engine->SelfJoin(eps, o);
    }
    if (!PagesConserved(r.stats)) {
      report.Fail("selfjoin: page-conservation identity does not hold");
    }
    if (expected_pairs == 0) expected_pairs = r.stats.pairs_emitted;
    if (r.stats.pairs_emitted != expected_pairs ||
        r.pairs.size() != expected_pairs) {
      report.Fail("selfjoin: repeated joins emitted different pair counts");
    }
    return r;
  };

  checked = run_join(join_options, 0);  // warm-up, and the oracle's sample
  report.Note("pairs", std::to_string(expected_pairs));

  if (ctx.tracer == nullptr) {
    std::vector<double> join_ms, join_s, join_pairs;
    double sim_ms = 0.0;
    const std::size_t min_joins = SamplesNeeded(kTailQuantile);
    const Clock::time_point start = Clock::now();
    while (KeepMeasuring(Ms(start, Clock::now()) * 1e-3, ctx.args.seconds,
                         join_ms.size(), min_joins)) {
      const Clock::time_point t0 = Clock::now();
      const JoinResult r = run_join(join_options, 0);
      join_ms.push_back(Ms(t0, Clock::now()));
      join_s.push_back(join_ms.back() * 1e-3);
      join_pairs.push_back(static_cast<double>(r.stats.pairs_emitted));
      sim_ms += r.stats.parallel_ms;
    }
    report.attempted = join_ms.size();
    report.Add("ops_per_s",
               MedianSegmentRate(join_pairs, join_s, kRateSegments), "1/s");
    report.AddPercentile("p50_ms", Percentile(join_ms, 0.5), "ms",
                         join_ms.size());
    report.AddPercentile("tail_ms", Percentile(join_ms, kTailQuantile), "ms",
                         join_ms.size());
    report.Add("sim_ms_per_query",
               sim_ms / static_cast<double>(join_ms.size()), "ms");
    report.Note("tail_quantile", "p75 of join latency");
  } else {
    // Joins alternate untraced and traced (ABBA) to price the tracer.
    Tracer* tracer = ctx.tracer;
    double untraced_ms = 0.0, traced_ms = 0.0;
    JoinResult traced;
    for (int i = 0; i < 4; ++i) {
      const bool is_traced = i == 0 || i == 3;
      ctx.tracer = is_traced ? tracer : nullptr;
      const Clock::time_point t0 = Clock::now();
      JoinResult r = run_join(join_options, is_traced ? 1 : 0);
      (is_traced ? traced_ms : untraced_ms) += Ms(t0, Clock::now());
      if (is_traced) traced = std::move(r);
    }
    ctx.tracer = tracer;
    report.attempted = 4;
    report.Add("trace.overhead_frac", traced_ms / untraced_ms - 1.0, "ratio");
    traced_ms /= 2.0;
    report.Add("parallel.join_s", traced_ms * 1e-3, "s");

    parsim::JoinOptions serial;
    serial.threads = 1;
    Clock::time_point t0 = Clock::now();
    run_join(serial, 2);
    report.Add("parallel.join_scaling", Ms(t0, Clock::now()) / traced_ms,
               "ratio");

    const JoinStats& s = traced.stats;
    report.Add("parallel.join_candidates_per_pair",
               static_cast<double>(s.exact_distances + s.quantized_pruned) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, s.pairs_emitted)),
               "ratio");
    report.Add("parallel.join_block_pairs_swept",
               static_cast<double>(s.block_pairs_swept), "count");
    report.Add("core.busiest_disk_pages", static_cast<double>(s.max_pages),
               "pages");
    report.Add("core.balance", s.balance, "ratio");
    report.Add("index.data_pages_per_query",
               static_cast<double>(s.total_pages), "pages");
    report.Add("index.dir_pages_per_query",
               static_cast<double>(s.directory_pages), "pages");
    const double touched = static_cast<double>(
        s.total_pages + s.directory_pages + s.buffer_hit_pages +
        s.coalesced_reads);
    report.Add("io.coalesced_share",
               static_cast<double>(s.coalesced_reads) / touched, "ratio");
    report.Add("io.unavailable_pages",
               static_cast<double>(s.unavailable_pages), "pages");

    parsim::JoinOptions profiled = serial;
    profiled.profile_phases = true;
    t0 = Clock::now();
    const JoinResult p = run_join(profiled, 3);
    AddPhases(p.stats.phases, Ms(t0, Clock::now()), 1, &report);

    PointSet probe(kDim);
    for (const std::size_t i :
         SampleIndices(data.size(), 64, SubSeed(ctx.args.seed, 4))) {
      probe.Add(data[i]);
    }
    ProbeInputs in;
    in.engine = engine.get();
    in.data = &data;
    in.queries = &probe;
    in.fixed_threshold = engine->options().metric.ToComparable(eps);
    in.workers = workers;
    ProbeBuildLayers(in, tracer, &report);
    ProbeSearchLayers(in, tracer, &report);
  }

  // Oracle: sampled rows of the join against BruteForceBallQuery.
  const std::vector<std::size_t> rows =
      SampleIndices(data.size(), kOracleRows, SubSeed(ctx.args.seed, 3));
  std::unordered_map<parsim::PointId, std::vector<parsim::Neighbor>> got;
  for (const std::size_t r : rows) {
    got[static_cast<parsim::PointId>(r)].push_back(
        {static_cast<parsim::PointId>(r), 0.0});
  }
  for (const parsim::JoinPair& p : checked.pairs) {
    if (auto it = got.find(p.a); it != got.end()) {
      it->second.push_back({p.b, p.distance});
    }
    if (auto it = got.find(p.b); it != got.end()) {
      it->second.push_back({p.a, p.distance});
    }
  }
  const auto by_distance = [](const parsim::Neighbor& x,
                              const parsim::Neighbor& y) {
    return x.distance != y.distance ? x.distance < y.distance : x.id < y.id;
  };
  for (const std::size_t r : rows) {
    parsim::KnnResult want = parsim::BruteForceBallQuery(data, data[r], eps);
    parsim::KnnResult have = got[static_cast<parsim::PointId>(r)];
    std::sort(want.begin(), want.end(), by_distance);
    std::sort(have.begin(), have.end(), by_distance);
    if (!SameKnn(want, have)) {
      report.Fail("selfjoin: row " + std::to_string(r) +
                  " differs from BruteForceBallQuery");
    }
  }
  report.Note("oracle_rows", std::to_string(rows.size()));
}

}  // namespace perfbench
