// Microbenchmarks of the core kernels: the O(d) coloring function, the
// Hilbert encoder, bucket routing, the folding table, the descent's
// MINDIST kernel, and engine query latency (wall-clock, not simulated
// time).

#include "bench/bench_common.h"

namespace parsim {
namespace bench {
namespace {

void BM_ColorOfSweep(benchmark::State& state) {
  BucketId b = 0;
  Color acc = 0;
  for (auto _ : state) acc ^= ColorOf(b++);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ColorOfSweep);

void BM_NearOptimalRoutePoint(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const NearOptimalDeclusterer dec(d, 16);
  const PointSet data = GenerateUniform(1024, d, 42);
  std::size_t i = 0;
  DiskId acc = 0;
  for (auto _ : state) {
    acc ^= dec.DiskOfPoint(data[i % data.size()], static_cast<PointId>(i));
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NearOptimalRoutePoint)->Arg(8)->Arg(15)->Arg(32);

void BM_HilbertRoutePoint(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const HilbertDeclusterer dec(d, 16, 8);
  const PointSet data = GenerateUniform(1024, d, 42);
  std::size_t i = 0;
  DiskId acc = 0;
  for (auto _ : state) {
    acc ^= dec.DiskOfPoint(data[i % data.size()], static_cast<PointId>(i));
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_HilbertRoutePoint)->Arg(8)->Arg(15)->Arg(32);

void BM_HilbertEncode(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const HilbertCurve curve(d, 8);
  Rng rng(42);
  std::vector<GridCoord> cell(d);
  for (auto& c : cell) c = static_cast<GridCoord>(rng.NextBounded(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Encode(cell));
  }
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(15)->Arg(32);

void BM_FoldingTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    ColorFolding folding(64, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(folding.table().size());
  }
}
BENCHMARK(BM_FoldingTableBuild)->Arg(5)->Arg(64);

void BM_SquaredL2(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const PointSet data = GenerateUniform(2, d, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(data[0], data[1]));
  }
}
BENCHMARK(BM_SquaredL2)->Arg(15)->Arg(64);

// MINDIST from a query to every child of one full directory page, per
// rectangle (counter s_per_rect): arg 1 = 0 runs the one-to-many kernel
// over the node's DirBlock (what HsFrontier::ExpandInterior calls), 1 runs
// MinDistComparable over the AoS entries, rect by rect.
void BM_DirMinDist(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const bool per_rect = state.range(1) != 0;
  const std::size_t count = DirCapacityPerPage(d);
  Rng rng(42);
  Node node;
  node.id = 0;
  node.level = 1;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<Scalar> lo(d), hi(d);
    for (std::size_t j = 0; j < d; ++j) {
      lo[j] = static_cast<Scalar>(rng.NextDouble() * 0.7);
      hi[j] = lo[j] + static_cast<Scalar>(rng.NextDouble() * 0.3);
    }
    node.entries.push_back(
        NodeEntry{Rect(std::move(lo), std::move(hi)), static_cast<NodeId>(i)});
  }
  DirBlock block;
  block.BuildFrom(node, d);
  const PointSet queries = GenerateUniform(64, d, 43);
  const Metric metric(MetricKind::kL2);
  std::vector<double> keys(count);
  std::size_t qi = 0;
  for (auto _ : state) {
    const PointView q = queries[qi++ % queries.size()];
    if (per_rect) {
      for (std::size_t i = 0; i < count; ++i) {
        keys[i] = MinDistComparable(node.entries[i].rect, q, metric);
      }
    } else {
      metric.MinDistMany(q, block.lo.data(), block.hi.data(), count,
                         block.stride, keys.data());
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.counters["s_per_rect"] = benchmark::Counter(
      static_cast<double>(count),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(per_rect ? "MinDistComparable" : "MinDistMany");
}
BENCHMARK(BM_DirMinDist)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1});

void BM_EngineQueryWallClock(benchmark::State& state) {
  const std::size_t d = 15;
  const PointSet data = FourierWorkload(50000, d, 42);
  auto engine = BuildOurs(data, 16);
  const PointSet queries = SampleQueriesFromData(data, 64, 0.02, 43);
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Query(queries[qi % queries.size()], 10));
    ++qi;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineQueryWallClock);

void BM_RecursiveFit(benchmark::State& state) {
  const std::size_t d = 10;
  const PointSet data = GenerateClusteredGaussian(50000, d, 2, 0.03, 42);
  for (auto _ : state) {
    RecursiveDeclusterer dec(d, 16);
    benchmark::DoNotOptimize(dec.Fit(data));
  }
}
BENCHMARK(BM_RecursiveFit);

}  // namespace
}  // namespace bench
}  // namespace parsim

BENCHMARK_MAIN();
