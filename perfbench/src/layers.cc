#include "perfbench/src/layers.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "perfbench/src/stats.h"
#include "src/geometry/sq8.h"
#include "src/hilbert/hilbert.h"
#include "src/index/knn.h"
#include "src/index/leaf_sweep.h"
#include "src/index/xtree.h"
#include "src/io/disk.h"
#include "src/util/thread_pool.h"

namespace perfbench {

using parsim::Node;
using parsim::NodeId;
using parsim::PointSet;
using parsim::PointView;
using parsim::TreeBase;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sink for probe results so the compiler cannot drop the probed calls.
volatile std::uint64_t g_sink = 0;

/// A leaf with the MBR its parent entry records.
struct LeafRef {
  const Node* node = nullptr;
  parsim::Rect mbr;
};

/// Every leaf of the tree (with its parent-entry MBR) and every
/// directory entry's rectangle, read without charging any page.
void CollectTree(const TreeBase& tree, std::vector<LeafRef>* leaves,
                 std::vector<parsim::Rect>* dir_rects) {
  if (tree.root_id() == parsim::kInvalidNodeId) return;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) continue;
    for (const parsim::NodeEntry& e : node.entries) {
      dir_rects->push_back(e.rect);
      const Node& child = tree.PeekNode(e.child);
      if (child.IsLeaf()) {
        leaves->push_back({&child, e.rect});
      } else {
        stack.push_back(e.child);
      }
    }
  }
}

/// Indices of the `count` leaves nearest to `q` by MINDIST.
std::vector<std::size_t> NearestLeaves(const std::vector<LeafRef>& leaves,
                                       PointView q,
                                       const parsim::Metric& metric,
                                       std::size_t count) {
  std::vector<std::pair<double, std::size_t>> order(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    order[i] = {parsim::MinDistComparable(leaves[i].mbr, q, metric), i};
  }
  count = std::min(count, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(count),
                    order.end());
  std::vector<std::size_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = order[i].second;
  return out;
}

constexpr std::size_t kLeavesPerQuery = 32;
constexpr int kKernelReps = 8;

}  // namespace

std::unique_ptr<parsim::ParallelSearchEngine> BuildTimed(
    const EngineFactory& factory, const PointSet& data, int repeats,
    bool report_setup, Report* report) {
  std::vector<double> walls;
  std::unique_ptr<parsim::ParallelSearchEngine> engine;
  for (int r = 0; r < repeats; ++r) {
    // Free the previous build, and hand its memory back to the system so
    // peak RSS reflects one live engine, not allocator leftovers.
    engine.reset();
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    engine = factory();
    const parsim::Status s = engine->Build(data);
    walls.push_back(SecondsSince(start));
    if (!s.ok()) {
      report->Fail("engine Build failed: " + s.ToString());
      return nullptr;
    }
  }
  std::string note;
  for (double w : walls) {
    if (!note.empty()) note += ' ';
    note += std::to_string(w);
  }
  report->Note("setup_walls_s", note);
  std::sort(walls.begin(), walls.end());
  if (report_setup) report->Add("setup_s", walls[walls.size() / 2], "s");
  return engine;
}

void ProbeBuildLayers(const ProbeInputs& in, Tracer* tracer, Report* report) {
  const PointSet& data = *in.data;
  const std::size_t n = data.size();
  {
    ScopedSpan span(tracer, "core.DiskOfPoint");
    const parsim::Declusterer& dc = in.engine->declusterer();
    std::uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      acc += dc.DiskOfPoint(data[i], static_cast<parsim::PointId>(i));
    }
    report->Add("core.decluster_ns_per_point",
                SecondsSince(start) * 1e9 / static_cast<double>(n), "ns");
    g_sink = g_sink + acc;
  }
  {
    ScopedSpan span(tracer, "hilbert.IndexOfPoints");
    const parsim::HilbertCurve curve(data.dim(), /*bits=*/8);
    std::vector<std::uint64_t> keys(n * curve.key_words());
    const Clock::time_point start = Clock::now();
    curve.IndexOfPoints(data, 0, n, keys.data());
    report->Add("hilbert.key_ns_per_point",
                SecondsSince(start) * 1e9 / static_cast<double>(n), "ns");
    g_sink = g_sink + keys[n / 2];
  }
  {
    parsim::ThreadPool pool(in.workers);
    parsim::SimulatedDisk disk(0);
    parsim::XTreeOptions options;
    options.bulk_load_fill = in.engine->options().bulk_load_fill;
    parsim::XTree tree(data.dim(), &disk, options);
    const bool quantized = in.engine->options().quantized_leaf_blocks;
    tree.set_quantized_leaf_blocks(quantized);
    tree.set_sq8_prefix_stage(quantized &&
                              in.engine->options().cascade_prefix_stage);
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "index.BulkLoad");
      const parsim::Status s = tree.BulkLoad(data, nullptr, &pool);
      if (!s.ok()) report->Fail("fresh BulkLoad failed: " + s.ToString());
    }
    report->Add("index.bulk_load_s", SecondsSince(start), "s");
    start = Clock::now();
    {
      ScopedSpan span(tracer, "index.WarmLeafBlocks");
      tree.WarmLeafBlocks(&pool);
    }
    report->Add("index.warm_s", SecondsSince(start), "s");
  }
}

void ProbeSearchLayers(const ProbeInputs& in, Tracer* tracer,
                       Report* report) {
  const TreeBase& tree = in.engine->tree();
  const parsim::Metric& metric = in.engine->options().metric;
  const PointSet& queries = *in.queries;
  const std::size_t nq = queries.size();

  // HsKnn per query, and each query's k-th distance as its sweep cutoff.
  std::vector<double> hs_us;
  std::vector<double> thresholds(nq, in.fixed_threshold);
  for (std::size_t i = 0; i < nq; ++i) {
    const Clock::time_point start = Clock::now();
    parsim::KnnResult r;
    {
      ScopedSpan span(tracer, "index.HsKnn", i);
      r = parsim::HsKnn(tree, queries[i], in.k, metric);
    }
    hs_us.push_back(SecondsSince(start) * 1e6);
    if (in.fixed_threshold <= 0.0 && !r.empty()) {
      thresholds[i] = metric.ToComparable(r.back().distance);
    }
  }
  report->AddPercentile("index.hs_knn_us_p50", Percentile(hs_us, 0.5), "us",
                        hs_us.size());

  std::vector<LeafRef> leaves;
  std::vector<parsim::Rect> dir_rects;
  CollectTree(tree, &leaves, &dir_rects);
  if (leaves.empty()) {
    report->Fail("tree has no leaves to probe");
    return;
  }

  // MINDIST over every directory entry, per query.
  {
    ScopedSpan span(tracer, "geometry.MinDistComparable");
    double acc = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < nq; ++i) {
      for (const parsim::Rect& r : dir_rects) {
        acc += parsim::MinDistComparable(r, queries[i], metric);
      }
    }
    report->Add("geometry.mindist_ns_per_rect",
                SecondsSince(start) * 1e9 /
                    static_cast<double>(nq * dir_rects.size()),
                "ns");
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  }

  // The blocks each query would sweep last: its nearest leaves.
  std::vector<std::vector<const parsim::LeafBlock*>> blocks(nq);
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    for (std::size_t li :
         NearestLeaves(leaves, queries[i], metric, kLeavesPerQuery)) {
      const parsim::LeafBlock& b = tree.LeafBlockOf(*leaves[li].node);
      blocks[i].push_back(&b);
      candidates += b.count;
    }
  }
  const double total_candidates =
      static_cast<double>(candidates) * kKernelReps;

  {
    ScopedSpan span(tracer, "index.SweepLeafDistances");
    std::uint64_t pruned = 0, emitted = 0;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (std::size_t i = 0; i < nq; ++i) {
        const double thr = thresholds[i];
        for (const parsim::LeafBlock* b : blocks[i]) {
          const parsim::LeafSweepStats s = parsim::SweepLeafDistances(
              *b, queries[i], metric, [thr] { return thr; },
              [&emitted, thr](std::size_t, double d) {
                emitted += d <= thr ? 1 : 0;
              });
          pruned += s.quantized_pruned;
        }
      }
    }
    report->Add("index.sweep_ns_per_candidate",
                SecondsSince(start) * 1e9 / total_candidates, "ns");
    report->Add("index.prune_rate",
                static_cast<double>(pruned) / total_candidates, "ratio");
    g_sink = g_sink + emitted;
  }

  {
    ScopedSpan span(tracer, "geometry.ComparableMany");
    std::vector<double> out(tree.leaf_capacity_per_page() * 4 + 64);
    double acc = 0.0;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (std::size_t i = 0; i < nq; ++i) {
        for (const parsim::LeafBlock* b : blocks[i]) {
          if (out.size() < b->count) out.resize(b->count);
          metric.ComparableMany(queries[i], b->coords.data(), b->count,
                                b->dim, out.data());
          acc += out[0];
        }
      }
    }
    report->Add("geometry.exact_ns_per_distance",
                SecondsSince(start) * 1e9 / total_candidates, "ns");
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  }

  // SQ8 kernels over each block's mirror (built here when the engine's
  // blocks carry none), with query codes and cutoffs prepared untimed.
  struct Sq8Job {
    const parsim::Sq8Mirror* mirror = nullptr;
    std::vector<std::uint8_t> codes;
    std::uint32_t cutoff = 0;
  };
  std::vector<std::unique_ptr<parsim::Sq8Mirror>> own_mirrors;
  std::vector<Sq8Job> jobs;
  for (std::size_t i = 0; i < nq; ++i) {
    for (const parsim::LeafBlock* b : blocks[i]) {
      Sq8Job job;
      if (b->has_sq8) {
        job.mirror = &b->sq8;
      } else {
        own_mirrors.push_back(std::make_unique<parsim::Sq8Mirror>());
        own_mirrors.back()->BuildFrom(b->coords.data(), b->count, b->dim);
        job.mirror = own_mirrors.back().get();
      }
      job.codes.resize(job.mirror->dim);
      const parsim::Sq8Bound bound = parsim::PrepareSq8Query(
          *job.mirror, queries[i], metric.kind(), job.codes.data());
      const double cut = bound.PruneCutoff(thresholds[i]);
      job.cutoff = cut < 0.0 ? 0u
                   : cut >= 4294967295.0
                       ? 4294967295u
                       : static_cast<std::uint32_t>(cut);
      jobs.push_back(std::move(job));
    }
  }
  std::vector<std::uint32_t> out(tree.leaf_capacity_per_page() * 4 + 64);
  for (const Sq8Job& job : jobs) {
    if (out.size() < job.mirror->count) out.resize(job.mirror->count);
  }
  {
    ScopedSpan span(tracer, "geometry.Sq8Many");
    std::uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (const Sq8Job& job : jobs) {
        metric.Sq8Many(job.codes.data(), job.mirror->codes.data(),
                       job.mirror->count, job.mirror->dim, out.data());
        acc += out[0];
      }
    }
    report->Add("geometry.sq8_ns_per_candidate",
                SecondsSince(start) * 1e9 / total_candidates, "ns");
    g_sink = g_sink + acc;
  }
  {
    ScopedSpan span(tracer, "geometry.Sq8ManyUnder");
    std::uint64_t acc = 0;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (const Sq8Job& job : jobs) {
        acc += metric.Sq8ManyUnder(job.codes.data(), job.mirror->codes.data(),
                                   job.mirror->count, job.mirror->dim,
                                   job.cutoff, out.data());
      }
    }
    report->Add("geometry.sq8_under_ns_per_candidate",
                SecondsSince(start) * 1e9 / total_candidates, "ns");
    g_sink = g_sink + acc;
  }
}

void AddPhases(const parsim::PhaseBreakdown& phases, double wall_ms,
               std::size_t ops, Report* report) {
  using parsim::Phase;
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const double sweep = phases.of(Phase::kSweepPrep) +
                       phases.of(Phase::kSweepPrefix) +
                       phases.of(Phase::kSweepFull) +
                       phases.of(Phase::kSweepRerank);
  report->Add("phase.descent_ms", phases.of(Phase::kDescent) * per, "ms");
  report->Add("phase.frontier_ms", phases.of(Phase::kFrontier) * per, "ms");
  report->Add("phase.io_ms", phases.of(Phase::kIo) * per, "ms");
  report->Add("phase.sweep_ms", sweep * per, "ms");
  report->Add("phase.unattributed_ms", (wall_ms - phases.total_ms()) * per,
              "ms");
}

void ProfileHsKnnPhases(const ProbeInputs& in, Tracer* tracer,
                        Report* report) {
  parsim::PhaseAccumulator acc;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < in.queries->size(); ++i) {
    ScopedSpan span(tracer, "index.HsKnn", i);
    parsim::ScopedPhaseCapture capture(&acc);
    g_sink = g_sink + parsim::HsKnn(in.engine->tree(), (*in.queries)[i], in.k,
                                    in.engine->options().metric)
                          .size();
  }
  AddPhases(parsim::PhaseBreakdown::From(acc),
            SecondsSince(start) * 1e3, in.queries->size(), report);
}

void AddQueryCounters(const std::vector<parsim::QueryStats>& stats,
                      Report* report) {
  double busiest = 0, balance = 0, data = 0, dir = 0, pops = 0, skipped = 0;
  double coalesced = 0, touched = 0, unavailable = 0;
  for (const parsim::QueryStats& s : stats) {
    busiest += static_cast<double>(s.max_pages);
    balance += s.balance;
    data += static_cast<double>(s.total_pages);
    dir += static_cast<double>(s.directory_pages);
    pops += static_cast<double>(s.frontier_pops);
    skipped += static_cast<double>(s.cutoff_skipped_nodes);
    coalesced += static_cast<double>(s.coalesced_reads);
    touched += static_cast<double>(s.total_pages + s.directory_pages +
                                   s.buffer_hit_pages + s.coalesced_reads);
    unavailable += static_cast<double>(s.unavailable_pages);
  }
  const double n = stats.empty() ? 1.0 : static_cast<double>(stats.size());
  report->Add("core.busiest_disk_pages", busiest / n, "pages");
  report->Add("core.balance", balance / n, "ratio");
  report->Add("index.data_pages_per_query", data / n, "pages");
  report->Add("index.dir_pages_per_query", dir / n, "pages");
  report->Add("index.frontier_pops_per_query", pops / n, "count");
  report->Add("index.cutoff_skipped_per_query", skipped / n, "count");
  report->Add("io.coalesced_share", touched > 0 ? coalesced / touched : 0.0,
              "ratio");
  report->Add("io.unavailable_pages", unavailable, "pages");
}

namespace {

struct PerLayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric; must match BENCHMARK.json's per_layer list
// (run.py checks the printed set against it).
constexpr PerLayerName kPerLayer[] = {
    {"core.decluster_ns_per_point", "ns"},
    {"core.busiest_disk_pages", "pages"},
    {"core.balance", "ratio"},
    {"hilbert.key_ns_per_point", "ns"},
    {"index.bulk_load_s", "s"},
    {"index.warm_s", "s"},
    {"index.hs_knn_us_p50", "us"},
    {"index.data_pages_per_query", "pages"},
    {"index.dir_pages_per_query", "pages"},
    {"index.frontier_pops_per_query", "count"},
    {"index.cutoff_skipped_per_query", "count"},
    {"index.sweep_ns_per_candidate", "ns"},
    {"index.prune_rate", "ratio"},
    {"index.insert_us_p50", "us"},
    {"index.remove_us_p50", "us"},
    {"index.first_query_after_write_us", "us"},
    {"geometry.exact_ns_per_distance", "ns"},
    {"geometry.sq8_ns_per_candidate", "ns"},
    {"geometry.sq8_under_ns_per_candidate", "ns"},
    {"geometry.mindist_ns_per_rect", "ns"},
    {"io.buffer_hit_rate", "ratio"},
    {"io.coalesced_share", "ratio"},
    {"io.unavailable_pages", "pages"},
    {"parallel.batch_ms_p50", "ms"},
    {"parallel.batch_scaling", "ratio"},
    {"parallel.join_s", "s"},
    {"parallel.join_scaling", "ratio"},
    {"parallel.join_candidates_per_pair", "ratio"},
    {"parallel.join_block_pairs_swept", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.rounds_per_query", "count"},
    {"service.queries_per_round", "count"},
    {"service.rejected_frac", "ratio"},
    {"service.expired_frac", "ratio"},
    {"phase.descent_ms", "ms"},
    {"phase.frontier_ms", "ms"},
    {"phase.io_ms", "ms"},
    {"phase.sweep_ms", "ms"},
    {"phase.unattributed_ms", "ms"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"bench.self_s", "s"},
    {"core.self_s", "s"},
    {"hilbert.self_s", "s"},
    {"index.self_s", "s"},
    {"geometry.self_s", "s"},
    {"parallel.self_s", "s"},
    {"service.self_s", "s"},
};

}  // namespace

void AddLayerSelfTimes(const Tracer& tracer, Report* report) {
  const std::map<std::string, double> self = tracer.LayerSelfSeconds();
  for (const char* layer : {"bench", "core", "hilbert", "index", "geometry",
                            "parallel", "service"}) {
    const auto it = self.find(layer);
    report->Add(std::string(layer) + ".self_s",
                it == self.end() ? 0.0 : it->second, "s");
  }
}

void ZeroFillPerLayer(Report* report) {
  for (const PerLayerName& m : kPerLayer) {
    if (!report->Has(m.name)) report->Add(m.name, 0.0, m.unit);
  }
}

}  // namespace perfbench
