// SoA leaf blocks vs the AoS entry layout they mirror.
//
// The refactored query paths (HsKnn, RangeQuery, BallQuery, the batched
// scheduler) read leaf pages through LeafBlockOf() instead of the
// per-entry rects, so these properties pin the contract the whole PR
// rests on: blocks are bitwise mirrors of their leaves, kernel sweeps
// over them are bitwise equal to per-entry distance calls, every query
// kind returns bit-identical answers to a pre-SoA oracle, and mutations
// invalidate stale blocks. The interior-node DirBlocks share the cache:
// they must mirror their nodes after every insert and delete, and
// concurrent first touches must build them race-free.

#include "src/index/leaf_block.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/knn.h"
#include "src/io/cost_capture.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

/// Every (tree, brute-force) answer must match bit for bit: same ids in
/// the same order is too strict only at ties, so distances compare
/// exactly and ids as sets.
void ExpectBitIdentical(const KnnResult& got, const KnnResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
  std::vector<PointId> got_ids, want_ids;
  for (const auto& n : got) got_ids.push_back(n.id);
  for (const auto& n : want) want_ids.push_back(n.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);
}

/// Collects every leaf id reachable from the root.
std::vector<NodeId> CollectLeaves(const TreeBase& tree) {
  std::vector<NodeId> leaves;
  if (tree.root_id() == kInvalidNodeId) return leaves;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& node = tree.AccessNode(id);
    if (node.IsLeaf()) {
      leaves.push_back(id);
      continue;
    }
    for (const NodeEntry& e : node.entries) stack.push_back(e.child);
  }
  return leaves;
}

class LeafBlockPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeafBlockPropertyTest, BlocksMirrorLeafEntriesBitwise) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(700, dim, 7001 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (const NodeId leaf_id : CollectLeaves(tree)) {
    const Node& leaf = tree.AccessNode(leaf_id);
    const LeafBlock& block = tree.LeafBlockOf(leaf);
    ASSERT_EQ(block.count, leaf.entries.size());
    ASSERT_EQ(block.dim, dim);
    for (std::size_t i = 0; i < block.count; ++i) {
      EXPECT_EQ(block.ids[i], leaf.entries[i].child);
      // Leaf entries store points as degenerate rects; the block must
      // carry the identical scalars.
      for (std::size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(block.coords[i * dim + d], leaf.entries[i].rect.lo(d));
      }
    }
  }
}

TEST_P(LeafBlockPropertyTest, KernelSweepMatchesPerEntryDistances) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(500, dim, 7101 + dim);
  const PointSet queries = GenerateUniformQueries(4, dim, 7103 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const NodeId leaf_id : CollectLeaves(tree)) {
      const Node& leaf = tree.AccessNode(leaf_id);
      const LeafBlock& block = tree.LeafBlockOf(leaf);
      std::vector<double> swept(block.count);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        metric.ComparableMany(queries[qi], block.coords.data(), block.count,
                              dim, swept.data());
        for (std::size_t i = 0; i < block.count; ++i) {
          EXPECT_EQ(swept[i], metric.Comparable(queries[qi], block.row(i)))
              << "metric " << static_cast<int>(kind) << " point " << i;
        }
      }
    }
  }
}

TEST_P(LeafBlockPropertyTest, QueriesMatchOracleOnBulkLoadedTree) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(800, dim, 7201 + dim);
  const PointSet queries = GenerateUniformQueries(6, dim, 7203 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    // k-NN through the SoA sweep vs the linear-scan oracle.
    ExpectBitIdentical(HsKnn(tree, queries[qi], 8),
                       BruteForceKnn(data, queries[qi], 8));
    // Ball query (same leaf path, threshold semantics).
    ExpectBitIdentical(BallQuery(tree, queries[qi], 0.4),
                       BruteForceBallQuery(data, queries[qi], 0.4));
  }
}

TEST_P(LeafBlockPropertyTest, RangeAndPartialMatchQueriesMatchScan) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(800, dim, 7301 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  const auto expect_matches_scan = [&](const Rect& query) {
    std::vector<PointId> got = tree.RangeQuery(query);
    std::vector<PointId> want;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (query.Contains(data[i])) want.push_back(static_cast<PointId>(i));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_FALSE(want.empty());  // the windows below are wide enough
  };

  // Full range query: a wide window (0.9^16 of the space still holds
  // ~150 of the 800 points, so the check never goes vacuous).
  {
    std::vector<Scalar> lo(dim, 0.05f), hi(dim, 0.95f);
    expect_matches_scan(Rect(std::move(lo), std::move(hi)));
  }
  // Partial-match query: only every other dimension is constrained, the
  // rest stay at the full domain — the classic "some attributes given"
  // similarity query, exercised through the same leaf sweep.
  {
    std::vector<Scalar> lo(dim, 0.0f), hi(dim, 1.0f);
    for (std::size_t d = 0; d < dim; d += 2) {
      lo[d] = 0.15f;
      hi[d] = 0.85f;
    }
    expect_matches_scan(Rect(std::move(lo), std::move(hi)));
  }
}

TEST_P(LeafBlockPropertyTest, InsertAndDeleteInvalidateCachedBlocks) {
  const std::size_t dim = GetParam();
  PointSet data = GenerateUniform(400, dim, 7401 + dim);
  SimulatedDisk disk(0);
  RStarTree tree(dim, &disk);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  // Materialize every block, then mutate: stale blocks must not leak
  // into any query answer.
  for (const NodeId leaf_id : CollectLeaves(tree)) {
    (void)tree.LeafBlockOf(tree.AccessNode(leaf_id));
  }

  const Point probe(std::vector<Scalar>(dim, 0.5f));
  const PointId extra_id = 100000;
  ASSERT_TRUE(tree.Insert(probe, extra_id).ok());
  KnnResult nearest = HsKnn(tree, probe, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].id, extra_id);
  EXPECT_EQ(nearest[0].distance, 0.0);

  ASSERT_TRUE(tree.Delete(probe, extra_id).ok());
  nearest = HsKnn(tree, probe, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_NE(nearest[0].id, extra_id);

  // After the mutations every block still mirrors its leaf exactly.
  for (const NodeId leaf_id : CollectLeaves(tree)) {
    const Node& leaf = tree.AccessNode(leaf_id);
    const LeafBlock& block = tree.LeafBlockOf(leaf);
    ASSERT_EQ(block.count, leaf.entries.size());
    for (std::size_t i = 0; i < block.count; ++i) {
      EXPECT_EQ(block.ids[i], leaf.entries[i].child);
    }
  }
}

/// Every interior node reachable from the root, unmetered.
std::vector<NodeId> CollectInterior(const TreeBase& tree) {
  std::vector<NodeId> interior;
  if (tree.root_id() == kInvalidNodeId) return interior;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) continue;
    interior.push_back(node.id);
    for (const NodeEntry& e : node.entries) stack.push_back(e.child);
  }
  return interior;
}

/// Every reachable interior node's DirBlock holds exactly its entries'
/// bounds and children, dimension-major, with zeroed padding lanes.
void ExpectDirBlocksMirrorEntries(const TreeBase& tree) {
  const std::size_t dim = tree.dim();
  for (const NodeId id : CollectInterior(tree)) {
    const Node& node = tree.PeekNode(id);
    const DirBlock& block = tree.DirBlockOf(node);
    ASSERT_EQ(block.count, node.entries.size()) << "node " << id;
    ASSERT_EQ(block.stride % kRectBlockLanes, 0u);
    ASSERT_GE(block.stride, block.count);
    ASSERT_LT(block.stride, block.count + kRectBlockLanes);
    ASSERT_EQ(block.lo.size(), dim * block.stride);
    ASSERT_EQ(block.hi.size(), dim * block.stride);
    ASSERT_EQ(block.children.size(), block.count);
    for (std::size_t i = 0; i < block.stride; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        const Scalar lo = block.lo[j * block.stride + i];
        const Scalar hi = block.hi[j * block.stride + i];
        if (i < block.count) {
          EXPECT_EQ(lo, node.entries[i].rect.lo(j)) << "node " << id;
          EXPECT_EQ(hi, node.entries[i].rect.hi(j)) << "node " << id;
        } else {
          EXPECT_EQ(lo, 0.0f);
          EXPECT_EQ(hi, 0.0f);
        }
      }
      if (i < block.count) {
        EXPECT_EQ(block.children[i], node.entries[i].child) << "node " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LeafBlockPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 8, 11, 13, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

// High dimensions keep pages small (d=64: 15 points per leaf, 7 children
// per directory page), so a few hundred inserts build a three-level tree.
class DirBlockMutationTest : public ::testing::TestWithParam<std::size_t> {};

// Writes interleaved with queries on ONE tree: inserts that split leaves
// and directory nodes, then mixed inserts and deletes that condense
// underfull nodes. After every write each reachable DirBlock must mirror
// its node (stale blocks from before the write must never be served),
// and k-NN under every metric must match the linear scan over the live
// points.
TEST_P(DirBlockMutationTest, DirBlocksTrackInsertsAndDeletes) {
  const std::size_t dim = GetParam();
  const PointSet pool = GenerateUniform(520, dim, 7501 + dim);
  const PointSet queries = GenerateUniformQueries(2, dim, 7503 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  std::vector<PointId> live;  // ids of stored points (pool positions)

  const auto check = [&](const char* op, std::size_t id) {
    SCOPED_TRACE(::testing::Message() << op << " " << id);
    ASSERT_TRUE(tree.ValidateInvariants().ok());
    ExpectDirBlocksMirrorEntries(tree);
    PointSet points(dim);
    for (const PointId id : live) points.Add(pool[id]);
    for (const MetricKind kind :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
      const Metric metric(kind);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        KnnResult want = BruteForceKnn(points, queries[qi], 5, metric);
        for (Neighbor& n : want) n.id = live[n.id];
        ExpectBitIdentical(HsKnn(tree, queries[qi], 5, metric), want);
      }
    }
  };

  std::size_t next = 0;
  for (; next < 400; ++next) {
    ASSERT_TRUE(tree.Insert(pool[next], static_cast<PointId>(next)).ok());
    live.push_back(static_cast<PointId>(next));
    check("insert", next);
  }
  ASSERT_GE(tree.height(), 3) << "inserts must split directory nodes";
  // Two deletes per insert until the tree is down to ~70 points: the
  // deletes empty leaves and shrink directory nodes below min fill.
  Rng rng(7505 + dim);
  for (int round = 0; live.size() > 70; ++round) {
    if (round % 3 == 2 && next < pool.size()) {
      ASSERT_TRUE(tree.Insert(pool[next], static_cast<PointId>(next)).ok());
      live.push_back(static_cast<PointId>(next));
      check("insert", next);
      ++next;
      continue;
    }
    const std::size_t victim = rng.NextBounded(live.size());
    const PointId id = live[victim];
    ASSERT_TRUE(tree.Delete(pool[id], id).ok());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    check("delete", id);
  }
}

// Readers racing on a freshly built tree: every block is built on first
// touch, by whichever thread reaches its slot first, while the others
// wait on the slot mutex or take the epoch fast path (CI runs this under
// ThreadSanitizer). Each thread's answers must equal a serial rerun.
TEST(DirBlockConcurrencyTest, ConcurrentFirstTouchMatchesSerial) {
  const std::size_t dim = 16;
  const PointSet data = GenerateUniform(6000, dim, 7601);
  const PointSet queries = GenerateUniformQueries(12, dim, 7603);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  ASSERT_GE(tree.height(), 3);

  const MetricKind kinds[] = {MetricKind::kL1, MetricKind::kL2,
                              MetricKind::kLmax};
  constexpr std::size_t kThreads = 6;
  std::vector<std::vector<KnnResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread charge sink: the disk's own counters are not shared-
      // writer safe, exactly as in the engines' concurrent batches.
      QueryCostAccumulator acc(1);
      ScopedCostCapture capture(&acc);
      const Metric metric(kinds[t % 3]);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        got[t].push_back(HsKnn(tree, queries[(qi + t) % queries.size()], 10,
                               metric));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ExpectDirBlocksMirrorEntries(tree);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const Metric metric(kinds[t % 3]);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_TRUE(got[t][qi] ==
                  HsKnn(tree, queries[(qi + t) % queries.size()], 10, metric))
          << "thread " << t << " query " << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DirBlockMutationTest,
                         ::testing::Values(33, 48, 64),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parsim
