// Path-scoped invalidation of per-node derived state. A tree write marks
// stale only the nodes on the root-to-target paths it walks (plus the
// nodes it creates, which start stale), so these tests drive random
// insert/delete sequences through splits, root growth, supernodes,
// forced reinsert, condensation and root shrink, and after EVERY write
// compare each reachable node's cached LeafBlock / DirBlock with a fresh
// BuildFrom, each leaf's memoized engine route with the unmemoized one,
// and query answers with the brute-force oracle on the live set. The
// concurrent test is in the TSAN suite (tools/ci.sh): it lets four batch
// workers first-touch the slots each write invalidated.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/index/knn.h"
#include "src/index/leaf_block.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/parallel/engine.h"
#include "src/parallel/route_memo.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

std::string Describe(const char* what, NodeId id) {
  std::ostringstream out;
  out << what << " of node " << id;
  return out.str();
}

// The first difference between a reachable node's cached block and a
// fresh build from its entries, or "" when every block is current.
// Building the cached blocks as a side effect leaves the cache warm, so
// the next write starts with every reachable slot built.
std::string FirstStaleBlock(const TreeBase& tree) {
  if (tree.root_id() == kInvalidNodeId) return "";
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& node = tree.PeekNode(id);
    if (node.IsLeaf()) {
      const LeafBlock& cached = tree.LeafBlockOf(node);
      LeafBlock fresh;
      fresh.BuildFrom(node, tree.dim(), tree.quantized_leaf_blocks());
      if (cached.count != fresh.count || cached.dim != fresh.dim ||
          cached.coords != fresh.coords || cached.ids != fresh.ids) {
        return Describe("leaf block", id);
      }
      if (cached.has_sq8 != fresh.has_sq8 ||
          cached.sq8.count != fresh.sq8.count ||
          cached.sq8.dim != fresh.sq8.dim ||
          cached.sq8.scale != fresh.sq8.scale ||
          cached.sq8.lo != fresh.sq8.lo || cached.sq8.err != fresh.sq8.err ||
          cached.sq8.codes != fresh.sq8.codes) {
        return Describe("SQ8 mirror", id);
      }
      continue;
    }
    const DirBlock& cached = tree.DirBlockOf(node);
    DirBlock fresh;
    fresh.BuildFrom(node, tree.dim());
    if (cached.count != fresh.count || cached.stride != fresh.stride ||
        cached.lo != fresh.lo || cached.hi != fresh.hi ||
        cached.children != fresh.children) {
      return Describe("directory block", id);
    }
    for (const NodeEntry& e : node.entries) stack.push_back(e.child);
  }
  return "";
}

// What the random write sequence went through; every scenario must see
// all of it, or the coherence checks would not cover those paths.
struct Coverage {
  bool split = false;
  bool root_growth = false;
  bool condense = false;
  bool root_shrink = false;
};

// Grows the tree from empty to `peak` live points with a 20% share of
// deletes, then shrinks it to a handful with a 20% share of inserts,
// checking block coherence after every write.
Coverage RunWriteSequence(TreeBase* tree, std::size_t peak,
                          std::uint64_t seed) {
  const std::size_t dim = tree->dim();
  const PointSet data =
      GenerateClusteredGaussian(2 * peak, dim, 1, 0.02, seed);
  Rng rng(seed + 1);
  std::vector<std::size_t> live;
  std::size_t next = 0;
  Coverage seen;
  std::size_t write = 0;
  const auto check = [&](const char* op) {
    ++write;
    const std::string stale = FirstStaleBlock(*tree);
    EXPECT_EQ(stale, "") << "after write " << write << " (" << op << ")";
    return stale.empty();
  };
  const auto insert = [&] {
    const int height = tree->height();
    const std::size_t nodes = tree->num_nodes();
    EXPECT_TRUE(tree->Insert(data[next], static_cast<PointId>(next)).ok());
    live.push_back(next++);
    if (tree->num_nodes() > nodes + (height == 0 ? 1 : 0)) seen.split = true;
    if (height > 0 && tree->height() > height) seen.root_growth = true;
    return check("insert");
  };
  const auto remove = [&] {
    const std::size_t j = static_cast<std::size_t>(rng.NextBounded(live.size()));
    const std::size_t victim = live[j];
    live[j] = live.back();
    live.pop_back();
    const int height = tree->height();
    const std::size_t reachable = tree->ComputeStats().num_nodes;
    EXPECT_TRUE(
        tree->Delete(data[victim], static_cast<PointId>(victim)).ok());
    if (tree->ComputeStats().num_nodes < reachable) seen.condense = true;
    if (tree->height() < height && tree->height() > 0) seen.root_shrink = true;
    return check("delete");
  };
  while (live.size() < peak) {
    const bool ok = (live.size() > 8 && rng.NextDouble() < 0.2) ? remove()
                                                                : insert();
    if (!ok) return seen;
  }
  while (live.size() > 4) {
    const bool ok =
        (rng.NextDouble() < 0.2 && next < data.size()) ? insert() : remove();
    if (!ok) return seen;
  }
  EXPECT_TRUE(tree->ValidateInvariants().ok());
  return seen;
}

void ExpectFullCoverage(const Coverage& seen) {
  EXPECT_TRUE(seen.split);
  EXPECT_TRUE(seen.root_growth);
  EXPECT_TRUE(seen.condense);
  EXPECT_TRUE(seen.root_shrink);
}

struct XTreeCase {
  std::size_t dim;
  std::size_t peak;
  bool quantized;
};

void PrintTo(const XTreeCase& c, std::ostream* out) {
  *out << "d=" << c.dim << " peak=" << c.peak
       << (c.quantized ? " sq8" : " exact");
}

class XTreeWriteInvalidationTest
    : public ::testing::TestWithParam<XTreeCase> {};

TEST_P(XTreeWriteInvalidationTest, BlocksMatchFreshBuildsAfterEveryWrite) {
  const XTreeCase c = GetParam();
  SimulatedDisk disk(0);
  XTreeOptions options;
  // Only overlap-free directory splits are accepted, so the dense blob
  // the sequence draws from turns directory overflows into supernodes.
  options.max_overlap = 0.0;
  XTree tree(c.dim, &disk, options);
  tree.set_quantized_leaf_blocks(c.quantized);
  ExpectFullCoverage(RunWriteSequence(&tree, c.peak, 4000 + c.dim));
  EXPECT_GT(tree.supernode_extensions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Supernodes, XTreeWriteInvalidationTest,
    ::testing::Values(XTreeCase{16, 1800, true}, XTreeCase{33, 700, true},
                      XTreeCase{16, 1800, false}, XTreeCase{33, 700, false}),
    [](const ::testing::TestParamInfo<XTreeCase>& info) {
      return "d" + std::to_string(info.param.dim) +
             (info.param.quantized ? "_sq8" : "_exact");
    });

TEST(RStarWriteInvalidationTest, ForcedReinsertKeepsBlocksCoherent) {
  SimulatedDisk disk(0);
  TreeOptions options;
  options.forced_reinsert = true;
  RStarTree tree(8, &disk, options);
  ExpectFullCoverage(RunWriteSequence(&tree, 3000, 4100));
}

// The engine's memoized route of a leaf (primary disk and replica
// bucket, packed in the tree's per-node memo word) must be either unset
// or the route recomputed from the leaf's current MBR.
std::string FirstStaleRoute(const ParallelSearchEngine& engine) {
  const TreeBase& tree = engine.tree();
  if (tree.root_id() == kInvalidNodeId) return "";
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (!node.IsLeaf()) {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
      continue;
    }
    const std::uint64_t word =
        tree.NodeMemo(node.id).load(std::memory_order_relaxed);
    if (!route_memo::IsValid(word)) continue;
    const Point center = node.ComputeMbr(tree.dim()).Center();
    const DiskId primary = engine.declusterer().DiskOfPoint(center, node.id);
    const BucketId bucket =
        engine.replica_placement() != nullptr
            ? engine.replica_placement()->bucketizer().BucketOf(center)
            : BucketId{0};
    if (route_memo::PrimaryOf(word) != primary ||
        route_memo::BucketOf(word) != bucket) {
      return Describe("memoized route", node.id);
    }
  }
  return "";
}

// Sorted by (distance, id) so equal-distance neighbours compare stably.
KnnResult Canonical(KnnResult r) {
  std::sort(r.begin(), r.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  return r;
}

TEST(EngineWriteInvalidationTest, MixedWorkloadKeepsRoutesBlocksAndAnswers) {
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kBase = 3000;
  constexpr std::size_t kOps = 2400;
  constexpr std::size_t kK = 10;
  const PointSet data =
      GenerateClusteredGaussian(kBase + kOps, kDim, 12, 0.05, 4200);
  EngineOptions options;
  options.bulk_load = true;
  options.enable_replicas = true;
  ParallelSearchEngine engine(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, 8), options);
  PointSet base(kDim);
  for (std::size_t i = 0; i < kBase; ++i) base.Add(data[i]);
  ASSERT_TRUE(engine.Build(base).ok());
  engine.WarmLeafBlocks();

  // Live records: positions in `data` (which are also their ids).
  std::vector<std::size_t> live(kBase);
  for (std::size_t i = 0; i < kBase; ++i) live[i] = i;
  std::size_t next = kBase;
  PointSet live_points(kDim);
  bool live_points_current = false;
  const PointSet queries = GenerateUniformQueries(64, kDim, 4201);
  Rng rng(4202);
  std::size_t writes = 0;
  for (std::size_t op = 0; op < kOps; ++op) {
    const double u = rng.NextDouble();
    if (u < 0.90) {
      const PointView q =
          queries[static_cast<std::size_t>(rng.NextBounded(queries.size()))];
      if (!live_points_current) {
        live_points = PointSet(kDim);
        for (std::size_t id : live) live_points.Add(data[id]);
        live_points_current = true;
      }
      KnnResult expected = BruteForceKnn(live_points, q, kK);
      for (Neighbor& n : expected) n.id = static_cast<PointId>(live[n.id]);
      const KnnResult got = engine.Query(q, kK);
      ASSERT_EQ(Canonical(got), Canonical(expected)) << "query op " << op;
      continue;
    }
    if (u < 0.95) {
      ASSERT_TRUE(engine.Insert(data[next], static_cast<PointId>(next)).ok());
      live.push_back(next++);
    } else {
      const std::size_t j =
          static_cast<std::size_t>(rng.NextBounded(live.size()));
      const std::size_t victim = live[j];
      live[j] = live.back();
      live.pop_back();
      ASSERT_TRUE(
          engine.Remove(data[victim], static_cast<PointId>(victim)).ok());
    }
    live_points_current = false;
    ++writes;
    ASSERT_EQ(FirstStaleRoute(engine), "") << "after write " << writes;
    ASSERT_EQ(FirstStaleBlock(engine.tree()), "") << "after write " << writes;
    // Re-memoize every leaf route so the next write has stale words to
    // leave behind if it missed a node.
    engine.WarmLeafBlocks();
  }
  EXPECT_GT(writes, 100u);
  EXPECT_TRUE(engine.tree().ValidateInvariants().ok());
}

// Each write is followed by a 4-worker QueryBatch whose queries all sit
// next to the written point, so the workers race to first-touch the
// slots (root and path blocks, SQ8 mirrors, route words) the write just
// invalidated. Answers must equal the serial per-query ones bit for bit,
// and the blocks and routes the race built must be current.
TEST(EngineWriteInvalidationTest, ConcurrentFirstTouchAfterEachWrite) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kBase = 4000;
  constexpr std::size_t kWrites = 40;
  constexpr std::size_t kBatch = 16;
  constexpr std::size_t kK = 5;
  const PointSet data =
      GenerateClusteredGaussian(kBase + kWrites, kDim, 8, 0.05, 4300);
  EngineOptions options;
  options.bulk_load = true;
  options.enable_replicas = true;
  options.quantized_leaf_blocks = true;
  ParallelSearchEngine engine(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, 8), options);
  PointSet base(kDim);
  for (std::size_t i = 0; i < kBase; ++i) base.Add(data[i]);
  ASSERT_TRUE(engine.Build(base).ok());
  engine.WarmLeafBlocks(/*threads=*/4);

  Rng rng(4301);
  for (std::size_t w = 0; w < kWrites; ++w) {
    // Alternate inserting a fresh point and removing a base one (a
    // different one each time: base points are visited with stride 97).
    std::size_t written;
    if (w % 2 == 0) {
      written = kBase + w;
      ASSERT_TRUE(engine.Insert(data[written], static_cast<PointId>(written))
                      .ok());
    } else {
      written = (w * 97) % kBase;
      ASSERT_TRUE(
          engine.Remove(data[written], static_cast<PointId>(written)).ok());
    }
    PointSet batch(kDim);
    for (std::size_t i = 0; i < kBatch; ++i) {
      Point q(std::vector<Scalar>(data[written].begin(), data[written].end()));
      for (std::size_t j = 0; j < kDim; ++j) {
        q[j] += static_cast<Scalar>((rng.NextDouble() - 0.5) * 0.01);
      }
      batch.Add(q);
    }
    const std::vector<KnnResult> got =
        engine.QueryBatch(batch, kK, nullptr, /*threads=*/4);
    ASSERT_EQ(got.size(), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(got[i], engine.Query(batch[i], kK))
          << "write " << w << " query " << i;
    }
    ASSERT_EQ(FirstStaleRoute(engine), "") << "after write " << w;
    ASSERT_EQ(FirstStaleBlock(engine.tree()), "") << "after write " << w;
  }
}

}  // namespace
}  // namespace parsim
