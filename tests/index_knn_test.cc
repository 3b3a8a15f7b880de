#include "src/index/knn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

void ExpectSameNeighbors(const KnnResult& got, const KnnResult& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Distances must agree exactly up to float rounding; ids may swap
    // among equidistant neighbors, so compare by distance and set.
    EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9) << "rank " << i;
  }
  std::vector<PointId> got_ids, want_ids;
  for (const auto& n : got) got_ids.push_back(n.id);
  for (const auto& n : expected) want_ids.push_back(n.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  // Ties at the k-th distance can legitimately differ; only check ids
  // when the k-th and (k+1)-th distances differ, which the caller
  // guarantees by using generic float data (ties have measure ~0).
  EXPECT_EQ(got_ids, want_ids);
}

TEST(BruteForceKnnTest, FindsExactNearest) {
  PointSet data(2);
  data.Add(Point({0.0f, 0.0f}));   // id 0
  data.Add(Point({0.5f, 0.5f}));   // id 1
  data.Add(Point({1.0f, 1.0f}));   // id 2
  const auto result = BruteForceKnn(data, Point({0.4f, 0.4f}), 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1u);
  EXPECT_EQ(result[1].id, 0u);
  EXPECT_NEAR(result[0].distance, std::sqrt(0.02), 1e-6);
}

TEST(BruteForceKnnTest, KLargerThanDataset) {
  PointSet data(1);
  data.Add(Point({0.1f}));
  data.Add(Point({0.9f}));
  const auto result = BruteForceKnn(data, Point({0.0f}), 10);
  EXPECT_EQ(result.size(), 2u);
}

TEST(HsKnnTest, EmptyTreeReturnsNothing) {
  SimulatedDisk disk(0);
  XTree tree(2, &disk);
  EXPECT_TRUE(HsKnn(tree, Point({0.5f, 0.5f}), 3).empty());
}

TEST(HsKnnTest, SinglePoint) {
  SimulatedDisk disk(0);
  XTree tree(2, &disk);
  ASSERT_TRUE(tree.Insert(Point({0.25f, 0.75f}), 9).ok());
  const auto result = HsKnn(tree, Point({0.0f, 0.0f}), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 9u);
}

TEST(HsKnnTest, ResultsSortedAscending) {
  SimulatedDisk disk(0);
  XTree tree(3, &disk);
  const PointSet data = GenerateUniform(2000, 3, 111);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const auto result = HsKnn(tree, Point({0.5f, 0.5f, 0.5f}), 20);
  ASSERT_EQ(result.size(), 20u);
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(HsKnnTest, ChargesPageReadsAndDistances) {
  SimulatedDisk disk(0);
  XTree tree(4, &disk);
  const PointSet data = GenerateUniform(5000, 4, 113);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  disk.ResetStats();
  (void)HsKnn(tree, Point({0.2f, 0.4f, 0.6f, 0.8f}), 10);
  EXPECT_GT(disk.stats().TotalPagesRead(), 0u);
  EXPECT_GT(disk.stats().distance_computations, 0u);
}

TEST(HsKnnTest, ReadsFewerPagesThanFullScan) {
  // The whole point of the index: NN search in low-d touches a small
  // fraction of the pages.
  SimulatedDisk disk(0);
  XTree tree(2, &disk);
  const PointSet data = GenerateUniform(30000, 2, 115);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const std::size_t total_pages = tree.ComputeStats().total_pages;
  disk.ResetStats();
  (void)HsKnn(tree, Point({0.3f, 0.7f}), 1);
  EXPECT_LT(disk.stats().TotalPagesRead(), total_pages / 10);
}

TEST(RkvKnnTest, RequiresL2) {
  SimulatedDisk disk(0);
  XTree tree(2, &disk);
  ASSERT_TRUE(tree.Insert(Point({0.5f, 0.5f}), 0).ok());
  EXPECT_DEATH(RkvKnn(tree, Point({0.1f, 0.1f}), 1, Metric(MetricKind::kL1)),
               "PARSIM_CHECK");
}

TEST(HsKnnTest, SupportsL1AndLmax) {
  SimulatedDisk disk(0);
  XTree tree(3, &disk);
  const PointSet data = GenerateUniform(3000, 3, 117);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const Point q = {0.3f, 0.6f, 0.2f};
  for (MetricKind kind : {MetricKind::kL1, MetricKind::kLmax}) {
    const Metric metric(kind);
    const auto got = HsKnn(tree, q, 5, metric);
    const auto expected = BruteForceKnn(data, q, 5, metric);
    ExpectSameNeighbors(got, expected);
  }
}

// ---------------------------------------------------------------------------
// Oracle sweeps: HS and RKV against brute force across dimensions, tree
// kinds, build methods, and k.

struct KnnSweepParam {
  std::size_t dim;
  std::size_t n;
  std::size_t k;
  bool use_xtree;
  bool bulk;
};

class KnnSweepTest : public ::testing::TestWithParam<KnnSweepParam> {};

TEST_P(KnnSweepTest, BothAlgorithmsMatchBruteForce) {
  const KnnSweepParam p = GetParam();
  SimulatedDisk disk(0);
  std::unique_ptr<TreeBase> tree;
  if (p.use_xtree) {
    tree = std::make_unique<XTree>(p.dim, &disk);
  } else {
    tree = std::make_unique<RStarTree>(p.dim, &disk);
  }
  const PointSet data = GenerateUniform(p.n, p.dim, 121 + p.dim * 7 + p.k);
  if (p.bulk) {
    ASSERT_TRUE(tree->BulkLoad(data).ok());
  } else {
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_TRUE(tree->Insert(data[i], static_cast<PointId>(i)).ok());
    }
  }
  const PointSet queries = GenerateUniformQueries(15, p.dim, 999 + p.dim);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto expected = BruteForceKnn(data, queries[qi], p.k);
    {
      SCOPED_TRACE("HS query " + std::to_string(qi));
      ExpectSameNeighbors(HsKnn(*tree, queries[qi], p.k), expected);
    }
    {
      SCOPED_TRACE("RKV query " + std::to_string(qi));
      ExpectSameNeighbors(RkvKnn(*tree, queries[qi], p.k), expected);
    }
  }
}

TEST_P(KnnSweepTest, HsNeverReadsMorePagesThanRkv) {
  // HS is page-optimal; RKV's depth-first order can only read at least
  // as many nodes for the same query.
  const KnnSweepParam p = GetParam();
  SimulatedDisk disk(0);
  XTree tree(p.dim, &disk);
  const PointSet data = GenerateUniform(p.n, p.dim, 131 + p.dim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const PointSet queries = GenerateUniformQueries(10, p.dim, 877);
  std::uint64_t hs_pages = 0, rkv_pages = 0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    disk.ResetStats();
    (void)HsKnn(tree, queries[qi], p.k);
    hs_pages += disk.stats().TotalPagesRead();
    disk.ResetStats();
    (void)RkvKnn(tree, queries[qi], p.k);
    rkv_pages += disk.stats().TotalPagesRead();
  }
  EXPECT_LE(hs_pages, rkv_pages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnSweepTest,
    ::testing::Values(KnnSweepParam{2, 2000, 1, true, false},
                      KnnSweepParam{2, 2000, 10, false, false},
                      KnnSweepParam{3, 3000, 5, true, true},
                      KnnSweepParam{5, 4000, 1, true, false},
                      KnnSweepParam{5, 4000, 20, false, true},
                      KnnSweepParam{8, 4000, 10, true, false},
                      KnnSweepParam{15, 3000, 1, true, false},
                      KnnSweepParam{15, 3000, 10, true, true}),
    [](const auto& info) {
      const KnnSweepParam& p = info.param;
      return "d" + std::to_string(p.dim) + "n" + std::to_string(p.n) + "k" +
             std::to_string(p.k) + (p.use_xtree ? "x" : "r") +
             (p.bulk ? "bulk" : "ins");
    });

// ---- Early-exit MINDIST (MinDistExceeds) against the full computation.

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(v));
  return bits;
}

/// Coordinates on a coarse grid, so faces touch and gaps repeat exactly
/// (MINDIST ties and zeros) as often as generic values occur.
Scalar GridCoord(Rng& rng) {
  return static_cast<Scalar>(rng.NextBounded(9)) / 8.0f;
}

/// A random rectangle: some dimensions (or all, when `point` is set)
/// degenerate to lo == hi.
Rect RandomRect(Rng& rng, std::size_t dim, bool point) {
  std::vector<Scalar> lo(dim), hi(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    Scalar a = rng.NextBernoulli(0.5) ? GridCoord(rng)
                                      : static_cast<Scalar>(rng.NextDouble());
    Scalar b = point || rng.NextBernoulli(0.2)
                   ? a
                   : static_cast<Scalar>(rng.NextDouble() * 0.5) + a;
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
  return Rect(std::move(lo), std::move(hi));
}

/// Cutoffs around `exact`: below, exactly at, one ulp either side, above,
/// zero, and infinity.
std::vector<double> CutoffsAround(double exact) {
  return {0.0,
          exact,
          std::nextafter(exact, -1.0),
          std::nextafter(exact, std::numeric_limits<double>::infinity()),
          exact * 0.5,
          exact * 2.0 + 1e-3,
          std::numeric_limits<double>::infinity()};
}

class MinDistExceedsTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(MinDistExceedsTest, PointOverloadMatchesFullMinDist) {
  const Metric metric(GetParam());
  Rng rng(6101 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t dim = 1 + rng.NextBounded(16);
    const Rect rect = RandomRect(rng, dim, /*point=*/trial % 5 == 0);
    std::vector<Scalar> q(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      q[i] = rng.NextBernoulli(0.5) ? GridCoord(rng)
                                    : static_cast<Scalar>(rng.NextDouble());
    }
    const PointView query(q.data(), dim);
    const double exact = MinDistComparable(rect, query, metric);
    for (const double cutoff : CutoffsAround(exact)) {
      double out = -1.0;
      const bool exceeds = MinDistExceeds(rect, query, metric, cutoff, &out);
      ASSERT_EQ(exceeds, exact > cutoff)
          << "trial " << trial << " cutoff " << cutoff << " exact " << exact;
      if (!exceeds) {
        EXPECT_EQ(Bits(out), Bits(exact)) << "trial " << trial;
      }
    }
  }
}

TEST_P(MinDistExceedsTest, RectOverloadMatchesFullMinDistInEitherOrder) {
  const Metric metric(GetParam());
  Rng rng(6201 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t dim = 1 + rng.NextBounded(16);
    const Rect a = RandomRect(rng, dim, /*point=*/trial % 5 == 0);
    const Rect b = RandomRect(rng, dim, /*point=*/trial % 7 == 0);
    const double exact = MinDistComparable(a, b, metric);
    ASSERT_EQ(Bits(exact), Bits(MinDistComparable(b, a, metric)))
        << "trial " << trial;
    for (const double cutoff : CutoffsAround(exact)) {
      double ab = -1.0;
      double ba = -1.0;
      const bool exceeds_ab = MinDistExceeds(a, b, metric, cutoff, &ab);
      const bool exceeds_ba = MinDistExceeds(b, a, metric, cutoff, &ba);
      ASSERT_EQ(exceeds_ab, exact > cutoff)
          << "trial " << trial << " cutoff " << cutoff << " exact " << exact;
      ASSERT_EQ(exceeds_ba, exceeds_ab) << "trial " << trial;
      if (!exceeds_ab) {
        EXPECT_EQ(Bits(ab), Bits(exact)) << "trial " << trial;
        EXPECT_EQ(Bits(ba), Bits(exact)) << "trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MinDistExceedsTest,
                         ::testing::Values(MetricKind::kL1, MetricKind::kL2,
                                           MetricKind::kLmax),
                         [](const auto& info) {
                           return MetricKindToString(info.param);
                         });


}  // namespace
}  // namespace parsim
