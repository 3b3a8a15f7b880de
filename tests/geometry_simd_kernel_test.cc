// Kernel equivalence: the dispatched (possibly SIMD) distance kernels
// must agree with the portable scalar reference on every dimension shape
// — odd, even, below/above the vector width, and large — and the
// one-to-many kernel must be bit-identical to the one-to-one calls. The
// rectangle MINDIST kernel (Metric::MinDistMany) must match
// MinDistComparable bit for bit on both of its paths.

#include "src/geometry/metric.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "src/geometry/rect.h"
#include "src/index/knn.h"
#include "src/util/random.h"

namespace parsim {
namespace {

constexpr std::size_t kDims[] = {1,  2,  3,  4,  5,  7,  8,   9,
                                 15, 16, 17, 31, 33, 64, 127, 256};

Point RandomPoint(Rng& rng, std::size_t dim, double scale = 1.0) {
  Point p(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    p[i] = static_cast<Scalar>((rng.NextDouble() - 0.5) * 2.0 * scale);
  }
  return p;
}

// Relative tolerance for accumulation-order differences between the
// scalar reference and a vectorized kernel (a few ULPs of double).
void ExpectNear(double reference, double actual) {
  const double tol = 1e-12 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(reference, actual, tol);
}

TEST(SimdKernelTest, PairKernelsMatchScalarReference) {
  Rng rng(1201);
  for (const std::size_t dim : kDims) {
    for (int trial = 0; trial < 25; ++trial) {
      const Point a = RandomPoint(rng, dim);
      const Point b = RandomPoint(rng, dim);
      ExpectNear(detail::SquaredL2Scalar(a, b), SquaredL2(a, b));
      ExpectNear(detail::L1Scalar(a, b), L1(a, b));
      // Lmax is a max of exact per-coordinate values: order-insensitive,
      // so the dispatched kernel must agree exactly.
      EXPECT_EQ(detail::LmaxScalar(a, b), Lmax(a, b));
    }
  }
}

TEST(SimdKernelTest, PairKernelsMatchScalarOnLargeMagnitudes) {
  Rng rng(1203);
  for (const std::size_t dim : {3ul, 16ul, 33ul}) {
    for (int trial = 0; trial < 25; ++trial) {
      const Point a = RandomPoint(rng, dim, 1e6);
      const Point b = RandomPoint(rng, dim, 1e6);
      ExpectNear(detail::SquaredL2Scalar(a, b), SquaredL2(a, b));
      ExpectNear(detail::L1Scalar(a, b), L1(a, b));
      EXPECT_EQ(detail::LmaxScalar(a, b), Lmax(a, b));
    }
  }
}

TEST(SimdKernelTest, ZeroDistanceAndEmptyInput) {
  for (const std::size_t dim : kDims) {
    const Point p(dim, 0.25f);
    EXPECT_EQ(SquaredL2(p, p), 0.0);
    EXPECT_EQ(L1(p, p), 0.0);
    EXPECT_EQ(Lmax(p, p), 0.0);
  }
}

TEST(SimdKernelTest, OneToManyBitIdenticalToOneToOne) {
  Rng rng(1205);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t dim : {1ul, 5ul, 8ul, 16ul, 17ul, 64ul}) {
      const std::size_t count = 137;  // odd, spans several blocks of 4/8
      PointSet points(dim);
      points.Reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        points.Add(RandomPoint(rng, dim));
      }
      const Point query = RandomPoint(rng, dim);
      std::vector<double> many(count);
      metric.ComparableMany(query, points.data(), count, dim, many.data());
      for (std::size_t i = 0; i < count; ++i) {
        // Bitwise equality: the batch kernel runs the same dispatched
        // kernel per row, so any difference is a real bug.
        EXPECT_EQ(metric.Comparable(query, points[i]), many[i])
            << "kind=" << MetricKindToString(kind) << " dim=" << dim
            << " row=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, SelfBlockBitIdenticalToFullBlock) {
  Rng rng(1207);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t count : {2ul, 3ul, 17ul, 64ul, 137ul}) {
      for (const std::size_t dim : {1ul, 5ul, 8ul, 16ul, 17ul, 33ul}) {
        PointSet points(dim);
        points.Reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          points.Add(RandomPoint(rng, dim));
        }
        // Naive double sweep: every row against every row.
        std::vector<double> full(count * count);
        metric.ComparableBlock(points.data(), count, points.data(), count,
                               dim, full.data());
        // Triangle sweep; poison the buffer so we also verify the
        // diagonal and lower triangle are left untouched.
        std::vector<double> tri(count * count, -1.0);
        metric.ComparableBlockSelf(points.data(), count, dim, tri.data());
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t j = 0; j < count; ++j) {
            const double got = tri[i * count + j];
            if (j > i) {
              EXPECT_EQ(full[i * count + j], got)
                  << "kind=" << MetricKindToString(kind) << " count=" << count
                  << " dim=" << dim << " i=" << i << " j=" << j;
            } else {
              EXPECT_EQ(-1.0, got) << "wrote outside the strict upper "
                                      "triangle at i="
                                   << i << " j=" << j;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, Sq8SelfBlockBitIdenticalToFullBlock) {
  Rng rng(1209);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t count : {2ul, 17ul, 137ul}) {
      for (const std::size_t dim : {1ul, 8ul, 16ul, 33ul}) {
        // Two distinct code arrays, as in the join's quantized sweep
        // (prepared query codes vs stored mirror rows).
        std::vector<std::uint8_t> queries(count * dim);
        std::vector<std::uint8_t> codes(count * dim);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          queries[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
          codes[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
        }
        std::vector<std::uint32_t> full(count * count);
        metric.Sq8Block(queries.data(), count, codes.data(), count, dim,
                        full.data());
        constexpr std::uint32_t kPoison = 0xdeadbeef;
        std::vector<std::uint32_t> tri(count * count, kPoison);
        metric.Sq8BlockSelf(queries.data(), codes.data(), count, dim,
                            tri.data());
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t j = 0; j < count; ++j) {
            const std::uint32_t got = tri[i * count + j];
            if (j > i) {
              EXPECT_EQ(full[i * count + j], got)
                  << "kind=" << MetricKindToString(kind) << " count=" << count
                  << " dim=" << dim << " i=" << i << " j=" << j;
            } else {
              EXPECT_EQ(kPoison, got) << "wrote outside the strict upper "
                                         "triangle at i="
                                      << i << " j=" << j;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, Sq8ManyUnderMatchesManyPlusFilter) {
  Rng rng(1213);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t count : {0ul, 1ul, 5ul, 64ul, 257ul}) {
      for (const std::size_t dim : {1ul, 4ul, 8ul, 16ul, 33ul}) {
        std::vector<std::uint8_t> query(dim);
        std::vector<std::uint8_t> codes(count * dim);
        for (std::size_t i = 0; i < dim; ++i) {
          query[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
        }
        for (std::size_t i = 0; i < codes.size(); ++i) {
          codes[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
        }
        std::vector<std::uint32_t> reductions(count);
        metric.Sq8Many(query.data(), codes.data(), count, dim,
                       reductions.data());
        // Cutoffs spanning prune-everything, a mid quantile, and the
        // keep-everything saturation path (> INT32_MAX).
        std::vector<std::uint32_t> cutoffs = {0u, 0xffffffffu, 0x80000001u};
        if (count > 0) cutoffs.push_back(reductions[count / 2]);
        for (const std::uint32_t cutoff : cutoffs) {
          std::vector<std::uint32_t> expected;
          for (std::size_t i = 0; i < count; ++i) {
            if (reductions[i] <= cutoff) {
              expected.push_back(static_cast<std::uint32_t>(i));
            }
          }
          std::vector<std::uint32_t> got(count + 1, 0xdeadbeefu);
          const std::size_t n = metric.Sq8ManyUnder(
              query.data(), codes.data(), count, dim, cutoff, got.data());
          ASSERT_EQ(expected.size(), n)
              << "kind=" << MetricKindToString(kind) << " count=" << count
              << " dim=" << dim << " cutoff=" << cutoff;
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(expected[i], got[i])
                << "kind=" << MetricKindToString(kind) << " count=" << count
                << " dim=" << dim << " cutoff=" << cutoff << " slot=" << i;
          }
          EXPECT_EQ(0xdeadbeefu, got[n]) << "wrote past the survivor count";
        }
      }
    }
  }
}

/// `rects` in the dimension-major, lane-padded layout MinDistMany reads
/// (a DirBlock's). Padding lanes get an arbitrary finite value: the
/// kernel must ignore them.
struct RectRows {
  std::size_t stride = 0;
  std::vector<Scalar> lo;
  std::vector<Scalar> hi;
};

RectRows PackRects(const std::vector<Rect>& rects, std::size_t dim) {
  RectRows rows;
  rows.stride = (rects.size() + kRectBlockLanes - 1) / kRectBlockLanes *
                kRectBlockLanes;
  rows.lo.assign(dim * rows.stride, 7.0f);
  rows.hi.assign(dim * rows.stride, -7.0f);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      rows.lo[j * rows.stride + i] = rects[i].lo(j);
      rows.hi[j * rows.stride + i] = rects[i].hi(j);
    }
  }
  return rows;
}

/// A rectangle around a random point: per dimension either a proper
/// interval or, one time in four, a degenerate one (lo == hi); with
/// `point` every dimension is degenerate.
Rect RandomRect(Rng& rng, std::size_t dim, bool point) {
  std::vector<Scalar> lo(dim), hi(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    lo[j] = static_cast<Scalar>(rng.NextDouble() * 2.0 - 1.0);
    const bool flat = point || rng.NextBounded(4) == 0;
    hi[j] = flat ? lo[j] : lo[j] + static_cast<Scalar>(rng.NextDouble());
  }
  return Rect(std::move(lo), std::move(hi));
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SimdKernelTest, RectMinDistManyBitIdenticalToMinDistComparable) {
  Rng rng(1215);
  constexpr double kPoison = -12345.0;
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t dim :
         {1ul, 2ul, 3ul, 7ul, 8ul, 15ul, 16ul, 17ul, 33ul, 64ul}) {
      // Counts off the 4-lane grid (1 included), plus 16 and 21 for the
      // four-vector pass with and without a tail.
      for (const std::size_t count :
           {1ul, 2ul, 3ul, 5ul, 7ul, 13ul, 16ul, 21ul, 31ul}) {
        std::vector<Rect> rects;
        for (std::size_t i = 0; i < count; ++i) {
          rects.push_back(RandomRect(rng, dim, /*point=*/i % 5 == 4));
        }
        const RectRows rows = PackRects(rects, dim);
        // Queries outside every rect (scaled past the data), inside one
        // (its center), on its faces and corners (each coordinate copied
        // from lo or hi), and half on a face, half inside.
        std::vector<Point> queries;
        queries.push_back(RandomPoint(rng, dim, 3.0));
        queries.push_back(RandomPoint(rng, dim, 0.5));
        for (std::size_t r = 0; r < count; r += 3) {
          queries.push_back(rects[r].Center());
          Point face(dim), mixed(dim);
          for (std::size_t j = 0; j < dim; ++j) {
            face[j] = rng.NextBounded(2) == 0 ? rects[r].lo(j)
                                              : rects[r].hi(j);
            mixed[j] = j % 2 == 0 ? face[j] : queries.back()[j];
          }
          queries.push_back(face);
          queries.push_back(mixed);
        }
        for (std::size_t qi = 0; qi < queries.size(); ++qi) {
          const Point& q = queries[qi];
          std::vector<double> dispatched(count + 1, kPoison);
          std::vector<double> scalar(count + 1, kPoison);
          metric.MinDistMany(q, rows.lo.data(), rows.hi.data(), count,
                             rows.stride, dispatched.data());
          detail::MinDistManyScalar(kind, q, rows.lo.data(), rows.hi.data(),
                                    count, rows.stride, scalar.data());
          for (std::size_t i = 0; i < count; ++i) {
            const double want = MinDistComparable(rects[i], q, metric);
            EXPECT_EQ(Bits(want), Bits(dispatched[i]))
                << "dispatched kind=" << MetricKindToString(kind)
                << " dim=" << dim << " count=" << count << " query=" << qi
                << " rect=" << i;
            EXPECT_EQ(Bits(want), Bits(scalar[i]))
                << "scalar kind=" << MetricKindToString(kind)
                << " dim=" << dim << " count=" << count << " query=" << qi
                << " rect=" << i;
          }
          EXPECT_EQ(kPoison, dispatched[count]) << "wrote past count";
          EXPECT_EQ(kPoison, scalar[count]) << "wrote past count";
        }
      }
    }
  }
}

TEST(SimdKernelTest, RectMinDistManyZeroInsideAndOnFaces) {
  // A query inside or on the boundary of a rectangle is at MINDIST +0.0
  // under every metric, on both paths. The -0.0 lower face makes a gap
  // of -0.0 (-0.0 - +0.0); the max chain must not let it reach a result.
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t dim : {1ul, 7ul, 16ul}) {
      const std::vector<Rect> rects = {
          Rect(std::vector<Scalar>(dim, 0.0f), std::vector<Scalar>(dim, 1.0f)),
          Rect(std::vector<Scalar>(dim, 0.5f), std::vector<Scalar>(dim, 0.5f)),
          Rect(std::vector<Scalar>(dim, -0.0f),
               std::vector<Scalar>(dim, 0.5f))};
      const RectRows rows = PackRects(rects, dim);
      for (const Scalar c : {0.5f, 0.0f}) {
        const Point q(dim, c);
        std::vector<double> dispatched(rects.size()), scalar(rects.size());
        metric.MinDistMany(q, rows.lo.data(), rows.hi.data(), rects.size(),
                           rows.stride, dispatched.data());
        detail::MinDistManyScalar(kind, q, rows.lo.data(), rows.hi.data(),
                                  rects.size(), rows.stride, scalar.data());
        for (std::size_t i = 0; i < rects.size(); ++i) {
          if (!rects[i].Contains(q)) continue;
          EXPECT_EQ(Bits(0.0), Bits(dispatched[i]))
              << MetricKindToString(kind) << " dim=" << dim << " q=" << c
              << " rect=" << i;
          EXPECT_EQ(Bits(0.0), Bits(scalar[i]))
              << MetricKindToString(kind) << " dim=" << dim << " q=" << c
              << " rect=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, DispatchReportsConsistentState) {
  // Informational: the suite passes on both paths, but record which one
  // this host exercised.
  std::fprintf(stderr, "[ simd ] dispatched kernels: %s\n",
               detail::SimdEnabled() ? "AVX2+FMA" : "scalar-unrolled");
  SUCCEED();
}

}  // namespace
}  // namespace parsim
