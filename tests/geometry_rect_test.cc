#include "src/geometry/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/geometry/metric.h"
#include "src/util/random.h"

namespace parsim {
namespace {

Rect MakeRect(std::vector<Scalar> lo, std::vector<Scalar> hi) {
  return Rect(std::move(lo), std::move(hi));
}

TEST(RectTest, EmptyRect) {
  const Rect e = Rect::Empty(3);
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Volume(), 0.0);
  EXPECT_EQ(e.Margin(), 0.0);
}

TEST(RectTest, UnitCube) {
  const Rect u = Rect::UnitCube(4);
  EXPECT_FALSE(u.IsEmpty());
  EXPECT_DOUBLE_EQ(u.Volume(), 1.0);
  EXPECT_DOUBLE_EQ(u.Margin(), 4.0);
  EXPECT_TRUE(u.Contains(Point({0.5f, 0.5f, 0.5f, 0.5f})));
  EXPECT_TRUE(u.Contains(Point({0, 0, 0, 0})));
  EXPECT_TRUE(u.Contains(Point({1, 1, 1, 1})));
  EXPECT_FALSE(u.Contains(Point({1.1f, 0, 0, 0})));
}

TEST(RectTest, AroundPointIsDegenerate) {
  const Point p = {0.3f, 0.7f};
  const Rect r = Rect::AroundPoint(p);
  EXPECT_TRUE(r.Contains(p));
  EXPECT_EQ(r.Volume(), 0.0);
  EXPECT_EQ(r.lo(0), r.hi(0));
  EXPECT_FALSE(r.IsEmpty());
}

TEST(RectTest, ContainsRect) {
  const Rect outer = MakeRect({0, 0}, {1, 1});
  const Rect inner = MakeRect({0.2f, 0.2f}, {0.8f, 0.8f});
  EXPECT_TRUE(outer.ContainsRect(inner));
  EXPECT_FALSE(inner.ContainsRect(outer));
  EXPECT_TRUE(outer.ContainsRect(outer));
  EXPECT_TRUE(outer.ContainsRect(Rect::Empty(2)));
}

TEST(RectTest, Intersects) {
  const Rect a = MakeRect({0, 0}, {1, 1});
  const Rect b = MakeRect({0.5f, 0.5f}, {2, 2});
  const Rect c = MakeRect({1.5f, 1.5f}, {2, 2});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  // Touching edges count as intersecting (closed rectangles).
  const Rect d = MakeRect({1, 0}, {2, 1});
  EXPECT_TRUE(a.Intersects(d));
}

TEST(RectTest, ExtendToIncludePoint) {
  Rect r = Rect::Empty(2);
  r.ExtendToInclude(Point({0.5f, 0.5f}));
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE(r.Contains(Point({0.5f, 0.5f})));
  r.ExtendToInclude(Point({0.1f, 0.9f}));
  EXPECT_TRUE(r.Contains(Point({0.1f, 0.9f})));
  EXPECT_TRUE(r.Contains(Point({0.3f, 0.7f})));  // inside the hull
}

TEST(RectTest, UnionAndIntersection) {
  const Rect a = MakeRect({0, 0}, {1, 1});
  const Rect b = MakeRect({0.5f, 0.5f}, {2, 2});
  const Rect u = Rect::Union(a, b);
  EXPECT_EQ(u, MakeRect({0, 0}, {2, 2}));
  const Rect i = Rect::Intersection(a, b);
  EXPECT_EQ(i, MakeRect({0.5f, 0.5f}, {1, 1}));
  EXPECT_DOUBLE_EQ(a.OverlapVolume(b), 0.25);
}

TEST(RectTest, DisjointIntersectionIsEmpty) {
  const Rect a = MakeRect({0, 0}, {1, 1});
  const Rect c = MakeRect({2, 2}, {3, 3});
  EXPECT_TRUE(Rect::Intersection(a, c).IsEmpty());
  EXPECT_EQ(a.OverlapVolume(c), 0.0);
}

TEST(RectTest, Center) {
  const Rect r = MakeRect({0, 1}, {1, 3});
  const Point c = r.Center();
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
}

TEST(RectTest, MinDistInsideIsZero) {
  const Rect r = MakeRect({0, 0}, {1, 1});
  EXPECT_EQ(r.SquaredMinDist(Point({0.5f, 0.5f})), 0.0);
  EXPECT_EQ(r.SquaredMinDist(Point({0, 1})), 0.0);  // boundary
}

TEST(RectTest, MinDistOutside) {
  const Rect r = MakeRect({0, 0}, {1, 1});
  EXPECT_DOUBLE_EQ(r.SquaredMinDist(Point({2, 0.5f})), 1.0);
  EXPECT_DOUBLE_EQ(r.SquaredMinDist(Point({2, 2})), 2.0);
  EXPECT_DOUBLE_EQ(r.SquaredMinDist(Point({-3, 0.5f})), 9.0);
}

TEST(RectTest, MinMaxDistTwoDimensional) {
  // Unit square, query at the origin corner: for each dimension, the
  // nearer face is at 0, the farther at 1. minmaxdist = min(0+1, 1+0)=1.
  const Rect r = MakeRect({0, 0}, {1, 1});
  EXPECT_DOUBLE_EQ(r.SquaredMinMaxDist(Point({0, 0})), 1.0);
}

TEST(RectTest, IntersectsBall) {
  const Rect r = MakeRect({0, 0}, {1, 1});
  EXPECT_TRUE(r.IntersectsBall(Point({0.5f, 0.5f}), 0.0));  // inside
  EXPECT_TRUE(r.IntersectsBall(Point({2, 0.5f}), 1.0));     // touches
  EXPECT_FALSE(r.IntersectsBall(Point({2, 0.5f}), 0.9));
  EXPECT_TRUE(r.IntersectsBall(Point({2, 2}), std::sqrt(2.0) + 1e-9));
  EXPECT_FALSE(r.IntersectsBall(Point({2, 2}), std::sqrt(2.0) - 1e-9));
}

TEST(RectTest, ToStringRendersIntervals) {
  const Rect r = MakeRect({0, 0.5f}, {1, 2});
  EXPECT_EQ(r.ToString(), "[[0,1] x [0.5,2]]");
}

TEST(RectDeathTest, InvertedBoundsForbidden) {
  EXPECT_DEATH(Rect({1.0f}, {0.0f}), "PARSIM_CHECK");
}

// ---------------------------------------------------------------------------
// Property sweeps over dimensions: MINDIST / MINMAXDIST bounds against
// sampled points, on random rectangles.

class RectPropertyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  Rect RandomRect(Rng* rng, std::size_t dim) {
    std::vector<Scalar> lo(dim), hi(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      const double a = rng->NextDouble();
      const double b = rng->NextDouble();
      lo[i] = static_cast<Scalar>(std::min(a, b));
      hi[i] = static_cast<Scalar>(std::max(a, b));
    }
    return Rect(std::move(lo), std::move(hi));
  }

  Point RandomPointIn(const Rect& r, Rng* rng) {
    Point p(r.dim());
    for (std::size_t i = 0; i < r.dim(); ++i) {
      p[i] = static_cast<Scalar>(
          rng->NextUniform(static_cast<double>(r.lo(i)),
                           static_cast<double>(r.hi(i))));
    }
    return p;
  }

  Point RandomPoint(std::size_t dim, Rng* rng) {
    Point p(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      p[i] = static_cast<Scalar>(rng->NextUniform(-0.5, 1.5));
    }
    return p;
  }
};

TEST_P(RectPropertyTest, MinDistLowerBoundsContainedPoints) {
  const std::size_t dim = GetParam();
  Rng rng(1000 + dim);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect r = RandomRect(&rng, dim);
    const Point q = RandomPoint(dim, &rng);
    const double mindist = r.SquaredMinDist(q);
    for (int s = 0; s < 20; ++s) {
      const Point inside = RandomPointIn(r, &rng);
      EXPECT_LE(mindist, SquaredL2(q, inside) + 1e-9);
    }
  }
}

TEST_P(RectPropertyTest, MinMaxDistUpperBoundsNearestVertexFace) {
  // MINMAXDIST guarantees at least one point of the rectangle's boundary
  // within that distance; in particular it is >= MINDIST and it upper
  // bounds the distance to the nearest of the 2d face-center-adjacent
  // vertices used in its construction.
  const std::size_t dim = GetParam();
  Rng rng(2000 + dim);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect r = RandomRect(&rng, dim);
    const Point q = RandomPoint(dim, &rng);
    const double mindist = r.SquaredMinDist(q);
    const double minmaxdist = r.SquaredMinMaxDist(q);
    EXPECT_GE(minmaxdist, mindist - 1e-9);
    // And the farthest vertex is an upper bound on minmaxdist.
    double far = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double dlo = std::abs(static_cast<double>(q[i]) - r.lo(i));
      const double dhi = std::abs(static_cast<double>(q[i]) - r.hi(i));
      const double d = std::max(dlo, dhi);
      far += d * d;
    }
    EXPECT_LE(minmaxdist, far + 1e-9);
  }
}

TEST_P(RectPropertyTest, MinMaxDistGuaranteeAgainstStoredPoints) {
  // Roussopoulos et al.'s use: if a rectangle is the MBR of a point set,
  // at least one stored point lies within MINMAXDIST of the query.
  const std::size_t dim = GetParam();
  Rng rng(3000 + dim);
  for (int trial = 0; trial < 30; ++trial) {
    // Generate points, build their MBR.
    std::vector<Point> points;
    Rect mbr = Rect::Empty(dim);
    for (int s = 0; s < 15; ++s) {
      Point p(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        p[i] = static_cast<Scalar>(rng.NextDouble());
      }
      mbr.ExtendToInclude(p);
      points.push_back(std::move(p));
    }
    const Point q = RandomPoint(dim, &rng);
    const double bound = mbr.SquaredMinMaxDist(q);
    // The guarantee holds for MBRs: every face of the MBR touches a
    // stored point. Verify that some point is within the bound, with a
    // small epsilon: the guarantee needs a point on each face, which an
    // MBR provides per dimension (possibly different points).
    double best = std::numeric_limits<double>::infinity();
    for (const Point& p : points) best = std::min(best, SquaredL2(q, p));
    EXPECT_LE(best, bound + 1e-9);
  }
}

TEST_P(RectPropertyTest, UnionContainsBoth) {
  const std::size_t dim = GetParam();
  Rng rng(4000 + dim);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect a = RandomRect(&rng, dim);
    const Rect b = RandomRect(&rng, dim);
    const Rect u = Rect::Union(a, b);
    EXPECT_TRUE(u.ContainsRect(a));
    EXPECT_TRUE(u.ContainsRect(b));
    EXPECT_GE(u.Volume(), std::max(a.Volume(), b.Volume()) - 1e-12);
  }
}

TEST_P(RectPropertyTest, IntersectionContainedInBoth) {
  const std::size_t dim = GetParam();
  Rng rng(5000 + dim);
  for (int trial = 0; trial < 50; ++trial) {
    const Rect a = RandomRect(&rng, dim);
    const Rect b = RandomRect(&rng, dim);
    const Rect i = Rect::Intersection(a, b);
    if (i.IsEmpty()) {
      EXPECT_EQ(a.OverlapVolume(b), 0.0);
      continue;
    }
    EXPECT_TRUE(a.ContainsRect(i));
    EXPECT_TRUE(b.ContainsRect(i));
    EXPECT_DOUBLE_EQ(a.OverlapVolume(b), i.Volume());
  }
}

// ChooseSubtree scores candidates with UnionVolume / OverlapVolume in
// place of building Union / Intersection Rects; the trees it builds stay
// bit-identical only if every double does. Degenerate (point) rects are
// what leaf entries are, so they are mixed in.
TEST_P(RectPropertyTest, VolumeHelpersMatchBuiltRectsBitwise) {
  const std::size_t dim = GetParam();
  Rng rng(5500 + dim);
  for (int trial = 0; trial < 100; ++trial) {
    const Rect a = RandomRect(&rng, dim);
    const Rect b = trial % 3 == 0 ? Rect::AroundPoint(RandomPoint(dim, &rng))
                                  : RandomRect(&rng, dim);
    EXPECT_EQ(Rect::UnionVolume(a, b), Rect::Union(a, b).Volume());
    EXPECT_EQ(Rect::UnionVolume(b, a), Rect::Union(b, a).Volume());
    EXPECT_EQ(a.OverlapVolume(b), Rect::Intersection(a, b).Volume());
    EXPECT_EQ(b.OverlapVolume(a), Rect::Intersection(b, a).Volume());
  }
}

TEST_P(RectPropertyTest, IntersectsBallAgreesWithMinDist) {
  const std::size_t dim = GetParam();
  Rng rng(6000 + dim);
  for (int trial = 0; trial < 100; ++trial) {
    const Rect r = RandomRect(&rng, dim);
    const Point q = RandomPoint(dim, &rng);
    const double radius = rng.NextDouble();
    EXPECT_EQ(r.IntersectsBall(q, radius),
              r.SquaredMinDist(q) <= radius * radius);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, RectPropertyTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parsim
