// Hyper-rectangles (minimum bounding rectangles) and the MINDIST /
// MINMAXDIST machinery of R-tree-family nearest-neighbor search
// (Roussopoulos et al., SIGMOD'95), used by both k-NN algorithms and by
// the bucket/quadrant model of the declusterer.

#ifndef PARSIM_SRC_GEOMETRY_RECT_H_
#define PARSIM_SRC_GEOMETRY_RECT_H_

#include <string>
#include <vector>

#include "src/geometry/point.h"

namespace parsim {

/// An axis-aligned d-dimensional rectangle [lo_0,hi_0] x ... x [lo_{d-1},
/// hi_{d-1}]. Degenerate rectangles (lo == hi in some dimension) are legal;
/// lo <= hi is enforced per dimension on construction and mutation.
class Rect {
 public:
  Rect() = default;

  /// The empty rectangle of the given dimension: lo=+inf, hi=-inf per
  /// dimension, the identity of ExtendToInclude.
  static Rect Empty(std::size_t dim);

  /// The unit data space [0,1]^d the paper assumes (Section 2).
  static Rect UnitCube(std::size_t dim);

  /// A degenerate rectangle around one point.
  static Rect AroundPoint(PointView p);

  Rect(std::vector<Scalar> lo, std::vector<Scalar> hi);

  std::size_t dim() const { return lo_.size(); }

  Scalar lo(std::size_t i) const { return lo_[i]; }
  Scalar hi(std::size_t i) const { return hi_[i]; }
  PointView lo() const { return {lo_.data(), lo_.size()}; }
  PointView hi() const { return {hi_.data(), hi_.size()}; }

  /// True iff no point is contained (any lo_i > hi_i).
  bool IsEmpty() const;

  bool Contains(PointView p) const;
  bool ContainsRect(const Rect& other) const;
  bool Intersects(const Rect& other) const;

  /// Grows this rectangle minimally to include `p` / `other`.
  void ExtendToInclude(PointView p);
  void ExtendToInclude(const Rect& other);

  /// The MBR of the union of two rectangles.
  static Rect Union(const Rect& a, const Rect& b);

  /// Union(a, b).Volume() without building the union: the same doubles
  /// multiplied in the same order, so the result is bit-identical.
  static double UnionVolume(const Rect& a, const Rect& b);

  /// The intersection (possibly empty).
  static Rect Intersection(const Rect& a, const Rect& b);

  /// Product of side lengths. 0 for empty.
  double Volume() const;

  /// Sum of side lengths (the R*-tree margin criterion).
  double Margin() const;

  /// Volume of the intersection with `other` (the R*-tree overlap
  /// criterion); 0 when disjoint. Bit-identical to
  /// Intersection(*this, other).Volume(), without building the Rect.
  double OverlapVolume(const Rect& other) const;

  /// Center point (midpoint per dimension).
  Point Center() const;

  /// MINDIST: distance from `p` to the closest point of the rectangle;
  /// 0 when p is inside. Lower bound for the distance from p to any
  /// object contained in the rectangle. Returned in the *squared* L2
  /// scale to match Metric::Comparable for L2.
  double SquaredMinDist(PointView p) const;

  /// Rect-to-rect MINDIST: squared L2 distance between the closest pair
  /// of points of the two rectangles; 0 when they intersect. Lower bound
  /// for the distance between any object of this rectangle and any
  /// object of `other` — the block-pair pruning predicate of the
  /// all-pairs similarity join. Squared scale, matching the point
  /// overload and Metric::Comparable for L2.
  double SquaredMinDist(const Rect& other) const;

  /// MINMAXDIST: the minimum over dimensions of the maximal distance to
  /// the nearer face; an upper bound for the distance from `p` to the
  /// nearest object inside a *non-empty* rectangle (Roussopoulos et al.).
  /// Returned in the squared L2 scale.
  double SquaredMinMaxDist(PointView p) const;

  /// True iff the rectangle intersects the closed L2 ball
  /// B(center, radius). This is the "page intersects the NN-sphere"
  /// predicate of Section 3.1.
  bool IntersectsBall(PointView center, double radius) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  std::string ToString() const;

 private:
  std::vector<Scalar> lo_;
  std::vector<Scalar> hi_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_GEOMETRY_RECT_H_
