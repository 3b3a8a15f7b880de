// SQ8 scalar quantization of leaf blocks, with provable comparable-space
// lower bounds.
//
// A leaf block's float rows are mirrored as uint8 codes on a per-block
// lattice: per-dimension offset lo[j] plus ONE uniform step `scale`
// shared by every dimension, chosen as max_j(hi_j - lo_j) / 255 so all
// 255 levels span the widest extent. The uniform step is what makes the
// pure-integer kernel reductions (sum / sum-of-squares / max of code
// differences, src/geometry/metric.h Sq8Many/Sq8Block) map to metric
// bounds: for any dimension,
//
//     |q_j - x_j|  >=  scale * |cq_j - cx_j|  -  t_j,
//
// where t_j = |q_j - Recon(cq_j)| + err[j] combines the query's own
// rounding with the block's recorded reconstruction error. Folding the
// t_j into one per-metric slack (L1: sum, L2: sqrt of sum of squares via
// the reverse triangle inequality, Lmax: max) gives lower bounds on the
// comparable distance that cost one integer reduction per candidate:
//
//     L1:    lb = scale * SAD          - slack
//     L2:    lb = (scale * sqrt(SSD)   - slack)^2   (comparable = squared)
//     Lmax:  lb = scale * MAD          - slack
//
// Soundness under floating point: the bound must never exceed the value
// the exact float kernel would compute, or pruning would change results.
// Three guards make the computed bound conservative: err[j] is the
// measured max |x - Recon(code)| inflated by a relative 1e-12 PLUS an
// absolute (|lo[j]| + 255 * scale) * 1e-15 term (about 9 ulps at the
// reconstruction's magnitude — it covers the rounding of the Recon
// expression itself, which a purely relative guard misses when the data
// sits exactly on the lattice); the combined slack is inflated by
// another relative 1e-12; and the final bound is deflated by 1e-12.
// Each guard is orders of magnitude larger than the handful of ulp-level
// roundings it covers, and together they cost a vanishing amount of
// prune power (the guard scale is 1e-12 of the distance; quantization
// already concedes err ~ scale/2 per dimension).
//
// Pruning with these bounds is therefore lossless by construction: a
// candidate is dropped only when lb > threshold, which implies its exact
// comparable distance also exceeds the threshold, so the exact-path
// search would have rejected it anyway.

#ifndef PARSIM_SRC_GEOMETRY_SQ8_H_
#define PARSIM_SRC_GEOMETRY_SQ8_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"

namespace parsim {

/// The quantized mirror of one leaf block: count x dim uint8 codes plus
/// the lattice (per-dim offset, one uniform step) and the per-dim
/// reconstruction error bound the query-side slack is built from.
struct Sq8Mirror {
  std::size_t count = 0;
  std::size_t dim = 0;
  /// Uniform quantization step (max per-dim extent / 255). Zero iff the
  /// block is empty or every dimension is constant; codes are then all
  /// zero and every lower bound collapses to 0 (no pruning, still exact).
  double scale = 0.0;
  /// count * dim codes, row-major (same layout as LeafBlock::coords).
  std::vector<std::uint8_t> codes;
  /// Per-dim offset: Recon(c, j) = lo[j] + c * scale.
  std::vector<double> lo;
  /// Per-dim bound on |x_j - Recon(code_j)| over the block's points,
  /// guard-inflated so it also covers the fp rounding of Recon itself.
  std::vector<double> err;

  const std::uint8_t* row(std::size_t i) const { return codes.data() + i * dim; }

  /// The lattice point of code `c` in dimension `j`. Every consumer of
  /// the mirror (encode, error measurement, query prep, range prefilter)
  /// evaluates this identical double expression, so "reconstruction"
  /// means one well-defined value.
  double Recon(std::uint8_t c, std::size_t j) const {
    return lo[j] + static_cast<double>(c) * scale;
  }

  /// Learns the lattice from `n` row-major float points and encodes them.
  void BuildFrom(const Scalar* points, std::size_t n, std::size_t dimension);
};

/// A prepared query's side of the bound: combine with one integer
/// reduction per candidate (via LowerBound) during a sweep.
///
/// When the query lies outside the block's lattice range in some
/// dimension (by more than 2 * err[j]), query preparation clamps that
/// coordinate to the lattice edge before encoding and folds the exact
/// identity  q_j - x_j = gap_j + (q'_j - x_j)  (q' the clamped query,
/// gap_j the signed overshoot) into a candidate-INDEPENDENT term `base`:
/// L1 gains gap - 2 err per clamped dim, L2 gains gap^2 - 2 gap err
/// (both non-negative under the 2 err clamping rule), Lmax keeps
/// max(gap - err). The kernel-side slack is then built from the clamped
/// query, whose t_j collapse to err[j] — so a member far from a block in
/// a few dimensions no longer loses all prune power to a bloated slack;
/// the overshoot re-enters the bound additively (L1/L2) or as a floor
/// (Lmax) instead of subtractively.
struct Sq8Bound {
  double scale = 0.0;
  /// Per-metric fold of the t_j terms of the lattice-clamped query (see
  /// file comment), guard-inflated.
  double slack = 0.0;
  /// Candidate-independent out-of-range contribution (guard-deflated);
  /// 0 when the query is inside the lattice range everywhere.
  double base = 0.0;
  MetricKind kind = MetricKind::kL2;

  /// Comparable-space lower bound on the exact distance to a candidate
  /// whose integer reduction (SAD / SSD / MAD of codes) is `reduction`.
  /// Never exceeds the exact kernel's computed comparable distance.
  double LowerBound(std::uint32_t reduction) const {
    constexpr double kGuard = 1.0 - 1e-12;
    if (kind == MetricKind::kL2) {
      const double v =
          scale * std::sqrt(static_cast<double>(reduction)) - slack;
      return base + (v > 0.0 ? v * v * kGuard : 0.0);
    }
    const double v = scale * static_cast<double>(reduction) - slack;
    const double kernel = v > 0.0 ? v * kGuard : 0.0;
    return kind == MetricKind::kLmax ? std::max(base, kernel) : base + kernel;
  }

  /// The same pruning test inverted into reduction space, for the hot
  /// per-candidate loop: whenever double(r) > PruneCutoff(threshold),
  /// LowerBound(r) > threshold is guaranteed (so the exact comparable
  /// distance also exceeds it), and the candidate can be dropped with a
  /// single compare instead of the sqrt-per-candidate of re-deriving the
  /// bound. The inversion is padded by a relative 1e-9 — far above the
  /// ~1e-16-per-op rounding it covers and above LowerBound's own 1e-12
  /// guards — so borderline candidates fall through to the exact
  /// re-rank, never the other way; pruning stays lossless. Returns
  /// +infinity (nothing prunes) for a degenerate lattice (scale <= 0),
  /// and a NEGATIVE value (everything prunes: reductions are
  /// non-negative) when `base` alone exceeds the threshold — callers
  /// must check for that before converting to an integer cutoff.
  double PruneCutoff(double threshold) const {
    constexpr double kMargin = 1.0 + 1e-9;
    if (scale <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    double effective = threshold;
    if (kind == MetricKind::kLmax) {
      if (base > threshold) return -1.0;
    } else {
      effective = threshold - base;
      if (effective < 0.0) return -1.0;
    }
    if (kind == MetricKind::kL2) {
      const double root = (std::sqrt(effective * kMargin) + slack) / scale;
      return root * root * kMargin;
    }
    return ((effective * kMargin + slack) / scale) * kMargin;
  }
};

/// Encodes `query` on the mirror's lattice (codes_out: mirror.dim bytes,
/// clamped to [0, 255]) and folds the per-dim slack for `kind`.
Sq8Bound PrepareSq8Query(const Sq8Mirror& mirror, PointView query,
                         MetricKind kind, std::uint8_t* codes_out);

/// Batched PrepareSq8Query: `members` queries (row-major, members x
/// mirror.dim scalars) against one mirror, filling codes_out (members x
/// mirror.dim bytes) and bounds_out (members entries). Exactly
/// equivalent to calling PrepareSq8Query per row — same codes, same
/// slacks bit for bit — but hoists the dispatch and lattice constants
/// out of the member loop, which matters because batched sweeps prepare
/// every member against every block they share.
void PrepareSq8QueryMany(const Sq8Mirror& mirror, const Scalar* queries,
                         std::size_t members, MetricKind kind,
                         std::uint8_t* codes_out, Sq8Bound* bounds_out);

/// Owning-storage convenience wrapper around PrepareSq8Query.
struct Sq8Query {
  std::vector<std::uint8_t> codes;
  Sq8Bound bound;

  void Prepare(const Sq8Mirror& mirror, PointView query, MetricKind kind) {
    codes.resize(mirror.dim);
    bound = PrepareSq8Query(mirror, query, kind, codes.data());
  }
};

}  // namespace parsim

#endif  // PARSIM_SRC_GEOMETRY_SQ8_H_
