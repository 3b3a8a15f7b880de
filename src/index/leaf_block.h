// Structure-of-arrays mirrors of tree pages: LeafBlock for leaves,
// DirBlock for interior (directory) nodes.
//
// A leaf Node stores its points AoS — each NodeEntry carries a degenerate
// Rect (lo == hi == the point) plus the point id — which keeps the
// split/MBR machinery uniform across levels but scatters the coordinates
// a page scan needs across Rect allocations. A LeafBlock peels them out
// into two dense arrays (coords: count x dim row-major scalars; ids:
// count PointIds), so a page scan is one contiguous sweep the one-to-many
// and many-to-many distance kernels (Metric::ComparableMany /
// ComparableBlock) stream over without a per-query gather.
//
// A DirBlock does the same for an interior node's child MBRs, laid out
// dimension-major (all lower bounds of dimension 0, then dimension 1, ...
// and likewise for the upper bounds) so the one-to-many MINDIST kernel
// (Metric::MinDistMany) scores every child of the node in one pass with
// the rectangles, not the dimensions, in the vector lanes.
//
// Blocks are derived state: LeafBlockCache builds them lazily on first
// access and invalidates them wholesale whenever the tree's structure
// changes (insert, delete, bulk load, deserialize). The tree's
// concurrency contract — queries never race with mutations — makes a
// single epoch counter sufficient: mutations bump the epoch between
// query waves, and concurrent readers synchronize on a per-slot atomic.

#ifndef PARSIM_SRC_INDEX_LEAF_BLOCK_H_
#define PARSIM_SRC_INDEX_LEAF_BLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/geometry/sq8.h"
#include "src/index/node.h"

namespace parsim {

/// The SoA layout of one leaf page: coordinates and ids of its points in
/// entry order, contiguous.
struct LeafBlock {
  std::size_t count = 0;
  std::size_t dim = 0;
  /// count * dim scalars, row-major (point i at coords[i * dim]).
  std::vector<Scalar> coords;
  /// count point ids, parallel to coords.
  std::vector<PointId> ids;

  /// Opt-in SQ8 mirror of `coords` (src/geometry/sq8.h): per-block
  /// lattice plus uint8 codes, built together with the block when the
  /// owning cache has quantization enabled, so mirror and floats are
  /// always of the same structural epoch. Empty when has_sq8 is false.
  Sq8Mirror sq8;
  bool has_sq8 = false;

  PointView row(std::size_t i) const {
    return {coords.data() + i * dim, dim};
  }

  /// Rebuilds this block from `leaf` (entries in order); with `quantize`
  /// also (re)builds the SQ8 mirror from the gathered coordinates.
  void BuildFrom(const Node& leaf, std::size_t dimension,
                 bool quantize = false);
};

/// The SoA layout of one interior node: its children's MBRs
/// dimension-major, padded for the MINDIST kernel, plus the child ids in
/// entry order.
struct DirBlock {
  std::size_t count = 0;
  /// Lanes per dimension row: count rounded up to a multiple of
  /// kRectBlockLanes (src/geometry/metric.h). Padding lanes hold 0.
  std::size_t stride = 0;
  /// dim * stride scalars each: child i's bounds in dimension j are
  /// [lo[j * stride + i], hi[j * stride + i]].
  std::vector<Scalar> lo;
  std::vector<Scalar> hi;
  /// count child node ids, parallel to the lanes.
  std::vector<NodeId> children;

  /// Rebuilds this block from interior node `node` (entries in order).
  void BuildFrom(const Node& node, std::size_t dim);
};

/// Per-tree cache of leaf and interior-node blocks, safe for concurrent
/// read-only queries.
///
/// Thread-safety contract (the tree family's): any number of concurrent
/// Get() calls may race with each other — the first one through a slot's
/// build mutex materializes the block, the rest wait or take the fast
/// atomic-epoch path — but Invalidate() must not race with Get(); it is
/// called from the tree's mutating entry points, which are documented as
/// exclusive with queries (like SetFaultPlan / Insert / Remove).
class LeafBlockCache {
 public:
  /// Marks every cached block stale and makes room for `num_nodes`
  /// slots. Call after any structural change, from the mutation side.
  void Invalidate(std::size_t num_nodes);

  /// Whether rebuilt blocks carry SQ8 mirrors. Flip from the mutation
  /// side only (TreeBase::set_quantized_leaf_blocks invalidates
  /// alongside, so no block built under the old setting survives).
  void set_quantize(bool on) { quantize_ = on; }
  bool quantize() const { return quantize_; }

  /// The current block of `leaf`, building it if stale or absent.
  const LeafBlock& Get(const Node& leaf, std::size_t dim) const;

  /// The current block of interior node `node`, building it if stale or
  /// absent. Shares the node's slot (epoch, atomic, mutex) with Get: a
  /// node id is one node, leaf or interior, so one invalidation covers
  /// both kinds.
  const DirBlock& GetDir(const Node& node, std::size_t dim) const;

 private:
  struct Slot {
    /// Epoch the block was built at; acquire/release pairs with the
    /// build below so a reader that sees the current epoch also sees
    /// the fully built block.
    std::atomic<std::uint64_t> built_epoch{0};
    std::mutex build_mutex;
    /// The node's block: `block` for a leaf, `dir` for an interior node
    /// (the other stays empty).
    LeafBlock block;
    DirBlock dir;
  };

  /// Runs `build` on `node`'s slot unless it is current (double-checked
  /// under the slot mutex) and returns the slot.
  template <typename Build>
  Slot& Materialize(const Node& node, Build&& build) const;

  // unique_ptr slots: Invalidate() may grow the vector, and Slot holds
  // a mutex/atomic (neither movable).
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Bumped by Invalidate; slots at an older epoch rebuild on access.
  /// Starts above the slots' initial built_epoch of 0 so fresh slots
  /// count as stale.
  std::uint64_t epoch_ = 1;
  /// Mutation-side settings read by Get's (re)builds.
  bool quantize_ = false;
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_BLOCK_H_
