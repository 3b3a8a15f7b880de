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
// Blocks are derived state, built lazily on first access and kept per
// node id in a LeafBlockCache slot; the cache also keeps one opaque memo
// word per node id (the shared-tree engine caches a leaf's disk route
// there). Each slot carries its own validity flag, and the flag and the
// memo word are cleared together, so invalidation is as wide as the
// change: a tree write marks stale exactly the nodes on the root-to-target
// paths it walked (every node whose entries or entry rects it can have
// changed), nodes it creates start stale because node ids are never
// reused, and only a whole-tree rebuild (bulk load, deserialize, the
// quantize toggle) resets every slot. The tree's concurrency contract —
// queries never race with mutations — lets invalidation write the flags
// plainly between query waves; concurrent readers synchronize on the
// per-slot flag and build mutex.

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
#include "src/util/check.h"

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
  /// owning cache has quantization enabled, so mirror and floats always
  /// describe the same entries. Empty when has_sq8 is false.
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

/// Per-tree cache of leaf and interior-node blocks, plus one memo word
/// per node, safe for concurrent read-only queries.
///
/// Thread-safety contract (the tree family's): any number of concurrent
/// Get() calls may race with each other — the first one through a slot's
/// build mutex materializes the block, the rest wait or take the fast
/// atomic-flag path — but the Invalidate* and Grow calls must not race
/// with Get(); they are called from the tree's mutating entry points,
/// which are documented as exclusive with queries (like SetFaultPlan /
/// Insert / Remove).
class LeafBlockCache {
 public:
  /// Marks every slot stale (block and memo word) and makes room for
  /// `num_nodes` slots. For whole-tree rebuilds only; a write that
  /// touches a few paths calls InvalidateNodes instead.
  void InvalidateAll(std::size_t num_nodes);

  /// Marks the slots of `ids` stale (block and memo word). Ids without a
  /// slot yet are skipped: Grow creates their slots stale.
  void InvalidateNodes(const std::vector<NodeId>& ids);

  /// Makes room for `num_nodes` slots; new slots start stale.
  void Grow(std::size_t num_nodes);

  /// Whether rebuilt blocks carry SQ8 mirrors. Flip from the mutation
  /// side only (TreeBase::set_quantized_leaf_blocks invalidates
  /// alongside, so no block built under the old setting survives).
  void set_quantize(bool on) { quantize_ = on; }
  bool quantize() const { return quantize_; }

  /// The current block of `leaf`, building it if stale or absent.
  const LeafBlock& Get(const Node& leaf, std::size_t dim) const;

  /// The current block of interior node `node`, building it if stale or
  /// absent. Shares the node's slot (flag, mutex) with Get: a node id is
  /// one node, leaf or interior, so one invalidation covers both kinds.
  const DirBlock& GetDir(const Node& node, std::size_t dim) const;

  /// The memo word of node `id`. Zeroed whenever the node's slot is
  /// invalidated; readers fill it with relaxed atomics (see
  /// TreeBase::NodeMemo).
  std::atomic_ref<std::uint64_t> Memo(NodeId id) const {
    PARSIM_CHECK(id < memo_.size());
    return std::atomic_ref<std::uint64_t>(memo_[id]);
  }

 private:
  struct Slot {
    /// Whether `block`/`dir` is current; acquire/release pairs with the
    /// build below so a reader that sees true also sees the fully built
    /// block.
    std::atomic<bool> built{false};
    std::mutex build_mutex;
    /// The node's block: `block` for a leaf, `dir` for an interior node
    /// (the other stays empty).
    LeafBlock block;
    DirBlock dir;
  };

  /// Clears `id`'s built flag and memo word (mutation side only).
  void MarkStale(NodeId id) {
    slots_[id]->built.store(false, std::memory_order_relaxed);
    memo_[id] = 0;
  }

  /// Runs `build` on `node`'s slot unless it is current (double-checked
  /// under the slot mutex) and returns the slot.
  template <typename Build>
  Slot& Materialize(const Node& node, Build&& build) const;

  // unique_ptr slots: Grow() may grow the vector, and Slot holds a
  // mutex/atomics (neither movable).
  std::vector<std::unique_ptr<Slot>> slots_;
  /// One memo word per node id (0 = not cached), read through
  /// std::atomic_ref. Kept contiguous rather than in Slot: the engine
  /// reads it on every leaf access of a coalesced batch's serial fetch
  /// phase, where a pointer chase into the scattered slots costs a cache
  /// miss per page (with the word inside Slot, knn-hotspot ran ~8% fewer
  /// ops/s on a 4-thread Xeon).
  mutable std::vector<std::uint64_t> memo_;
  /// Mutation-side settings read by Get's (re)builds.
  bool quantize_ = false;
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_BLOCK_H_
