// The one Hjaltason-Samet best-first frontier [HS 95], shared by the
// single-query HsKnn (src/index/knn.cc) and the coalesced round scheduler
// (src/parallel/round_scheduler.h). Both drive the same three steps:
//
//   NextNode       — pop points into the result until the search ends or
//                    needs a node expanded (the caller fetches it);
//   PushPoint      — the leaf sweep's emit, gated by Cutoff();
//   ExpandInterior — push an interior node's surviving children, scored
//                    by one MINDIST kernel call over its DirBlock.
//
// The pop sequence depends only on the calls made on this object, so a
// search paused between NextNode and the node's expansion (the
// scheduler's rounds) replays the uninterrupted one bit for bit: same
// results, same page fetches, same counters.

#ifndef PARSIM_SRC_INDEX_HS_FRONTIER_H_
#define PARSIM_SRC_INDEX_HS_FRONTIER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/index/leaf_block.h"
#include "src/index/node.h"
#include "src/io/disk_model.h"
#include "src/util/phase_timer.h"

namespace parsim {

class HsFrontier {
 public:
  /// Starts a fresh search for `k` results from `root` (kInvalidNodeId =
  /// empty tree: the search ends at once). `node_factor` > 1 enables the
  /// approximate tier's node skips (ApproxContext::node_factor). Storage
  /// is kept, so a reused frontier allocates nothing in steady state.
  void Reset(std::size_t k, NodeId root, double node_factor) {
    k_ = k;
    node_factor_ = node_factor;
    heap_.clear();
    bound_.clear();
    bound_.reserve(k);
    pushes_ = pops_ = cutoff_skipped_ = approx_skipped_ = 0;
    if (root != kInvalidNodeId) Push(Item{0.0, false, root});
  }

  /// The running comparable-space cutoff: the k-th best point key pushed
  /// so far, +inf while fewer than k points were pushed. A leaf candidate
  /// strictly above it would be dropped by PushPoint anyway, so sweeps
  /// may prune on it without changing the pop sequence.
  double Cutoff() const {
    return bound_.size() < k_ ? std::numeric_limits<double>::infinity()
                              : bound_.front();
  }

  /// Queues a data point keyed by its comparable distance. A point whose
  /// key exceeds the k-th best pushed key can never pop — at least k
  /// point items with smaller keys are queued ahead of it, and the k-th
  /// of those ends the search — so it is not queued at all. That leaves
  /// the pop sequence bit-identical while keeping the frontier orders of
  /// magnitude smaller (a coalesced round interleaves many frontiers, so
  /// their total footprint decides cache residency).
  void PushPoint(double key, std::uint32_t id) {
    if (bound_.size() < k_) {
      bound_.push_back(key);
      std::push_heap(bound_.begin(), bound_.end());
    } else if (key > bound_.front()) {
      return;
    } else if (key < bound_.front()) {
      std::pop_heap(bound_.begin(), bound_.end());
      bound_.back() = key;
      std::push_heap(bound_.begin(), bound_.end());
    }
    Push(Item{key, true, id});
  }

  /// Pops points into `*result` until it holds k neighbors or the
  /// frontier drains (returns kInvalidNodeId: the search is done), or a
  /// node item pops (returns its id: fetch and expand it, then call
  /// again). In approximate mode a popped node whose key exceeds the
  /// RELAXED cutoff bound/node_factor is dropped instead of returned: the
  /// bound tightens between push and pop, so this pop-time test saves
  /// reads the push-time one could not. Dropping a node can only lose
  /// points, never tighten the bound past the exact search's, so the
  /// (1+eps) contract of ApproxContext holds; and a skip needs a full
  /// bound, whose k points can only pop into the result, so the result
  /// still reaches k. Never fires at node_factor 1: a node whose key
  /// strictly exceeds the bound cannot pop before the k-th point.
  NodeId NextNode(const Metric& metric, KnnResult* result) {
    ScopedPhase phase(Phase::kFrontier);
    while (result->size() < k_ && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), GreaterKey{});
      const Item item = heap_.back();
      heap_.pop_back();
      ++pops_;
      if (item.is_point) {
        result->push_back(Neighbor{item.ref, metric.FromComparable(item.key)});
        continue;
      }
      if (node_factor_ > 1.0 && bound_.size() >= k_ &&
          item.key > bound_.front() / node_factor_) {
        ++approx_skipped_;
        continue;
      }
      return item.ref;
    }
    return kInvalidNodeId;
  }

  /// Queues the children of the interior node whose block is `block`
  /// (TreeBase::DirBlockOf). One Metric::MinDistMany call scores every
  /// child; each key is bit-identical to MinDistComparable on the
  /// child's MBR. With the bound full, a child whose MINDIST strictly
  /// exceeds the cutoff can never pop before the search ends, so it is
  /// dropped. Ties MUST still be pushed: a node keyed exactly at the
  /// cutoff could pop before an equal-keyed point under the heap's
  /// internal order. The exact cut runs first so cutoff_skipped_nodes
  /// keeps its exact-path meaning (and its count at eps = 0); children
  /// inside the exact cut but outside the relaxed one are the
  /// approximation's own skips.
  void ExpandInterior(const DirBlock& block, PointView query,
                      const Metric& metric) {
    ScopedPhase phase(Phase::kDescent);
    const bool approx = node_factor_ > 1.0;
    const double cut = Cutoff();
    const double rcut = approx ? cut / node_factor_ : cut;
    keys_.resize(block.count);
    metric.MinDistMany(query, block.lo.data(), block.hi.data(), block.count,
                       block.stride, keys_.data());
    for (std::size_t i = 0; i < block.count; ++i) {
      const double key = keys_[i];
      if (key > cut) {
        ++cutoff_skipped_;
        continue;
      }
      if (approx && key > rcut) {
        ++approx_skipped_;
        continue;
      }
      Push(Item{key, false, block.children[i]});
    }
  }

  /// Adds this search's frontier traffic into `stats` (the query's host
  /// slot).
  void Book(DiskStats* stats) const {
    stats->frontier_pushes += pushes_;
    stats->frontier_pops += pops_;
    stats->cutoff_skipped_nodes += cutoff_skipped_;
    stats->approx_skipped_nodes += approx_skipped_;
  }

 private:
  /// A node (is_point == false) keyed by MINDIST or a data point keyed by
  /// its distance, both in the Comparable scale. A node's MINDIST is
  /// computed once, at push time, and never recomputed on pop.
  struct Item {
    double key;
    bool is_point;
    std::uint32_t ref;  // NodeId or PointId
  };
  struct GreaterKey {
    bool operator()(const Item& a, const Item& b) const {
      return a.key > b.key;
    }
  };

  void Push(const Item& item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), GreaterKey{});
    ++pushes_;
  }

  std::size_t k_ = 0;
  double node_factor_ = 1.0;
  /// Min-heap on key via push_heap/pop_heap — the algorithm
  /// std::priority_queue runs internally, in reusable storage.
  std::vector<Item> heap_;
  /// Max-heap of the k smallest point keys pushed so far.
  std::vector<double> bound_;
  /// ExpandInterior's per-child MINDIST scratch.
  std::vector<double> keys_;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t cutoff_skipped_ = 0;
  std::uint64_t approx_skipped_ = 0;
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_HS_FRONTIER_H_
