#include "src/index/leaf_block.h"

#include "src/util/check.h"

namespace parsim {

void LeafBlock::BuildFrom(const Node& leaf, std::size_t dimension,
                          bool quantize) {
  PARSIM_DCHECK(leaf.IsLeaf());
  count = leaf.entries.size();
  dim = dimension;
  coords.resize(count * dim);
  ids.resize(count);
  leaf.GatherLeafCoords(dim, coords.data());
  for (std::size_t i = 0; i < count; ++i) ids[i] = leaf.entries[i].child;
  has_sq8 = quantize;
  if (quantize) {
    sq8.BuildFrom(coords.data(), count, dim);
  } else {
    sq8 = Sq8Mirror{};
  }
}

void DirBlock::BuildFrom(const Node& node, std::size_t dim) {
  PARSIM_DCHECK(!node.IsLeaf());
  count = node.entries.size();
  stride = (count + kRectBlockLanes - 1) / kRectBlockLanes * kRectBlockLanes;
  lo.assign(dim * stride, Scalar{0});
  hi.assign(dim * stride, Scalar{0});
  children.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeEntry& e = node.entries[i];
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j * stride + i] = e.rect.lo(j);
      hi[j * stride + i] = e.rect.hi(j);
    }
    children[i] = e.child;
  }
}

void LeafBlockCache::InvalidateAll(std::size_t num_nodes) {
  for (NodeId id = 0; id < slots_.size(); ++id) MarkStale(id);
  Grow(num_nodes);
}

void LeafBlockCache::InvalidateNodes(const std::vector<NodeId>& ids) {
  for (const NodeId id : ids) {
    if (id < slots_.size()) MarkStale(id);
  }
}

void LeafBlockCache::Grow(std::size_t num_nodes) {
  // push_back's geometric growth keeps a write's share amortized O(1).
  while (slots_.size() < num_nodes) {
    slots_.push_back(std::make_unique<Slot>());
  }
  if (memo_.size() < num_nodes) memo_.resize(num_nodes, 0);
}

template <typename Build>
LeafBlockCache::Slot& LeafBlockCache::Materialize(const Node& node,
                                                  Build&& build) const {
  PARSIM_CHECK(node.id < slots_.size());
  Slot& slot = *slots_[node.id];
  if (slot.built.load(std::memory_order_acquire)) return slot;
  std::lock_guard<std::mutex> lock(slot.build_mutex);
  if (!slot.built.load(std::memory_order_relaxed)) {
    build(slot);
    slot.built.store(true, std::memory_order_release);
  }
  return slot;
}

const LeafBlock& LeafBlockCache::Get(const Node& leaf,
                                     std::size_t dim) const {
  PARSIM_DCHECK(leaf.IsLeaf());
  return Materialize(leaf, [&](Slot& slot) {
           slot.block.BuildFrom(leaf, dim, quantize_);
         }).block;
}

const DirBlock& LeafBlockCache::GetDir(const Node& node,
                                       std::size_t dim) const {
  PARSIM_DCHECK(!node.IsLeaf());
  return Materialize(node, [&](Slot& slot) { slot.dir.BuildFrom(node, dim); })
      .dir;
}

}  // namespace parsim
