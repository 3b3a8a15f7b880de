#include "src/index/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "src/util/check.h"

namespace parsim {
namespace {

constexpr char kPointSetMagic[8] = {'P', 'S', 'I', 'M', 'P', 'T', 'S', '1'};
constexpr char kTreeMagic[8] = {'P', 'S', 'I', 'M', 'T', 'R', 'E', '1'};
constexpr std::uint32_t kFormatVersion = 1;

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadRaw(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

bool CheckMagic(std::istream& in, const char (&magic)[8]) {
  char buffer[8];
  in.read(buffer, sizeof(buffer));
  return in && std::memcmp(buffer, magic, sizeof(buffer)) == 0;
}

// Bytes between the read position and the end of `in`, or nullopt when
// the stream cannot tell (not seekable). Every count a file claims is
// checked against this before anything is sized by it, so a hostile
// header cannot make the reader allocate more than the file could fill.
std::optional<std::uint64_t> BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (end == std::streampos(-1) || end < here || !in) {
    in.clear();
    in.seekg(here);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - here);
}

// How many of `claimed` records of `record_bytes` each to reserve: at most
// as many as `left` bytes can hold, none when the size is unknown.
std::size_t Reservable(std::uint64_t claimed, std::uint64_t record_bytes,
                       std::optional<std::uint64_t> left) {
  if (!left.has_value()) return 0;
  return static_cast<std::size_t>(std::min(claimed, *left / record_bytes));
}

void WriteRect(std::ostream& out, const Rect& rect) {
  for (std::size_t i = 0; i < rect.dim(); ++i) WriteRaw(out, rect.lo(i));
  for (std::size_t i = 0; i < rect.dim(); ++i) WriteRaw(out, rect.hi(i));
}

bool ReadRect(std::istream& in, std::size_t dim, Rect* rect) {
  std::vector<Scalar> lo(dim), hi(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    if (!ReadRaw(in, &lo[i])) return false;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (!ReadRaw(in, &hi[i])) return false;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (lo[i] > hi[i]) return false;
  }
  *rect = Rect(std::move(lo), std::move(hi));
  return true;
}

}  // namespace

Status WritePointSet(const PointSet& points, std::ostream& out) {
  out.write(kPointSetMagic, sizeof(kPointSetMagic));
  WriteRaw(out, kFormatVersion);
  WriteRaw(out, static_cast<std::uint64_t>(points.dim()));
  WriteRaw(out, static_cast<std::uint64_t>(points.size()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointView p = points[i];
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(p.size() * sizeof(Scalar)));
  }
  if (!out) return Status::Internal("write failed");
  return Status::Ok();
}

Result<PointSet> ReadPointSet(std::istream& in) {
  if (!CheckMagic(in, kPointSetMagic)) {
    return Status::InvalidArgument("not a parsim point-set file");
  }
  std::uint32_t version = 0;
  std::uint64_t dim = 0, count = 0;
  if (!ReadRaw(in, &version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported point-set format version");
  }
  if (!ReadRaw(in, &dim) || !ReadRaw(in, &count) || dim == 0) {
    return Status::InvalidArgument("corrupt point-set header");
  }
  const std::optional<std::uint64_t> left = BytesLeft(in);
  // A row must fit in the rest of the stream before a row buffer of
  // `dim` scalars is allocated for it.
  if (count > 0 && left.has_value() && dim > *left / sizeof(Scalar)) {
    return Status::InvalidArgument("truncated point-set file");
  }
  PointSet points(static_cast<std::size_t>(dim));
  if (count == 0) return points;
  points.Reserve(Reservable(count, dim * sizeof(Scalar), left));
  Point p(static_cast<std::size_t>(dim));
  for (std::uint64_t i = 0; i < count; ++i) {
    in.read(reinterpret_cast<char*>(p.data()),
            static_cast<std::streamsize>(dim * sizeof(Scalar)));
    if (!in) return Status::InvalidArgument("truncated point-set file");
    points.Add(p);
  }
  return points;
}

Status SavePointSet(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  return WritePointSet(points, out);
}

Result<PointSet> LoadPointSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return ReadPointSet(in);
}

Status SaveTree(const TreeBase& tree, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out.write(kTreeMagic, sizeof(kTreeMagic));
  WriteRaw(out, kFormatVersion);
  WriteRaw(out, static_cast<std::uint64_t>(tree.dim()));
  WriteRaw(out, static_cast<std::uint64_t>(tree.size()));

  // Count reachable nodes, then emit them in a root-first walk.
  std::vector<NodeId> reachable;
  if (tree.root_id() != kInvalidNodeId) {
    std::vector<NodeId> stack = {tree.root_id()};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      reachable.push_back(id);
      const Node& node = tree.PeekNode(id);
      if (!node.IsLeaf()) {
        for (const NodeEntry& e : node.entries) stack.push_back(e.child);
      }
    }
  }
  // Ids are written dense (0..count-1, order-preserving), which LoadTree
  // requires: a tree that dissolved or detached nodes has gaps in its id
  // space, and those ids renumber; a gap-free tree keeps its ids.
  std::vector<NodeId> sorted = reachable;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> dense(tree.num_nodes(), kInvalidNodeId);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    dense[sorted[i]] = static_cast<NodeId>(i);
  }
  WriteRaw(out, tree.root_id() == kInvalidNodeId ? kInvalidNodeId
                                                 : dense[tree.root_id()]);
  WriteRaw(out, static_cast<std::uint64_t>(reachable.size()));
  for (NodeId id : reachable) {
    const Node& node = tree.PeekNode(id);
    WriteRaw(out, dense[node.id]);
    WriteRaw(out, node.level);
    WriteRaw(out, node.pages);
    WriteRaw(out, node.split_history);
    WriteRaw(out, static_cast<std::uint64_t>(node.entries.size()));
    for (const NodeEntry& e : node.entries) {
      WriteRect(out, e.rect);
      // Leaf entries carry point ids, directory entries node ids.
      WriteRaw(out, node.IsLeaf() ? e.child : dense[e.child]);
    }
  }
  if (!out) return Status::Internal("write failed");
  return Status::Ok();
}

Status LoadTree(TreeBase* tree, const std::string& path) {
  PARSIM_CHECK(tree != nullptr);
  if (!tree->empty() || tree->root_id() != kInvalidNodeId) {
    return Status::FailedPrecondition("LoadTree requires an empty tree");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  if (!CheckMagic(in, kTreeMagic)) {
    return Status::InvalidArgument("not a parsim tree file");
  }
  std::uint32_t version = 0;
  std::uint64_t dim = 0, size = 0, node_count = 0;
  NodeId root = kInvalidNodeId;
  if (!ReadRaw(in, &version) || version != kFormatVersion) {
    return Status::InvalidArgument("unsupported tree format version");
  }
  if (!ReadRaw(in, &dim) || dim != tree->dim()) {
    return Status::InvalidArgument("tree dimensionality mismatch");
  }
  if (!ReadRaw(in, &size) || !ReadRaw(in, &root) || !ReadRaw(in, &node_count)) {
    return Status::InvalidArgument("corrupt tree header");
  }
  // Node ids index a dense table of node_count slots: SaveTree writes
  // ids 0..node_count-1, each once. The records are read first and the
  // table is sized only after all node_count of them arrived, so a
  // hostile count or id cannot size it beyond what the file holds.
  const std::uint64_t entry_bytes =
      2 * dim * sizeof(Scalar) + sizeof(NodeEntry{}.child);
  std::vector<std::unique_ptr<Node>> read;
  for (std::uint64_t n = 0; n < node_count; ++n) {
    auto node = std::make_unique<Node>();
    std::uint64_t entries = 0;
    if (!ReadRaw(in, &node->id) || !ReadRaw(in, &node->level) ||
        !ReadRaw(in, &node->pages) || !ReadRaw(in, &node->split_history) ||
        !ReadRaw(in, &entries)) {
      return Status::InvalidArgument("corrupt node header");
    }
    if (node->level < 0 || node->pages == 0) {
      return Status::InvalidArgument("corrupt node fields");
    }
    if (node->id >= node_count) {
      return Status::InvalidArgument("node id out of range");
    }
    node->entries.reserve(Reservable(entries, entry_bytes, BytesLeft(in)));
    for (std::uint64_t e = 0; e < entries; ++e) {
      NodeEntry entry;
      if (!ReadRect(in, static_cast<std::size_t>(dim), &entry.rect) ||
          !ReadRaw(in, &entry.child)) {
        return Status::InvalidArgument("corrupt node entry");
      }
      node->entries.push_back(std::move(entry));
    }
    read.push_back(std::move(node));
  }
  // node_count records with distinct ids below node_count fill every
  // slot of the table.
  std::vector<std::unique_ptr<Node>> nodes(read.size());
  for (auto& node : read) {
    const std::size_t slot = node->id;
    if (nodes[slot] != nullptr) {
      return Status::InvalidArgument("duplicate node id");
    }
    nodes[slot] = std::move(node);
  }
  if (root != kInvalidNodeId && root >= nodes.size()) {
    return Status::InvalidArgument("root id out of range");
  }
  tree->nodes_ = std::move(nodes);
  tree->root_ = root;
  tree->size_ = static_cast<std::size_t>(size);
  tree->InvalidateLeafBlocks();
  tree->disk_->WritePages(node_count);
  Status valid = tree->ValidateInvariants();
  if (!valid.ok()) {
    tree->nodes_.clear();
    tree->root_ = kInvalidNodeId;
    tree->size_ = 0;
    return Status::InvalidArgument("loaded tree fails validation: " +
                                   valid.message());
  }
  return Status::Ok();
}

}  // namespace parsim
