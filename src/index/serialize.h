// Binary persistence for point sets and index trees.
//
// Format: native-endian fixed-width fields behind a magic + version
// header. Intended for checkpointing built indexes and generated data
// sets between runs of the same build on the same machine (no
// cross-endianness portability guarantee).

#ifndef PARSIM_SRC_INDEX_SERIALIZE_H_
#define PARSIM_SRC_INDEX_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "src/geometry/point.h"
#include "src/index/tree_base.h"
#include "src/util/status.h"

namespace parsim {

/// Writes `points` to `path` (overwriting). Binary, versioned.
Status SavePointSet(const PointSet& points, const std::string& path);

/// Reads a point set written by SavePointSet.
Result<PointSet> LoadPointSet(const std::string& path);

/// Stream variants (used by the file variants; handy for composing).
Status WritePointSet(const PointSet& points, std::ostream& out);
Result<PointSet> ReadPointSet(std::istream& in);

/// Writes the full structure of `tree` (reachable nodes, entries, root)
/// to `path`. Node ids are renumbered densely in their original order,
/// so a tree with dissolved or detached nodes restores with gap-free ids.
Status SaveTree(const TreeBase& tree, const std::string& path);

/// Restores a tree saved by SaveTree into `tree`, which must be empty
/// and have the same dimensionality. The tree's disk/charging setup is
/// unaffected (structure only); one page write per restored node is
/// charged, like a build. A file whose node ids are not 0..count-1, each
/// once, is rejected with kInvalidArgument, as is any count the file
/// cannot back: nothing is sized by a claimed count before the bytes
/// behind it have been seen.
Status LoadTree(TreeBase* tree, const std::string& path);

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_SERIALIZE_H_
