// Persistence round-trip tests for point sets and trees.

#include "src/index/serialize.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string TempPath(const char* name) {
    return ::testing::TempDir() + "/parsim_" + name;
  }

  void TearDown() override {
    for (const std::string& path : created_) std::remove(path.c_str());
  }

  std::string Track(std::string path) {
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(SerializeTest, PointSetRoundTrip) {
  const PointSet original = GenerateUniform(5000, 7, 1101);
  const std::string path = Track(TempPath("points.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  const Result<PointSet> loaded = LoadPointSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PointSet& copy = loaded.value();
  ASSERT_EQ(copy.size(), original.size());
  ASSERT_EQ(copy.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t j = 0; j < original.dim(); ++j) {
      EXPECT_EQ(copy[i][j], original[i][j]);
    }
  }
}

TEST_F(SerializeTest, EmptyPointSetRoundTrip) {
  const PointSet original(3);
  const std::string path = Track(TempPath("empty.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  const Result<PointSet> loaded = LoadPointSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 0u);
  EXPECT_EQ(loaded.value().dim(), 3u);
}

TEST_F(SerializeTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadPointSet("/nonexistent/nowhere.bin").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SerializeTest, LoadGarbageFails) {
  const std::string path = Track(TempPath("garbage.bin"));
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a parsim file at all";
  }
  EXPECT_EQ(LoadPointSet(path).status().code(), StatusCode::kInvalidArgument);
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  EXPECT_EQ(LoadTree(&tree, path).code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, TruncatedPointSetFails) {
  const PointSet original = GenerateUniform(100, 4, 1103);
  const std::string path = Track(TempPath("trunc.bin"));
  ASSERT_TRUE(SavePointSet(original, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  EXPECT_EQ(LoadPointSet(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, TreeRoundTripPreservesStructureAndAnswers) {
  SimulatedDisk disk(0);
  XTree original(6, &disk);
  const PointSet data = GenerateUniform(8000, 6, 1105);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const std::string path = Track(TempPath("tree.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());

  SimulatedDisk disk2(1);
  XTree restored(6, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.height(), original.height());
  ASSERT_TRUE(restored.ValidateInvariants().ok());

  const PointSet queries = GenerateUniformQueries(10, 6, 1107);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult a = HsKnn(original, queries[qi], 10);
    const KnnResult b = HsKnn(restored, queries[qi], 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST_F(SerializeTest, RestoredTreeAcceptsFurtherInserts) {
  SimulatedDisk disk(0);
  RStarTree original(3, &disk);
  const PointSet data = GenerateUniform(2000, 3, 1109);
  ASSERT_TRUE(original.BulkLoad(data).ok());
  const std::string path = Track(TempPath("tree2.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());

  SimulatedDisk disk2(1);
  RStarTree restored(3, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  const Point extra = {0.123f, 0.456f, 0.789f};
  ASSERT_TRUE(restored.Insert(extra, 99999).ok());
  ASSERT_TRUE(restored.ValidateInvariants().ok());
  EXPECT_TRUE(restored.Contains(extra, 99999));
  ASSERT_TRUE(restored.Delete(extra, 99999).ok());
  EXPECT_EQ(restored.size(), 2000u);
}

TEST_F(SerializeTest, LoadIntoNonEmptyTreeRejected) {
  SimulatedDisk disk(0);
  RStarTree source(2, &disk);
  ASSERT_TRUE(source.Insert(Point({0.5f, 0.5f}), 0).ok());
  const std::string path = Track(TempPath("tree3.bin"));
  ASSERT_TRUE(SaveTree(source, path).ok());
  EXPECT_EQ(LoadTree(&source, path).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerializeTest, LoadDimensionMismatchRejected) {
  SimulatedDisk disk(0);
  RStarTree source(2, &disk);
  ASSERT_TRUE(source.Insert(Point({0.5f, 0.5f}), 0).ok());
  const std::string path = Track(TempPath("tree4.bin"));
  ASSERT_TRUE(SaveTree(source, path).ok());
  SimulatedDisk disk2(1);
  RStarTree wrong_dim(3, &disk2);
  EXPECT_EQ(LoadTree(&wrong_dim, path).code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, EmptyTreeRoundTrip) {
  SimulatedDisk disk(0);
  RStarTree empty(4, &disk);
  const std::string path = Track(TempPath("tree5.bin"));
  ASSERT_TRUE(SaveTree(empty, path).ok());
  SimulatedDisk disk2(1);
  RStarTree restored(4, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_TRUE(restored.empty());
  EXPECT_EQ(restored.root_id(), kInvalidNodeId);
}

TEST_F(SerializeTest, TreeWithDeletionsRoundTrips) {
  // Dissolved node slots must not break the dense-id restore.
  SimulatedDisk disk(0);
  RStarTree original(3, &disk);
  const PointSet data = GenerateUniform(3000, 3, 1111);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  for (std::size_t i = 0; i < data.size(); i += 3) {
    ASSERT_TRUE(original.Delete(data[i], static_cast<PointId>(i)).ok());
  }
  const std::string path = Track(TempPath("tree6.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());
  SimulatedDisk disk2(1);
  RStarTree restored(3, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_EQ(restored.size(), original.size());
  ASSERT_TRUE(restored.ValidateInvariants().ok());
}

TEST_F(SerializeTest, SavedNodeIdsAreDenseAfterDeletions) {
  // Condensation leaves gaps in the id space; SaveTree renumbers the
  // reachable nodes so the restored table has no placeholder slots, and
  // the restored tree answers like the original.
  SimulatedDisk disk(0);
  XTree original(4, &disk);
  const PointSet data = GenerateUniform(3000, 4, 1113);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(original.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  for (std::size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(original.Delete(data[i], static_cast<PointId>(i)).ok());
  }
  ASSERT_GT(original.num_nodes(), original.ComputeStats().num_nodes);
  const std::string path = Track(TempPath("tree7.bin"));
  ASSERT_TRUE(SaveTree(original, path).ok());
  SimulatedDisk disk2(1);
  XTree restored(4, &disk2);
  ASSERT_TRUE(LoadTree(&restored, path).ok());
  EXPECT_EQ(restored.num_nodes(), original.ComputeStats().num_nodes);
  ASSERT_TRUE(restored.ValidateInvariants().ok());
  const PointSet queries = GenerateUniformQueries(10, 4, 1115);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult a = HsKnn(original, queries[qi], 10);
    const KnnResult b = HsKnn(restored, queries[qi], 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

// Hostile headers: each claims far more than the file holds. The reader
// must answer kInvalidArgument without sizing anything by the claim
// (the old reader asked for terabytes and threw).
class HostileFileTest : public SerializeTest {
 protected:
  template <typename T>
  void Put(std::string* bytes, T value) {
    bytes->append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  std::string Write(const char* name, const std::string& bytes) {
    const std::string path = Track(TempPath(name));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // A d=2 tree file header claiming one node, then that node's header.
  std::string TreeWithOneNode(NodeId id, std::uint64_t entries) {
    std::string bytes = "PSIMTRE1";
    Put(&bytes, std::uint32_t{1});       // version
    Put(&bytes, std::uint64_t{2});       // dim
    Put(&bytes, std::uint64_t{1});       // size
    Put(&bytes, NodeId{0});              // root
    Put(&bytes, std::uint64_t{1});       // node count
    Put(&bytes, id);
    Put(&bytes, int{0});                 // level
    Put(&bytes, std::uint32_t{1});       // pages
    Put(&bytes, std::uint32_t{0});       // split history
    Put(&bytes, entries);
    for (int i = 0; i < 4; ++i) Put(&bytes, Scalar{0.5f});  // one rect
    Put(&bytes, std::uint32_t{7});       // its point id
    return bytes;
  }
};

TEST_F(HostileFileTest, PointSetClaimingTwoToTheFortyPointsFails) {
  std::string bytes = "PSIMPTS1";
  Put(&bytes, std::uint32_t{1});
  Put(&bytes, std::uint64_t{16});
  Put(&bytes, std::uint64_t{1} << 40);
  for (int i = 0; i < 3 * 16; ++i) Put(&bytes, Scalar{0.25f});
  const std::string path = Write("hostile_points.bin", bytes);
  EXPECT_EQ(LoadPointSet(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HostileFileTest, NodeClaimingTwoToTheFortyEntriesFails) {
  const std::string path = Write(
      "hostile_entries.bin", TreeWithOneNode(0, std::uint64_t{1} << 40));
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  EXPECT_EQ(LoadTree(&tree, path).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tree.empty());
}

TEST_F(HostileFileTest, NodeIdBeyondNodeCountFails) {
  const std::string path =
      Write("hostile_id.bin", TreeWithOneNode(0xFFFFFFFEu, 1));
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  EXPECT_EQ(LoadTree(&tree, path).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tree.empty());
}

TEST_F(HostileFileTest, WellFormedOneNodeTreeLoads) {
  // The same builder with honest fields: the rejections above come from
  // the claims, not from the hand-built layout.
  const std::string path = Write("honest.bin", TreeWithOneNode(0, 1));
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  ASSERT_TRUE(LoadTree(&tree, path).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(Point({0.5f, 0.5f}), 7));
}

}  // namespace
}  // namespace parsim
