#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>

#include "data/generator.h"
#include "data/map_builder.h"
#include "rtree/validator.h"

namespace psj {
namespace {

Geography TestGeography() { return Geography::Generate(100, 50); }

TEST(GeographyTest, GeneratesRequestedCenters) {
  const Geography geo = TestGeography();
  EXPECT_EQ(geo.centers.size(), 50u);
  EXPECT_EQ(geo.center_weights.size(), 50u);
  EXPECT_DOUBLE_EQ(geo.center_weights.back(), 1.0);
  for (const Point& c : geo.centers) {
    EXPECT_TRUE(geo.world.ContainsPoint(c));
  }
}

TEST(GeographyTest, DeterministicBySeed) {
  const Geography a = Geography::Generate(7, 20);
  const Geography b = Geography::Generate(7, 20);
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (size_t i = 0; i < a.centers.size(); ++i) {
    EXPECT_EQ(a.centers[i], b.centers[i]);
  }
}

TEST(GeographyTest, SampledPointsStayInWorld) {
  const Geography geo = TestGeography();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(geo.world.ContainsPoint(geo.SamplePointNearCenter(rng, 0.1)));
  }
}

TEST(GeographyTest, WeightedSamplingFavorsEarlyCenters) {
  // Zipf-like weights: center 0 must be sampled far more than center 49.
  const Geography geo = TestGeography();
  Rng rng(2);
  int first = 0;
  int last = 0;
  for (int i = 0; i < 20'000; ++i) {
    const size_t c = geo.SampleCenterIndex(rng);
    if (c == 0) ++first;
    if (c == 49) ++last;
  }
  EXPECT_GT(first, 5 * std::max(1, last));
}

TEST(StreetsMapTest, CountsAndDenseIds) {
  StreetsSpec spec;
  spec.num_objects = 2'000;
  const auto objects = GenerateStreetsMap(TestGeography(), spec);
  ASSERT_EQ(objects.size(), 2'000u);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i].id, i);
    EXPECT_GE(objects[i].geometry.num_points(), 2u);
    EXPECT_TRUE(objects[i].Mbr().IsValid());
  }
}

TEST(StreetsMapTest, DeterministicBySeed) {
  StreetsSpec spec;
  spec.num_objects = 500;
  const auto a = GenerateStreetsMap(TestGeography(), spec);
  const auto b = GenerateStreetsMap(TestGeography(), spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].geometry.points().size(), b[i].geometry.points().size());
    EXPECT_EQ(a[i].Mbr(), b[i].Mbr());
  }
}

TEST(StreetsMapTest, ObjectsAreSmall) {
  StreetsSpec spec;
  spec.num_objects = 2'000;
  const auto objects = GenerateStreetsMap(TestGeography(), spec);
  double total_extent = 0.0;
  for (const auto& obj : objects) {
    total_extent += obj.Mbr().Margin();
  }
  // Streets are tiny: average half-perimeter well under 2% of the world.
  EXPECT_LT(total_extent / static_cast<double>(objects.size()), 0.02);
}

TEST(MixedMapTest, CountsAndDenseIds) {
  MixedSpec spec;
  spec.num_objects = 3'000;
  const auto objects = GenerateMixedMap(TestGeography(), spec);
  ASSERT_EQ(objects.size(), 3'000u);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects[i].id, i);
    EXPECT_GE(objects[i].geometry.num_points(), 2u);
  }
}

TEST(MixedMapTest, DeterministicBySeed) {
  MixedSpec spec;
  spec.num_objects = 800;
  const auto a = GenerateMixedMap(TestGeography(), spec);
  const auto b = GenerateMixedMap(TestGeography(), spec);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Mbr(), b[i].Mbr());
  }
}

TEST(MixedMapTest, FragmentsChainTogether) {
  // Consecutive fragments of one feature share endpoints; verify at least
  // some do (the generator chops long paths into chained objects).
  MixedSpec spec;
  spec.num_objects = 500;
  const auto objects = GenerateMixedMap(TestGeography(), spec);
  int chained = 0;
  for (size_t i = 1; i < objects.size(); ++i) {
    const auto& prev = objects[i - 1].geometry.points();
    const auto& cur = objects[i].geometry.points();
    if (prev.back() == cur.front()) ++chained;
  }
  EXPECT_GT(chained, 100);
}

TEST(UniformSegmentsTest, BasicProperties) {
  const auto objects = GenerateUniformSegments(9, 300, 0.01);
  ASSERT_EQ(objects.size(), 300u);
  for (const auto& obj : objects) {
    EXPECT_EQ(obj.geometry.num_points(), 2u);
    EXPECT_TRUE(Rect(0, 0, 1, 1).Contains(obj.Mbr()));
  }
}

TEST(ObjectStoreTest, LookupById) {
  ObjectStore store(GenerateUniformSegments(3, 50, 0.01));
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(store.Get(17).id, 17u);
}

TEST(ObjectStoreTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/psj_store_test.bin";
  ObjectStore store(GenerateUniformSegments(4, 120, 0.02));
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = ObjectStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded->Get(i).Mbr(), store.Get(i).Mbr());
    EXPECT_EQ(loaded->Get(i).geometry.points().size(),
              store.Get(i).geometry.points().size());
  }
  std::remove(path.c_str());
}

constexpr uint64_t kStoreMagic = 0x50534a4f424a5331ULL;  // "PSJOBJS1"

// Writes a hand-made object store file, word by word.
void WriteWords(const std::string& path,
                std::initializer_list<uint64_t> words) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (const uint64_t w : words) {
    ASSERT_EQ(std::fwrite(&w, sizeof(w), 1, f), 1u);
  }
  std::fclose(f);
}

// Lengths read from the file must be checked before they size an
// allocation: a 16-byte file with a valid magic and a count of 2^60 once
// aborted in vector::reserve.
TEST(ObjectStoreTest, HugeCountsAreCorruptionNotACrash) {
  const std::string path = ::testing::TempDir() + "/psj_store_huge.bin";
  WriteWords(path, {kStoreMagic, uint64_t{1} << 60});
  EXPECT_TRUE(ObjectStore::LoadFromFile(path).status().IsCorruption());
  // One object claiming 2^60 points.
  WriteWords(path, {kStoreMagic, 1, 0, uint64_t{1} << 60});
  EXPECT_TRUE(ObjectStore::LoadFromFile(path).status().IsCorruption());
  // Counts that fit the bytes still load.
  WriteWords(path, {kStoreMagic, 1, 0, 1, 0x3ff0000000000000ULL,
                    0x4000000000000000ULL});
  const auto loaded = ObjectStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Get(0).Mbr(), Rect(1.0, 2.0, 1.0, 2.0));
  std::remove(path.c_str());
}

// A NaN coordinate would reach the MBR's min/max folds, whose result then
// depends on operand order; infinities are no map coordinates either.
TEST(ObjectStoreTest, NonFiniteCoordinatesAreCorruption) {
  const std::string path = ::testing::TempDir() + "/psj_store_nonfinite.bin";
  constexpr uint64_t kOne = 0x3ff0000000000000ULL;     // 1.0
  constexpr uint64_t kNan = 0x7ff8000000000000ULL;     // quiet NaN
  constexpr uint64_t kPosInf = 0x7ff0000000000000ULL;  // +inf
  // One object of two points; the second point carries the bad value.
  WriteWords(path, {kStoreMagic, 1, 0, 2, kOne, kOne, kNan, kOne});
  EXPECT_TRUE(ObjectStore::LoadFromFile(path).status().IsCorruption());
  WriteWords(path, {kStoreMagic, 1, 0, 2, kOne, kOne, kOne, kPosInf});
  EXPECT_TRUE(ObjectStore::LoadFromFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(ObjectStoreTest, LoadMissingFileFails) {
  EXPECT_TRUE(ObjectStore::LoadFromFile("/nonexistent/psj.bin")
                  .status()
                  .IsNotFound());
}

TEST(MapBuilderTest, InsertionTreeIsValidAndComplete) {
  const auto objects = GenerateUniformSegments(5, 2'000, 0.005);
  const RStarTree tree = BuildTreeFromObjects(1, objects);
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), 2'000);
}

TEST(MapBuilderTest, StrTreeIsValidAndComplete) {
  const auto objects = GenerateUniformSegments(5, 2'000, 0.005);
  const RStarTree tree =
      BuildTreeFromObjects(1, objects, TreeBuildMethod::kStr);
  EXPECT_TRUE(ValidateRTree(tree, /*enforce_min_fill=*/false).ok());
  EXPECT_EQ(tree.num_data_entries(), 2'000);
}

}  // namespace
}  // namespace psj
