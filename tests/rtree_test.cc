#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "rtree/rstar_tree.h"
#include "rtree/validator.h"
#include "storage/page_file.h"
#include "util/check.h"
#include "util/rng.h"

namespace psj {
namespace {

// Small fanouts exercise splits and reinsertion with few entries.
RTreeOptions SmallOptions() {
  RTreeOptions options;
  options.max_dir_entries = 8;
  options.max_data_entries = 8;
  return options;
}

Rect RandomRect(Rng& rng, double extent = 0.05) {
  const double x = rng.NextDoubleInRange(0.0, 1.0);
  const double y = rng.NextDoubleInRange(0.0, 1.0);
  return Rect(x, y, x + rng.NextDoubleInRange(0.0, extent),
              y + rng.NextDoubleInRange(0.0, extent));
}

TEST(RStarTreeTest, EmptyTreeIsValid) {
  RStarTree tree(1, SmallOptions());
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_data_entries(), 0);
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_TRUE(tree.WindowQuery(Rect(0, 0, 1, 1)).empty());
}

TEST(RStarTreeTest, SingleInsertIsQueryable) {
  RStarTree tree(1, SmallOptions());
  tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 42);
  EXPECT_EQ(tree.num_data_entries(), 1);
  const auto hits = tree.WindowQuery(Rect(0, 0, 1, 1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(tree.WindowQuery(Rect(0.5, 0.5, 0.6, 0.6)).empty());
}

TEST(RStarTreeTest, GrowsAndStaysValid) {
  RStarTree tree(1, SmallOptions());
  Rng rng(3);
  for (uint64_t i = 0; i < 500; ++i) {
    tree.Insert(RandomRect(rng), i);
    if (i % 50 == 49) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "after insert " << i;
    }
  }
  EXPECT_GT(tree.height(), 1);
  EXPECT_EQ(tree.num_data_entries(), 500);
  EXPECT_TRUE(ValidateRTree(tree).ok());
}

TEST(RStarTreeTest, WindowQueryMatchesLinearScan) {
  RStarTree tree(1, SmallOptions());
  Rng rng(4);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 400; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  for (int q = 0; q < 50; ++q) {
    const Rect window = RandomRect(rng, 0.4);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(window)) expected.insert(i);
    }
    auto hits = tree.WindowQuery(window);
    const std::set<uint64_t> actual(hits.begin(), hits.end());
    EXPECT_EQ(hits.size(), actual.size()) << "duplicate result";
    ASSERT_EQ(actual, expected) << "query " << q;
  }
}

TEST(RStarTreeTest, DeleteRemovesOnlyTargetedEntry) {
  RStarTree tree(1, SmallOptions());
  Rng rng(5);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 200; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  EXPECT_TRUE(tree.Delete(rects[77], 77));
  EXPECT_FALSE(tree.Delete(rects[77], 77));  // Already gone.
  EXPECT_EQ(tree.num_data_entries(), 199);
  EXPECT_TRUE(ValidateRTree(tree).ok());
  const auto hits = tree.WindowQuery(rects[77]);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 77u), 0);
}

TEST(RStarTreeTest, DeleteEverythingShrinksTree) {
  RStarTree tree(1, SmallOptions());
  Rng rng(6);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 300; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], i)) << i;
    if (i % 25 == 24) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "after delete " << i;
    }
  }
  EXPECT_EQ(tree.num_data_entries(), 0);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(ValidateRTree(tree).ok());
}

TEST(RStarTreeTest, MixedInsertDeleteWorkloadStaysConsistent) {
  RStarTree tree(1, SmallOptions());
  Rng rng(7);
  std::vector<std::pair<Rect, uint64_t>> live;
  uint64_t next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const Rect r = RandomRect(rng);
      tree.Insert(r, next_id);
      live.emplace_back(r, next_id);
      ++next_id;
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "step " << step;
      ASSERT_EQ(tree.num_data_entries(),
                static_cast<int64_t>(live.size()));
    }
  }
  // Every live object findable, in full.
  auto hits = tree.WindowQuery(Rect(0, 0, 2, 2));
  EXPECT_EQ(hits.size(), live.size());
}

TEST(RStarTreeTest, DuplicateRectsWithDistinctIdsSupported) {
  RStarTree tree(1, SmallOptions());
  const Rect r(0.4, 0.4, 0.5, 0.5);
  for (uint64_t i = 0; i < 30; ++i) {
    tree.Insert(r, i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.WindowQuery(r).size(), 30u);
  EXPECT_TRUE(tree.Delete(r, 17));
  EXPECT_EQ(tree.WindowQuery(r).size(), 29u);
}

TEST(RStarTreeTest, OverflowingAreasStillSplitIntoNonEmptyNodes) {
  // Every split distribution of these entries has an infinite overlap and
  // area, so none compares smaller than another; the split must still
  // leave both groups at least min-fill.
  RStarTree tree(1, SmallOptions());
  Rng rng(12);
  for (uint64_t i = 0; i < 200; ++i) {
    const double x = rng.NextDoubleInRange(-1e300, 1e300);
    tree.Insert(Rect(x - 1e300, -1e300, x + 1e300, 1e300), i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), 200);
  EXPECT_EQ(tree.WindowQuery(Rect(0, 0, 0, 0)).size(), 200u);
}

TEST(RStarTreeTest, ForcedReinsertCanBeDisabled) {
  RTreeOptions options = SmallOptions();
  options.enable_forced_reinsert = false;
  RStarTree tree(1, options);
  Rng rng(8);
  for (uint64_t i = 0; i < 300; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), 300);
}

TEST(RStarTreeTest, ShapeStatsCountPages) {
  RStarTree tree(1, SmallOptions());
  Rng rng(9);
  for (uint64_t i = 0; i < 400; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  const RTreeShapeStats stats = tree.ComputeShapeStats();
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_EQ(stats.num_data_entries, 400);
  EXPECT_GT(stats.num_data_pages, 400 / 8);
  EXPECT_GT(stats.num_dir_pages, 0);
  EXPECT_GT(stats.avg_data_fill, 0.4);
  EXPECT_LE(stats.avg_data_fill, 1.0);
}

TEST(RStarTreeTest, PageFileRoundTrip) {
  RStarTree tree(5, SmallOptions());
  Rng rng(10);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 350; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  // Some deletions so the file contains free pages.
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], i));
  }
  PageFile file(5);
  ASSERT_TRUE(tree.PackToPageFile(&file).ok());
  EXPECT_EQ(file.num_pages(), tree.num_pages());

  auto loaded = RStarTree::LoadFromPageFile(file, SmallOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ValidateRTree(*loaded).ok());
  EXPECT_EQ(loaded->num_data_entries(), tree.num_data_entries());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->root_page(), tree.root_page());
  // Same query answers.
  for (int q = 0; q < 20; ++q) {
    const Rect window = RandomRect(rng, 0.3);
    auto a = tree.WindowQuery(window);
    auto b = loaded->WindowQuery(window);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

TEST(RStarTreeTest, PackRequiresEmptyFile) {
  RStarTree tree(1, SmallOptions());
  tree.Insert(Rect(0, 0, 1, 1), 0);
  PageFile file(1);
  file.AllocatePage();
  EXPECT_TRUE(tree.PackToPageFile(&file).IsInvalidArgument())
      << "non-empty file must be rejected";
}

TEST(RStarTreeTest, LoadRejectsGarbage) {
  PageFile file(1);
  file.AllocatePage();  // Zeroed metadata page: bad magic.
  EXPECT_TRUE(RStarTree::LoadFromPageFile(file).status().IsCorruption());
  EXPECT_TRUE(
      RStarTree::LoadFromPageFile(PageFile(1)).status().IsInvalidArgument());
}

TEST(RStarTreeTest, PaperFanoutsYieldTable1LikeShape) {
  // With default (paper) fanouts, ~13k uniform entries give height 2-3 and
  // data-page occupancy around 70%.
  RStarTree tree(1);
  Rng rng(11);
  for (uint64_t i = 0; i < 13'000; ++i) {
    tree.Insert(RandomRect(rng, 0.01), i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  const auto stats = tree.ComputeShapeStats();
  EXPECT_GE(stats.height, 2);
  EXPECT_LE(stats.height, 3);
  EXPECT_GT(stats.avg_data_fill, 0.6);
  const double avg_entries_per_leaf =
      static_cast<double>(stats.num_data_entries) /
      static_cast<double>(stats.num_data_pages);
  EXPECT_GT(avg_entries_per_leaf, 15.0);
  EXPECT_LE(avg_entries_per_leaf, 26.0);
}

TEST(RStarTreeKnnTest, MatchesLinearScan) {
  RStarTree tree(1, SmallOptions());
  Rng rng(30);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 600; ++i) {
    rects.push_back(RandomRect(rng, 0.02));
    tree.Insert(rects.back(), i);
  }
  for (int q = 0; q < 20; ++q) {
    const Point query{rng.NextDouble(), rng.NextDouble()};
    // Reference: sort all entries by (mindist, id).
    std::vector<std::pair<double, uint64_t>> reference;
    for (uint64_t i = 0; i < rects.size(); ++i) {
      reference.emplace_back(std::sqrt(MinDistSq(query, rects[i])), i);
    }
    std::sort(reference.begin(), reference.end());
    const auto neighbors = tree.KnnQuery(query, 10);
    ASSERT_EQ(neighbors.size(), 10u);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_NEAR(neighbors[k].distance, reference[k].first, 1e-12)
          << "query " << q << " rank " << k;
    }
    // Distances ascending.
    for (size_t k = 1; k < neighbors.size(); ++k) {
      EXPECT_GE(neighbors[k].distance, neighbors[k - 1].distance);
    }
  }
}

TEST(RStarTreeKnnTest, EdgeCases) {
  RStarTree tree(1, SmallOptions());
  EXPECT_TRUE(tree.KnnQuery(Point{0.5, 0.5}, 5).empty());  // Empty tree.
  tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 7);
  EXPECT_TRUE(tree.KnnQuery(Point{0.5, 0.5}, 0).empty());  // k = 0.
  const auto one = tree.KnnQuery(Point{0.15, 0.15}, 3);
  ASSERT_EQ(one.size(), 1u);  // Fewer entries than k.
  EXPECT_EQ(one[0].object_id, 7u);
  EXPECT_DOUBLE_EQ(one[0].distance, 0.0);  // Query inside the MBR.
}

TEST(RStarTreeKnnTest, KEqualsTreeSizeReturnsAll) {
  RStarTree tree(1, SmallOptions());
  Rng rng(31);
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  const auto all = tree.KnnQuery(Point{0.5, 0.5}, 100);
  EXPECT_EQ(all.size(), 100u);
  std::set<uint64_t> ids;
  for (const auto& neighbor : all) {
    ids.insert(neighbor.object_id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(RStarTreeKnnTest, PaperFanoutLargeTreeMatchesLinearScan) {
  // Same property as MatchesLinearScan, but on a multi-level tree with the
  // paper's real fanouts (102/26), where best-first pruning actually
  // skips subtrees.
  RStarTree tree(1);
  Rng rng(32);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 3'000; ++i) {
    rects.push_back(RandomRect(rng, 0.01));
    tree.Insert(rects.back(), i);
  }
  ASSERT_GE(tree.height(), 2);
  for (int q = 0; q < 10; ++q) {
    const Point query{rng.NextDouble(), rng.NextDouble()};
    std::vector<double> reference;
    for (const Rect& r : rects) {
      reference.push_back(std::sqrt(MinDistSq(query, r)));
    }
    std::sort(reference.begin(), reference.end());
    const auto neighbors = tree.KnnQuery(query, 25);
    ASSERT_EQ(neighbors.size(), 25u);
    std::set<uint64_t> unique_ids;
    for (size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_NEAR(neighbors[k].distance, reference[k], 1e-12)
          << "query " << q << " rank " << k;
      unique_ids.insert(neighbors[k].object_id);
    }
    EXPECT_EQ(unique_ids.size(), neighbors.size());
  }
}

TEST(RStarTreeKnnTest, TiedDistancesComeOutInIdOrder) {
  // 40 rectangles touching the origin, alternating between the lower-left
  // and the upper-right quadrant, so with the paper's leaf capacity of 26
  // they split over two leaves; every one is at distance 0.
  RStarTree tree(1);
  for (uint64_t id = 0; id < 40; ++id) {
    const double w = 1.0 + 0.01 * static_cast<double>(id);
    tree.Insert(id % 2 == 0 ? Rect(-w, -1.0, 0.0, 0.0) : Rect(0.0, 0.0, w, 1.0),
                id);
  }
  ASSERT_EQ(tree.height(), 2);
  const auto neighbors = tree.KnnQuery(Point{0.0, 0.0}, 4);
  ASSERT_EQ(neighbors.size(), 4u);
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(neighbors[k].object_id, k);
    EXPECT_EQ(neighbors[k].distance, 0.0);
  }
}

TEST(MinDistSqTest, InsideOnBoundaryOutside) {
  const Rect box(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{1, 1}, box), 0.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{2, 1}, box), 0.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{3, 1}, box), 1.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{3, 3}, box), 2.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{-1, -2}, box), 5.0);
}

// 64-bit FNV-1a over every page image of the packed tree, metadata page
// included: a different page numbering, entry order or a single coordinate
// bit changes the value.
uint64_t PageImageFingerprint(const RStarTree& tree) {
  PageFile file(tree.tree_id());
  PSJ_CHECK(tree.PackToPageFile(&file).ok());
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint32_t p = 0; p < file.num_pages(); ++p) {
    for (const std::byte b : file.ReadPage(p)) {
      hash = (hash ^ static_cast<uint64_t>(b)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

const PaperWorkload& PaperMapsAtScale005() {
  static const PaperWorkload* const workload =
      new PaperWorkload(PaperWorkloadSpec().Scaled(0.05));
  return *workload;
}

// Inserts every object of `store`, then deletes every third one, so that
// tree condensation reinserts the orphaned entries.
RStarTree BuildThenDeleteEveryThird(uint32_t tree_id,
                                    const ObjectStore& store) {
  RStarTree tree(tree_id);
  for (const MapObject& obj : store.objects()) {
    tree.Insert(obj.Mbr(), obj.id);
  }
  for (const MapObject& obj : store.objects()) {
    if (obj.id % 3 == 0) {
      PSJ_CHECK(tree.Delete(obj.Mbr(), obj.id));
    }
  }
  return tree;
}

// The insertion-built trees are pinned page for page: these fingerprints
// were recorded with the all-pairs R* ChooseSubtree and must not move when
// its implementation changes. The paper figures, the goldens and the
// simulated costs all follow from these exact pages.
TEST(RStarTreeIdentityTest, PaperMapsAtScale005AreUnchanged) {
  const PaperWorkload& workload = PaperMapsAtScale005();
  EXPECT_EQ(PageImageFingerprint(workload.tree_r()),  // Streets.
            0xc8f9040e85377f09ULL);
  EXPECT_EQ(PageImageFingerprint(workload.tree_s()),  // Mixed.
            0x4d78141bdbc0f2cdULL);
}

TEST(RStarTreeIdentityTest, DeleteDrivenReinsertionIsUnchanged) {
  const PaperWorkload& workload = PaperMapsAtScale005();
  const RStarTree streets = BuildThenDeleteEveryThird(1, workload.store_r());
  const RStarTree mixed = BuildThenDeleteEveryThird(2, workload.store_s());
  ASSERT_TRUE(ValidateRTree(streets).ok());
  ASSERT_TRUE(ValidateRTree(mixed).ok());
  EXPECT_EQ(PageImageFingerprint(streets), 0xe6815c431fe10ff4ULL);
  EXPECT_EQ(PageImageFingerprint(mixed), 0xa89b3bbe22e84862ULL);
}

// Small fanouts and a hostile rectangle mix: exact duplicates, points and
// segments, rectangles touching or nested in the previous one, and
// 1.2e154-wide ones whose areas are finite but whose overlap sums overflow
// to infinity (the all-pairs fallback of ChooseSubtree), under interleaved
// inserts and deletes.
TEST(RStarTreeIdentityTest, HostileSmallFanoutWorkloadIsUnchanged) {
  RStarTree tree(3, SmallOptions());
  Rng rng(2026);
  std::vector<std::pair<Rect, uint64_t>> live;
  Rect prev(0.5, 0.5, 0.6, 0.6);
  for (uint64_t id = 0; id < 1500; ++id) {
    if (!live.empty() && rng.NextBool(0.25)) {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
      continue;
    }
    Rect r;
    switch (rng.NextBelow(7)) {
      case 0:
        r = prev;  // Exact duplicate.
        break;
      case 1: {  // Point.
        const double x = rng.NextDouble();
        const double y = rng.NextDouble();
        r = Rect(x, y, x, y);
        break;
      }
      case 2: {  // Horizontal segment.
        const double x = rng.NextDouble();
        const double y = rng.NextDouble();
        r = Rect(x, y, x + 0.05 * rng.NextDouble(), y);
        break;
      }
      case 3:  // Touching the previous one along its right edge.
        r = Rect(prev.xu, prev.yl, prev.xu + 0.01, prev.yu);
        break;
      case 4:  // Nested in the previous one.
        r = Rect(prev.xl + 0.25 * prev.Width(), prev.yl + 0.25 * prev.Height(),
                 prev.xu - 0.25 * prev.Width(), prev.yu - 0.25 * prev.Height());
        break;
      case 5:
        r = rng.NextBool(0.1) ? Rect(-6e153, -6e153, 6e153, 6e153)
                              : RandomRect(rng, 0.2);
        break;
      default:
        r = RandomRect(rng, 0.02);
        break;
    }
    tree.Insert(r, id);
    live.emplace_back(r, id);
    prev = r;
  }
  ASSERT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(PageImageFingerprint(tree), 0x22d0830cbdfbf0f3ULL);
}

class RStarTreeValiditySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarTreeValiditySweep, RandomWorkloadStaysValid) {
  RStarTree tree(1, SmallOptions());
  Rng rng(GetParam());
  std::vector<std::pair<Rect, uint64_t>> live;
  uint64_t next_id = 0;
  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.NextBool(0.7)) {
      const Rect r = RandomRect(rng, rng.NextBool(0.5) ? 0.002 : 0.2);
      tree.Insert(r, next_id);
      live.emplace_back(r, next_id++);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), static_cast<int64_t>(live.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarTreeValiditySweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace psj
