// Differential test of the pruned R* CS2 kernel against the all-pairs
// oracle: the chosen child must be the same on every node, including
// hostile ones (duplicates, zero-area, touching, nested, 1e300-sized and
// ±inf rectangles, one- and two-entry nodes), because insertion-built
// trees — and with them the goldens — depend on it page for page.

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "choose_subtree_oracle.h"
#include "core/experiment.h"
#include "rtree/choose_subtree.h"
#include "util/rng.h"

namespace psj {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

size_t Pruned(const std::vector<RTreeEntry>& entries, const Rect& rect) {
  ChooseSubtreeScratch scratch;
  return ChooseLeastOverlapEnlargement(std::span<const RTreeEntry>(entries),
                                       rect, &scratch);
}

size_t Oracle(const std::vector<RTreeEntry>& entries, const Rect& rect) {
  return ChooseLeastOverlapEnlargementOracle(
      std::span<const RTreeEntry>(entries), rect);
}

std::vector<RTreeEntry> Node(const std::vector<Rect>& rects) {
  std::vector<RTreeEntry> entries;
  for (size_t i = 0; i < rects.size(); ++i) {
    entries.push_back(RTreeEntry{rects[i], 100 + i});
  }
  return entries;
}

// Coordinates on a 1/8 grid make exact ties in area and enlargement common.
double GridCoord(Rng& rng) {
  return static_cast<double>(rng.NextBelow(9)) / 8.0;
}

// One rectangle of a hostile mix; `node` supplies the earlier entries that
// duplicates, touching and nested rectangles refer to. Without
// `non_finite`, huge and infinite rectangles are left out, so that large
// nodes also reach the pruned path and not only the all-pairs fallback.
Rect HostileRect(Rng& rng, const std::vector<RTreeEntry>& node,
                 bool non_finite) {
  const Rect prev = node.empty() ? Rect(0.25, 0.25, 0.5, 0.5)
                                 : node[rng.NextBelow(node.size())].rect;
  uint64_t kind = rng.NextBelow(14);
  if (!non_finite && (kind == 7 || kind == 8)) kind = 10;
  switch (kind) {
    case 0:
      return prev;  // Duplicate.
    case 1: {  // Point.
      const double x = GridCoord(rng);
      const double y = GridCoord(rng);
      return Rect(x, y, x, y);
    }
    case 2: {  // Vertical segment.
      const double x = GridCoord(rng);
      const double y = GridCoord(rng);
      return Rect(x, y, x, y + GridCoord(rng));
    }
    case 3:  // Touching prev along its top edge.
      return Rect(prev.xl, prev.yu, prev.xu, prev.yu + 0.125);
    case 4:  // Touching prev at its upper-right corner.
      return Rect(prev.xu, prev.yu, prev.xu + 0.25, prev.yu + 0.25);
    case 5:  // Nested in prev.
      return Rect(prev.xl + prev.Width() / 4, prev.yl + prev.Height() / 4,
                  prev.xu - prev.Width() / 4, prev.yu - prev.Height() / 4);
    case 6:  // prev grown by a grid step: contains it.
      return Rect(prev.xl - 0.125, prev.yl - 0.125, prev.xu + 0.125,
                  prev.yu + 0.125);
    case 7: {  // Huge: areas overflow to inf.
      const double e = rng.NextBool(0.5) ? 1e300 : 6e153;
      return Rect(-e, -e, rng.NextBool(0.5) ? e : 0.5, e);
    }
    case 8: {  // Infinite, whole or half-plane, or an infinite segment.
      switch (rng.NextBelow(4)) {
        case 0:
          return Rect(-kInf, -kInf, kInf, kInf);
        case 1:
          return Rect(GridCoord(rng), -kInf, kInf, GridCoord(rng) + 1.0);
        case 2:
          return Rect(-kInf, 0.5, kInf, 0.5);
        default:
          return Rect(0.25, 0.25, kInf, 0.75);
      }
    }
    case 9: {  // Tiny: intersection products underflow to +0.0.
      const double x = rng.NextDouble();
      const double y = rng.NextDouble();
      return Rect(x, y, x + 1e-170, y + 1e-170);
    }
    case 10:
    case 11: {  // Grid-aligned box.
      const double x = GridCoord(rng);
      const double y = GridCoord(rng);
      return Rect(x, y, x + GridCoord(rng), y + GridCoord(rng));
    }
    default: {  // Ordinary small box.
      const double x = rng.NextDouble();
      const double y = rng.NextDouble();
      return Rect(x, y, x + 0.1 * rng.NextDouble(), y + 0.1 * rng.NextDouble());
    }
  }
}

TEST(ChooseSubtreeTest, OneEntryNodeChoosesIt) {
  const auto node = Node({Rect(0, 0, 1, 1)});
  EXPECT_EQ(Pruned(node, Rect(5, 5, 6, 6)), 0u);
  EXPECT_EQ(Pruned(node, Rect(-kInf, -kInf, kInf, kInf)), 0u);
}

TEST(ChooseSubtreeTest, TwoEqualEntriesTieToTheFirst) {
  const auto node = Node({Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)});
  EXPECT_EQ(Pruned(node, Rect(2, 2, 3, 3)), 0u);
  EXPECT_EQ(Pruned(node, Rect(0.5, 0.5, 0.5, 0.5)), 0u);
}

TEST(ChooseSubtreeTest, SmallestContainingEntryWins) {
  const auto node =
      Node({Rect(0, 0, 4, 4), Rect(1, 1, 3, 3), Rect(5, 5, 6, 6)});
  EXPECT_EQ(Pruned(node, Rect(1.5, 1.5, 2, 2)), 1u);
  EXPECT_EQ(Oracle(node, Rect(1.5, 1.5, 2, 2)), 1u);
}

TEST(ChooseSubtreeTest, ZeroAreaCandidateBeatsContainingOne) {
  // Entry 1 is a segment on y = 0.5 that the new segment extends: its
  // enlarged rectangle still has zero area, so its delta is 0 with area 0,
  // ahead of the box that contains the new segment.
  const auto node = Node({Rect(0, 0, 1, 1), Rect(0.2, 0.5, 0.4, 0.5)});
  const Rect segment(0.3, 0.5, 0.6, 0.5);
  EXPECT_EQ(Oracle(node, segment), 1u);
  EXPECT_EQ(Pruned(node, segment), 1u);
}

TEST(ChooseSubtreeTest, LeastOverlapEnlargementBeatsLeastAreaEnlargement) {
  // Growing entry 0 to the right would overlap entry 1; entry 2 needs more
  // area but overlaps nothing.
  const auto node =
      Node({Rect(0, 0, 1, 1), Rect(1.5, 0, 2.5, 1), Rect(0, 1.6, 3, 2)});
  const Rect rect(1.2, 0.5, 1.8, 1.5);
  EXPECT_EQ(Oracle(node, rect), Pruned(node, rect));
}

TEST(ChooseSubtreeTest, NonFiniteNodesMatchTheOracle) {
  const std::vector<std::vector<Rect>> nodes = {
      {Rect(-kInf, -kInf, kInf, kInf), Rect(0, 0, 1, 1)},
      {Rect(0, 0, 1, 1), Rect(-kInf, -kInf, kInf, kInf)},
      {Rect(-1e300, -1e300, 1e300, 1e300), Rect(-1e300, -1e300, 1e300, 1e300),
       Rect(0, 0, 1, 1)},
      {Rect(-6e153, -6e153, 6e153, 6e153), Rect(-6e153, -6e153, 6e153, 6e153),
       Rect(-6e153, -6e153, 6e153, 6e153), Rect(0, 0, 1, 1)},
      {Rect(-kInf, 0.5, kInf, 0.5), Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)},
  };
  const std::vector<Rect> queries = {
      Rect(0.5, 0.5, 0.6, 0.6), Rect(5, 5, 5, 5),
      Rect(-kInf, -kInf, kInf, kInf), Rect(-1e300, 0, 1e300, 1),
      Rect(0, 0, kInf, 0)};
  for (size_t n = 0; n < nodes.size(); ++n) {
    const auto node = Node(nodes[n]);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(Pruned(node, queries[q]), Oracle(node, queries[q]))
          << "node " << n << " query " << q;
    }
  }
}

// Random hostile nodes of every size up to past the paper's fanout of 102,
// with one scratch reused across calls as insertion reuses it.
TEST(ChooseSubtreeTest, HostileNodesMatchTheOracle) {
  Rng rng(13);
  ChooseSubtreeScratch scratch;
  const size_t sizes[] = {1, 2, 3, 4, 8, 26, 51, 102, 103};
  int cases = 0;
  for (int round = 0; round < 400; ++round) {
    for (const size_t m : sizes) {
      const bool non_finite = round % 3 == 0;
      std::vector<RTreeEntry> node;
      for (size_t i = 0; i < m; ++i) {
        node.push_back(RTreeEntry{HostileRect(rng, node, non_finite), i});
      }
      for (int q = 0; q < 4; ++q) {
        const Rect rect = HostileRect(rng, node, non_finite);
        const size_t expected = Oracle(node, rect);
        const size_t actual = ChooseLeastOverlapEnlargement(
            std::span<const RTreeEntry>(node), rect, &scratch);
        ASSERT_EQ(actual, expected)
            << "round " << round << " m " << m << " query " << q << " "
            << rect.ToString();
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 400 * 9 * 4);
}

// Finite, clustered nodes where ties are rare and the pruned path must
// evaluate many candidates before it finds the minimum.
TEST(ChooseSubtreeTest, OverlappingClustersMatchTheOracle) {
  Rng rng(14);
  ChooseSubtreeScratch scratch;
  for (int round = 0; round < 300; ++round) {
    const size_t m = 2 + rng.NextBelow(101);
    std::vector<RTreeEntry> node;
    for (size_t i = 0; i < m; ++i) {
      const double x = rng.NextDoubleInRange(0.4, 0.6);
      const double y = rng.NextDoubleInRange(0.4, 0.6);
      node.push_back(RTreeEntry{
          Rect(x, y, x + rng.NextDoubleInRange(0.0, 0.2),
               y + rng.NextDoubleInRange(0.0, 0.2)),
          i});
    }
    for (int q = 0; q < 8; ++q) {
      const double x = rng.NextDouble();
      const double y = rng.NextDouble();
      const Rect rect(x, y, x + 0.05 * rng.NextDouble(),
                      y + 0.05 * rng.NextDouble());
      ASSERT_EQ(ChooseLeastOverlapEnlargement(
                    std::span<const RTreeEntry>(node), rect, &scratch),
                Oracle(node, rect))
          << "round " << round << " query " << q;
    }
  }
}

// The level-1 nodes of the insertion-built paper maps, probed with the
// maps' own object MBRs.
TEST(ChooseSubtreeTest, PaperMapNodesMatchTheOracle) {
  const PaperWorkload workload(PaperWorkloadSpec().Scaled(0.02));
  ChooseSubtreeScratch scratch;
  Rng rng(15);
  int checked = 0;
  for (const RStarTree* tree : {&workload.tree_r(), &workload.tree_s()}) {
    const auto& objects = tree == &workload.tree_r()
                              ? workload.store_r().objects()
                              : workload.store_s().objects();
    for (uint32_t p = 1; p < tree->num_pages(); ++p) {
      if (tree->IsFreePage(p) || tree->node(p).level != 1) continue;
      const EntryList& entries = tree->node(p).entries;
      const std::span<const RTreeEntry> node(entries.begin(), entries.size());
      for (int q = 0; q < 40; ++q) {
        const Rect rect = objects[rng.NextBelow(objects.size())].Mbr();
        ASSERT_EQ(ChooseLeastOverlapEnlargement(node, rect, &scratch),
                  ChooseLeastOverlapEnlargementOracle(node, rect))
            << "page " << p << " query " << q;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace psj
