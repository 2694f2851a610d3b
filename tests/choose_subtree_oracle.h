#ifndef PSJ_TESTS_CHOOSE_SUBTREE_ORACLE_H_
#define PSJ_TESTS_CHOOSE_SUBTREE_ORACLE_H_

#include <cstddef>
#include <limits>
#include <span>

#include "geo/rect.h"
#include "rtree/node.h"

namespace psj {

/// The R* CS2 choice exactly as insertion evaluated it before the pruned
/// kernel: both overlap sums over every other entry, for every entry, and a
/// running lexicographic minimum of (overlap delta, area delta, area) with
/// strict comparisons (ties keep the lower index; a NaN key never wins).
/// Kept verbatim as the differential reference for
/// ChooseLeastOverlapEnlargement; do not optimize it.
inline size_t ChooseLeastOverlapEnlargementOracle(
    std::span<const RTreeEntry> entries, const Rect& rect) {
  size_t best = 0;
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_area_delta = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    const Rect& candidate = entries[i].rect;
    const Rect enlarged = candidate.UnionWith(rect);
    double overlap_before = 0.0;
    double overlap_after = 0.0;
    for (size_t j = 0; j < entries.size(); ++j) {
      if (j == i) continue;
      overlap_before += candidate.IntersectionArea(entries[j].rect);
      overlap_after += enlarged.IntersectionArea(entries[j].rect);
    }
    const double overlap_delta = overlap_after - overlap_before;
    const double area_delta = candidate.Enlargement(rect);
    const double area = candidate.Area();
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)))) {
      best = i;
      best_overlap_delta = overlap_delta;
      best_area_delta = area_delta;
      best_area = area;
    }
  }
  return best;
}

}  // namespace psj

#endif  // PSJ_TESTS_CHOOSE_SUBTREE_ORACLE_H_
