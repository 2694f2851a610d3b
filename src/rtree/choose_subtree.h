#ifndef PSJ_RTREE_CHOOSE_SUBTREE_H_
#define PSJ_RTREE_CHOOSE_SUBTREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"

namespace psj {

/// Reusable buffers of ChooseLeastOverlapEnlargement, sized to the largest
/// node seen, so steady-state insertions allocate nothing.
struct ChooseSubtreeScratch {
  // SoA copy of the node's rectangles.
  std::vector<double> xl, yl, xu, yu;
  std::vector<double> area, area_delta;
  // IntersectionArea(enlarged candidate, entry j) for every j.
  std::vector<double> overlap_after;
  // Candidates in (area_delta, area, index) order.
  std::vector<uint32_t> order;
  // The j whose overlap_after term is nonzero, ascending.
  std::vector<uint32_t> kept;
};

/// \brief The R* ChooseSubtree criterion CS2 [BKSS 90] among the children
/// of a node whose children are leaves: the index of the entry whose
/// enlargement by `rect` adds the least overlap with its siblings, ties by
/// least area enlargement, then least area, then lowest index.
///
/// The overlap delta of entry i is Σ_{j≠i} |e_i ∩ c_j| − Σ_{j≠i} |c_i ∩ c_j|,
/// both sums taken in ascending j, where c_i is the entry's rectangle and
/// e_i = c_i ∪ rect. The result is bit-identical to evaluating that
/// definition for every entry (the all-pairs loop in
/// tests/choose_subtree_oracle.h), at a fraction of its 2·m² intersection
/// areas:
///
/// - Every term of the second sum is <= the matching term of the first, and
///   rounded addition and subtraction are monotone, so each delta is >= 0.
///   Candidates are therefore evaluated in (area_delta, area, index) order
///   and the first delta of exactly 0 wins outright.
/// - A candidate containing `rect` has e_i == c_i bit for bit, hence a delta
///   of exactly +0.0 without evaluating either sum.
/// - A j with |e_i ∩ c_j| == +0.0 also has |c_i ∩ c_j| == +0.0 (c_i ⊆ e_i),
///   and adding +0.0 leaves a non-negative sum unchanged, so such j are
///   skipped; the kept terms are still added in ascending j.
///
/// These facts hold only while no value is infinite or NaN: a containing
/// candidate whose two sums both overflow has the delta inf − inf = NaN,
/// not +0.0. Every overlap term with entry j is at most area_j, so the
/// pruned path runs only when every enlargement and the rounded total
/// Σ_j area_j are finite; otherwise (±inf coordinates, or huge ones whose
/// products or sums overflow) the function falls back to the all-pairs
/// loop, which also keeps NaN out of the sort keys.
size_t ChooseLeastOverlapEnlargement(std::span<const RTreeEntry> entries,
                                     const Rect& rect,
                                     ChooseSubtreeScratch* scratch);

}  // namespace psj

#endif  // PSJ_RTREE_CHOOSE_SUBTREE_H_
