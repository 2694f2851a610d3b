#include "rtree/choose_subtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

// The exactness argument in choose_subtree.h needs every product and sum
// rounded on its own: psj_rtree is compiled with -ffp-contract=off, so no
// compiler fuses `sum += w * h` into an FMA. This file also gets
// -fno-trapping-math, which changes no value but lets GCC if-convert the
// comparisons of the overlap loop and vectorize it.

namespace psj {
namespace {

// CS2 by its definition: both overlap sums for every entry. Used when a
// non-finite value voids the pruned path's exactness argument.
size_t ChooseAllPairs(std::span<const RTreeEntry> entries, const Rect& rect) {
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

}  // namespace

size_t ChooseLeastOverlapEnlargement(std::span<const RTreeEntry> entries,
                                     const Rect& rect,
                                     ChooseSubtreeScratch* scratch) {
  const size_t m = entries.size();
  PSJ_CHECK_GT(m, 0u);
  ChooseSubtreeScratch& s = *scratch;
  if (s.xl.size() < m) {
    for (auto* plane : {&s.xl, &s.yl, &s.xu, &s.yu, &s.area, &s.area_delta,
                        &s.overlap_after}) {
      plane->resize(m);
    }
    s.order.resize(m);
    s.kept.resize(m);
  }
  double* const xl = s.xl.data();
  double* const yl = s.yl.data();
  double* const xu = s.xu.data();
  double* const yu = s.yu.data();
  double* const area = s.area.data();
  double* const area_delta = s.area_delta.data();
  // Every overlap term with entry j is at most area[j], and rounded
  // addition is monotone, so a finite total bounds every overlap sum.
  double total_area = 0.0;
  bool finite = true;
  for (size_t j = 0; j < m; ++j) {
    const Rect& c = entries[j].rect;
    xl[j] = c.xl;
    yl[j] = c.yl;
    xu[j] = c.xu;
    yu[j] = c.yu;
    area[j] = c.Area();
    area_delta[j] = c.Enlargement(rect);
    total_area += area[j];
    finite &= std::isfinite(area_delta[j]);
  }
  if (!finite || !std::isfinite(total_area)) {
    return ChooseAllPairs(entries, rect);
  }

  // Candidates leave a heap in (area_delta, area, index) order; most
  // calls stop after a few, so ordering lazily beats sorting all m.
  uint32_t* const order = s.order.data();
  for (size_t j = 0; j < m; ++j) order[j] = static_cast<uint32_t>(j);
  const auto later = [area, area_delta](uint32_t a, uint32_t b) {
    if (area_delta[a] != area_delta[b]) return area_delta[a] > area_delta[b];
    if (area[a] != area[b]) return area[a] > area[b];
    return a > b;
  };
  std::make_heap(order, order + m, later);

  double* const after = s.overlap_after.data();
  uint32_t* const kept = s.kept.data();
  size_t best = 0;
  double best_delta = std::numeric_limits<double>::infinity();
  for (size_t left = m; left > 0; --left) {
    std::pop_heap(order, order + left, later);
    const uint32_t i = order[left - 1];
    const Rect& candidate = entries[i].rect;
    if (candidate.Contains(rect)) return i;  // Delta exactly +0.0.
    const Rect enlarged = candidate.UnionWith(rect);
    // enlarged.IntersectionArea(entry j) for every j, vectorized.
    for (size_t j = 0; j < m; ++j) {
      const double w =
          std::min(enlarged.xu, xu[j]) - std::max(enlarged.xl, xl[j]);
      const double h =
          std::min(enlarged.yu, yu[j]) - std::max(enlarged.yl, yl[j]);
      after[j] = (w > 0.0 && h > 0.0) ? w * h : 0.0;
    }
    size_t num_kept = 0;
    for (size_t j = 0; j < m; ++j) {
      kept[num_kept] = static_cast<uint32_t>(j);
      num_kept += static_cast<size_t>((after[j] != 0.0) & (j != i));
    }
    double overlap_before = 0.0;
    double overlap_after = 0.0;
    for (size_t t = 0; t < num_kept; ++t) {
      const uint32_t j = kept[t];
      overlap_before += candidate.IntersectionArea(entries[j].rect);
      overlap_after += after[j];
    }
    const double overlap_delta = overlap_after - overlap_before;
    if (overlap_delta == 0.0) return i;
    if (overlap_delta < best_delta) {
      best = i;
      best_delta = overlap_delta;
    }
  }
  return best;
}

}  // namespace psj
