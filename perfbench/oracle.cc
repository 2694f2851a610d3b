#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>

namespace perfbench {

using psj::Point;
using psj::Rect;
using PairList = std::vector<std::pair<uint64_t, uint64_t>>;

bool BoxesMeet(const Rect& a, const Rect& b) {
  return !(a.xu < b.xl || b.xu < a.xl || a.yu < b.yl || b.yu < a.yl);
}

PairList SweepJoin(const std::vector<Rect>& r, const std::vector<Rect>& s) {
  const auto by_xl = [](const std::vector<Rect>& rects) {
    std::vector<uint32_t> order(rects.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return rects[a].xl != rects[b].xl ? rects[a].xl < rects[b].xl : a < b;
    });
    return order;
  };
  const std::vector<uint32_t> ir = by_xl(r);
  const std::vector<uint32_t> is = by_xl(s);
  const auto y_meet = [](const Rect& a, const Rect& b) {
    return !(a.yu < b.yl || b.yu < a.yl);
  };
  PairList out;
  size_t i = 0;
  size_t j = 0;
  // The side with the smaller lower x bound is the sweep line's next stop;
  // it meets exactly those rectangles of the other side whose lower x bound
  // lies in its x extent and whose y extents overlap its own. Each pair is
  // found once: at whichever of its two rectangles the line reaches first.
  while (i < ir.size() && j < is.size()) {
    if (r[ir[i]].xl <= s[is[j]].xl) {
      const Rect& a = r[ir[i]];
      for (size_t k = j; k < is.size() && s[is[k]].xl <= a.xu; ++k) {
        if (y_meet(a, s[is[k]])) out.emplace_back(ir[i], is[k]);
      }
      ++i;
    } else {
      const Rect& b = s[is[j]];
      for (size_t k = i; k < ir.size() && r[ir[k]].xl <= b.xu; ++k) {
        if (y_meet(r[ir[k]], b)) out.emplace_back(ir[k], is[j]);
      }
      ++j;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> BruteWindow(const std::vector<Rect>& rects,
                                  const Rect& window) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (BoxesMeet(rects[i], window)) ids.push_back(i);
  }
  return ids;
}

namespace {

bool NearestFirst(const Nearest& a, const Nearest& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

// MINDIST from `p` to every rectangle, by id.
std::vector<Nearest> AllDistances(const std::vector<Rect>& rects,
                                  const Point& p) {
  std::vector<Nearest> all(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    const Rect& b = rects[i];
    const double dx = p.x < b.xl ? b.xl - p.x : (p.x > b.xu ? p.x - b.xu : 0.0);
    const double dy = p.y < b.yl ? b.yl - p.y : (p.y > b.yu ? p.y - b.yu : 0.0);
    all[i] = Nearest{i, std::sqrt(dx * dx + dy * dy)};
  }
  return all;
}

}  // namespace

std::vector<Nearest> BruteKnn(const std::vector<Rect>& rects, const Point& p,
                              size_t k) {
  std::vector<Nearest> all = AllDistances(rects, p);
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                    all.end(), NearestFirst);
  all.resize(k);
  return all;
}

std::vector<Nearest> BruteKnnWithTies(const std::vector<Rect>& rects,
                                      const Point& p, size_t k) {
  std::vector<Nearest> all = AllDistances(rects, p);
  k = std::min(k, all.size());
  if (k == 0) return {};
  std::nth_element(all.begin(), all.begin() + static_cast<long>(k - 1),
                   all.end(), NearestFirst);
  const double kth = all[k - 1].distance;
  std::vector<Nearest> out;
  for (const Nearest& n : all) {
    if (n.distance <= kth) out.push_back(n);
  }
  std::sort(out.begin(), out.end(), NearestFirst);
  return out;
}

KnnVerdict CheckKnn(const std::vector<Nearest>& with_ties, size_t k,
                    const std::vector<Nearest>& got) {
  const size_t n = std::min(k, with_ties.size());
  if (got.size() != n) return KnnVerdict::kWrong;
  bool exact = true;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < n; ++i) {
    if (got[i].distance != with_ties[i].distance) return KnnVerdict::kWrong;
    exact = exact && got[i].id == with_ties[i].id;
    // The object must be one of those at exactly this distance.
    bool found = false;
    for (const Nearest& t : with_ties) {
      found = found || (t.id == got[i].id && t.distance == got[i].distance);
    }
    if (!found) return KnnVerdict::kWrong;
    ids.push_back(got[i].id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return KnnVerdict::kWrong;
  }
  return exact ? KnnVerdict::kExact : KnnVerdict::kTieOrder;
}

bool ThreeBoxesMeet(const Rect& a, const Rect& b, const Rect& c) {
  return std::max({a.xl, b.xl, c.xl}) <= std::min({a.xu, b.xu, c.xu}) &&
         std::max({a.yl, b.yl, c.yl}) <= std::min({a.yu, b.yu, c.yu});
}

namespace {

// Sign of the turn o -> p -> q: +1 left, -1 right, 0 straight.
int Turn(const Point& o, const Point& p, const Point& q) {
  const double cross = (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x);
  return (cross > 0.0) - (cross < 0.0);
}

// For q collinear with p0-p1: whether q lies within the segment's box.
bool WithinBox(const Point& p0, const Point& p1, const Point& q) {
  return q.x >= std::min(p0.x, p1.x) && q.x <= std::max(p0.x, p1.x) &&
         q.y >= std::min(p0.y, p1.y) && q.y <= std::max(p0.y, p1.y);
}

}  // namespace

bool SegmentsMeet(const Point& a0, const Point& a1, const Point& b0,
                  const Point& b1) {
  const int t1 = Turn(a0, a1, b0);
  const int t2 = Turn(a0, a1, b1);
  const int t3 = Turn(b0, b1, a0);
  const int t4 = Turn(b0, b1, a1);
  // Strict straddle both ways: a proper crossing.
  if (t1 * t2 < 0 && t3 * t4 < 0) return true;
  // Otherwise they meet only where an endpoint lies on the other segment.
  return (t1 == 0 && WithinBox(a0, a1, b0)) ||
         (t2 == 0 && WithinBox(a0, a1, b1)) ||
         (t3 == 0 && WithinBox(b0, b1, a0)) ||
         (t4 == 0 && WithinBox(b0, b1, a1));
}

bool ChainsMeet(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.empty() || b.empty()) return false;
  const size_t na = std::max<size_t>(1, a.size() - 1);
  const size_t nb = std::max<size_t>(1, b.size() - 1);
  for (size_t i = 0; i < na; ++i) {
    const Point& a1 = a[std::min(i + 1, a.size() - 1)];
    for (size_t j = 0; j < nb; ++j) {
      if (SegmentsMeet(a[i], a1, b[j], b[std::min(j + 1, b.size() - 1)])) {
        return true;
      }
    }
  }
  return false;
}

PairIndex::PairIndex(PairList pairs, size_t num_first_ids)
    : pairs_(std::move(pairs)), offsets_(num_first_ids + 1, 0) {
  for (const auto& p : pairs_) ++offsets_[p.first + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
}

int64_t PairIndex::Find(uint64_t a, uint64_t b) const {
  if (a + 1 >= offsets_.size()) return -1;
  for (uint32_t k = offsets_[a]; k < offsets_[a + 1]; ++k) {
    if (pairs_[k].second == b) return k;
  }
  return -1;
}

SetChecker::SetChecker(const PairIndex* index, const std::vector<bool>* mask)
    : index_(index), mask_(mask), stamp_(index->size(), 0) {
  expected_ = mask == nullptr
                  ? index->size()
                  : static_cast<size_t>(
                        std::count(mask->begin(), mask->end(), true));
}

bool SetChecker::Equal(const PairList& got) {
  ++epoch_;
  size_t distinct = 0;
  for (const auto& [a, b] : got) {
    const int64_t k = index_->Find(a, b);
    if (k < 0 || (mask_ != nullptr && !(*mask_)[static_cast<size_t>(k)])) {
      return false;
    }
    uint32_t& stamp = stamp_[static_cast<size_t>(k)];
    if (stamp != epoch_) {
      stamp = epoch_;
      ++distinct;
    }
  }
  return distinct == expected_;
}

namespace {

std::string Fail(const char* what) {
  return std::string("self-check: ") + what;
}

std::string CheckBoxes() {
  const Rect unit(0, 0, 1, 1);
  if (!BoxesMeet(unit, Rect(1, 0, 2, 1))) return Fail("shared edge");
  if (!BoxesMeet(unit, Rect(1, 1, 2, 2))) return Fail("shared corner");
  if (BoxesMeet(unit, Rect(1.000001, 0, 2, 1))) return Fail("gap");
  if (!BoxesMeet(unit, Rect(0.5, 0.5, 0.5, 0.5))) return Fail("inner point");
  if (!BoxesMeet(unit, Rect(1, 0.5, 1, 0.5))) return Fail("point on edge");
  if (!BoxesMeet(Rect(0, 2, 3, 2), Rect(1, 1, 2, 3))) return Fail("line box");
  if (!ThreeBoxesMeet(unit, Rect(1, 1, 2, 2), Rect(1, 1, 1, 1))) {
    return Fail("three boxes at a corner");
  }
  if (ThreeBoxesMeet(unit, Rect(1, 1, 2, 2), Rect(0, 0, 0.5, 0.5))) {
    return Fail("three boxes, one apart");
  }
  return "";
}

std::string CheckJoinAndQueries() {
  // r: 0 unit square, 1 diagonal neighbour, 2 duplicate of 0, 3 a point.
  const std::vector<Rect> r = {Rect(0, 0, 1, 1), Rect(1, 1, 2, 2),
                               Rect(0, 0, 1, 1), Rect(5, 5, 5, 5)};
  // s: 0 touches r0/r2 on x = 1 and r1 on y = 1, 1 the same point as r3,
  // 2 apart from everything, 3 a vertical zero-width line on x = 0.
  const std::vector<Rect> s = {Rect(1, 0, 2, 1), Rect(5, 5, 5, 5),
                               Rect(3, 3, 4, 4), Rect(0, -1, 0, 3)};
  const PairList expected = {{0, 0}, {0, 3}, {1, 0}, {2, 0}, {2, 3}, {3, 1}};
  if (SweepJoin(r, s) != expected) return Fail("hand-made sweep join");
  if (SweepJoin(s, r).size() != expected.size()) {
    return Fail("sweep join is not symmetric");
  }
  // Many ties: coordinates on a coarse grid, a third of them zero-width.
  std::mt19937_64 rng(7);
  const auto grid_rects = [&rng](size_t n) {
    std::vector<Rect> out;
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(rng() % 10);
      const double y = static_cast<double>(rng() % 10);
      const double w = static_cast<double>(rng() % 3);
      const double h = i % 3 == 0 ? 0.0 : static_cast<double>(rng() % 3);
      out.emplace_back(x, y, x + w, y + h);
    }
    return out;
  };
  const std::vector<Rect> gr = grid_rects(300);
  const std::vector<Rect> gs = grid_rects(250);
  PairList nested;
  for (uint64_t i = 0; i < gr.size(); ++i) {
    for (uint64_t j = 0; j < gs.size(); ++j) {
      if (BoxesMeet(gr[i], gs[j])) nested.emplace_back(i, j);
    }
  }
  if (SweepJoin(gr, gs) != nested) return Fail("grid sweep join");

  if (BruteWindow(r, Rect(1, 1, 1, 1)) != std::vector<uint64_t>{0, 1, 2}) {
    return Fail("point window on shared corner");
  }
  if (BruteWindow(r, Rect(4, 4, 6, 6)) != std::vector<uint64_t>{3}) {
    return Fail("window around a zero-area rectangle");
  }

  // k-NN: ids 1 and 3 are duplicates; 0, 1 and 3 tie at distance 0.5.
  const std::vector<Rect> k = {Rect(0, 0, 1, 1), Rect(2, 0, 3, 1),
                               Rect(-2, 0, -1, 1), Rect(2, 0, 3, 1),
                               Rect(1.5, 0.5, 1.5, 0.5)};
  const auto ids = [](const std::vector<Nearest>& n) {
    std::vector<uint64_t> out;
    for (const Nearest& x : n) out.push_back(x.id);
    return out;
  };
  const std::vector<Nearest> k4 = BruteKnn(k, Point{1.5, 0.5}, 4);
  if (ids(k4) != std::vector<uint64_t>{4, 0, 1, 3} ||
      k4[0].distance != 0.0 || k4[3].distance != 0.5) {
    return Fail("k-NN ties by id");
  }
  if (ids(BruteKnn(k, Point{1.5, 0.5}, 10)) !=
      std::vector<uint64_t>{4, 0, 1, 3, 2}) {
    return Fail("k-NN with k above the input size");
  }
  const std::vector<Nearest> ties = BruteKnnWithTies(k, Point{1.5, 0.5}, 2);
  if (ids(ties) != std::vector<uint64_t>{4, 0, 1, 3}) {
    return Fail("k-NN ties at the k-th distance");
  }
  const auto answer = [](std::vector<uint64_t> order) {
    std::vector<Nearest> out;
    for (size_t i = 0; i < order.size(); ++i) {
      out.push_back(Nearest{order[i], i == 0 ? 0.0 : 0.5});
    }
    return out;
  };
  if (CheckKnn(ties, 3, answer({4, 0, 1})) != KnnVerdict::kExact ||
      CheckKnn(ties, 3, answer({4, 3, 0})) != KnnVerdict::kTieOrder ||
      CheckKnn(ties, 3, answer({4, 1, 1})) != KnnVerdict::kWrong ||
      CheckKnn(ties, 3, answer({4, 2, 0})) != KnnVerdict::kWrong ||
      CheckKnn(ties, 3, answer({0, 4, 1})) != KnnVerdict::kWrong ||
      CheckKnn(ties, 3, answer({4, 0})) != KnnVerdict::kWrong) {
    return Fail("k-NN verdicts");
  }
  return "";
}

std::string CheckSegments() {
  const auto P = [](double x, double y) { return Point{x, y}; };
  struct Case {
    Point a0, a1, b0, b1;
    bool meet;
    const char* what;
  };
  const Case cases[] = {
      {P(0, 0), P(2, 2), P(0, 2), P(2, 0), true, "proper crossing"},
      {P(0, 0), P(2, 0), P(1, 0), P(1, 1), true, "T-junction"},
      {P(0, 0), P(1, 1), P(1, 1), P(2, 0), true, "shared endpoint"},
      {P(0, 0), P(2, 0), P(1, 0), P(3, 0), true, "collinear overlap"},
      {P(0, 0), P(1, 0), P(1, 0), P(2, 0), true, "collinear touch"},
      {P(0, 0), P(1, 0), P(2, 0), P(3, 0), false, "collinear apart"},
      {P(0, 0), P(1, 0), P(0, 1), P(1, 1), false, "parallel"},
      {P(0, 0), P(1, 0), P(0.5, 0.1), P(0.5, 1), false, "near miss"},
      {P(0.5, 0), P(0.5, 0), P(0, 0), P(1, 0), true, "point on segment"},
      {P(0.5, 0.1), P(0.5, 0.1), P(0, 0), P(1, 0), false, "point off"},
      {P(2, 0), P(2, 0), P(0, 0), P(1, 0), false, "point on extension"},
      {P(3, 3), P(3, 3), P(3, 3), P(3, 3), true, "same point"},
      {P(3, 3), P(3, 3), P(3, 4), P(3, 4), false, "two points"},
  };
  for (const Case& c : cases) {
    if (SegmentsMeet(c.a0, c.a1, c.b0, c.b1) != c.meet ||
        SegmentsMeet(c.b0, c.b1, c.a0, c.a1) != c.meet) {
      return Fail(c.what);
    }
  }
  const std::vector<Point> chain = {P(0, 0), P(1, 0), P(1, 1)};
  if (!ChainsMeet(chain, {P(2, 2), P(1, 1)})) return Fail("chains touch");
  if (ChainsMeet(chain, {P(0.5, 0.5)})) return Fail("point chain apart");
  if (!ChainsMeet(chain, {P(1, 0.5)})) return Fail("point chain on chain");
  if (ChainsMeet(chain, {})) return Fail("empty chain");
  return "";
}

std::string CheckSetChecker() {
  const PairIndex index({{0, 1}, {0, 3}, {2, 2}}, 3);
  SetChecker all(&index);
  if (!all.Equal({{2, 2}, {0, 1}, {0, 3}})) return Fail("set order");
  if (!all.Equal({{2, 2}, {0, 1}, {0, 3}, {0, 1}})) return Fail("duplicate");
  if (all.Equal({{2, 2}, {0, 1}})) return Fail("missing pair");
  if (all.Equal({{2, 2}, {0, 1}, {0, 3}, {1, 1}})) return Fail("extra pair");
  if (all.Equal({{2, 2}, {0, 1}, {0, 3}, {7, 1}})) return Fail("unknown id");
  const std::vector<bool> mask = {true, false, true};
  SetChecker masked(&index, &mask);
  if (!masked.Equal({{0, 1}, {2, 2}})) return Fail("masked subset");
  if (masked.Equal({{0, 1}, {0, 3}, {2, 2}})) return Fail("masked extra");
  return "";
}

}  // namespace

std::string SelfCheck() {
  for (std::string (*check)() :
       {CheckBoxes, CheckJoinAndQueries, CheckSegments, CheckSetChecker}) {
    std::string failure = check();
    if (!failure.empty()) return failure;
  }
  return "";
}

}  // namespace perfbench
