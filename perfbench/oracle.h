#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's own answers, computed apart from the program: a
// sort-and-sweep MBR join, brute-force window/point/k-NN/join-region
// queries and a segment-intersection refinement test. Every predicate is
// closed (touching counts), like the repository's Rect::Intersects.
// SelfCheck() pins each oracle on small hand-made inputs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geo/rect.h"

namespace perfbench {

/// Closed rectangle intersection: boundaries touching counts.
bool BoxesMeet(const psj::Rect& a, const psj::Rect& b);

/// All (i, j) with BoxesMeet(r[i], s[j]), by sorting both sides on the
/// lower x bound and sweeping; sorted by (i, j).
std::vector<std::pair<uint64_t, uint64_t>> SweepJoin(
    const std::vector<psj::Rect>& r, const std::vector<psj::Rect>& s);

/// Ids of the rectangles meeting `window`, ascending (a linear scan).
std::vector<uint64_t> BruteWindow(const std::vector<psj::Rect>& rects,
                                  const psj::Rect& window);

/// One k-NN answer: object id and MINDIST from the query point to its MBR.
struct Nearest {
  uint64_t id = 0;
  double distance = 0.0;
};
/// The k rectangles nearest to `p` by MINDIST, ascending, ties by id (a
/// linear scan).
std::vector<Nearest> BruteKnn(const std::vector<psj::Rect>& rects,
                              const psj::Point& p, size_t k);

/// The k nearest rectangles plus every further one tied with the k-th
/// distance, ascending by (distance, id): every valid k-NN answer is drawn
/// from this list.
std::vector<Nearest> BruteKnnWithTies(const std::vector<psj::Rect>& rects,
                                      const psj::Point& p, size_t k);

/// How a k-NN answer compares with BruteKnnWithTies(..., k).
enum class KnnVerdict {
  kExact,       // Equal to the first k entries: ties ordered by id.
  kTieOrder,    // Right distances and right objects up to the choice and
                // order among equal distances.
  kWrong,
};
KnnVerdict CheckKnn(const std::vector<Nearest>& with_ties, size_t k,
                    const std::vector<Nearest>& got);

/// True iff the three closed rectangles share a point.
bool ThreeBoxesMeet(const psj::Rect& a, const psj::Rect& b,
                    const psj::Rect& c);

/// True iff the closed segments a0-a1 and b0-b1 share a point.
bool SegmentsMeet(const psj::Point& a0, const psj::Point& a1,
                  const psj::Point& b0, const psj::Point& b1);

/// True iff any segment of `a` meets any segment of `b`; a one-point chain
/// is a zero-length segment. Empty chains meet nothing.
bool ChainsMeet(const std::vector<psj::Point>& a,
                const std::vector<psj::Point>& b);

/// \brief A sorted, duplicate-free pair set indexed by its first id, for
/// O(1)-per-pair set-equality checks of large join results.
class PairIndex {
 public:
  PairIndex() = default;
  /// `pairs` must be sorted and duplicate-free.
  PairIndex(std::vector<std::pair<uint64_t, uint64_t>> pairs,
            size_t num_first_ids);

  /// Position of (a, b) in pairs(), or -1.
  int64_t Find(uint64_t a, uint64_t b) const;
  const std::vector<std::pair<uint64_t, uint64_t>>& pairs() const {
    return pairs_;
  }
  size_t size() const { return pairs_.size(); }
  /// Heap bytes held.
  size_t bytes() const {
    return pairs_.capacity() * sizeof(pairs_[0]) +
           offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;
  std::vector<uint32_t> offsets_;  // By first id, into pairs_.
};

/// \brief Set-equality of pair lists against a PairIndex (optionally only
/// the members selected by `mask`). Duplicates in the checked list collapse,
/// as in a set comparison. Not thread-safe; one checker per thread.
class SetChecker {
 public:
  explicit SetChecker(const PairIndex* index,
                      const std::vector<bool>* mask = nullptr);
  bool Equal(const std::vector<std::pair<uint64_t, uint64_t>>& got);
  /// Heap bytes held.
  size_t bytes() const { return stamp_.capacity() * sizeof(uint32_t); }

 private:
  const PairIndex* index_;
  const std::vector<bool>* mask_;
  size_t expected_ = 0;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;
};

/// Runs every oracle on hand-made inputs (touching edges, duplicates,
/// zero-area rectangles, collinear and zero-length segments) against
/// hand-computed answers. Returns an empty string when all pass, otherwise
/// a description of the first failure.
std::string SelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
