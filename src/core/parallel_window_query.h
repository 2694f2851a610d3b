#ifndef PSJ_CORE_PARALLEL_WINDOW_QUERY_H_
#define PSJ_CORE_PARALLEL_WINDOW_QUERY_H_

#include <optional>
#include <vector>

#include "core/join_config.h"
#include "core/join_stats.h"
#include "data/map_object.h"
#include "rtree/rstar_tree.h"
#include "util/statusor.h"

namespace psj {

/// Configuration of one parallel window query. A window query is the other
/// fundamental spatial operator (§1); the paper's conclusions name its
/// parallelization as future work — this implements it on the same
/// framework: subtrees intersecting the window become tasks in plane-sweep
/// order, assigned and reassigned exactly like join tasks.
struct WindowQueryConfig {
  int num_processors = 8;
  int num_disks = 8;
  size_t total_buffer_pages = 800;

  BufferType buffer_type = BufferType::kGlobal;
  TaskAssignment assignment = TaskAssignment::kDynamic;
  ReassignmentLevel reassignment = ReassignmentLevel::kAllLevels;
  VictimPolicy victim_policy = VictimPolicy::kMostLoaded;
  PagePlacement placement = PagePlacement::kModulo;

  CostModel costs;

  /// Task creation descends while the task count is below this factor
  /// times the processor count.
  double task_creation_factor = 3.0;

  bool use_path_buffer = true;
  /// Run the exact polyline-vs-window refinement test (requires the object
  /// store); the virtual waiting period is charged either way.
  bool compute_answers = true;
  /// Collect the candidate/answer object ids in the result.
  bool collect_ids = false;

  uint64_t seed = 7;

  /// Tie-break policy for equal-resume-time dispatches (see
  /// ParallelJoinConfig::tiebreak). Unset reads PSJ_SIM_TIEBREAK.
  std::optional<sim::TieBreak> tiebreak;

  /// Virtual-time race detector; null disables checking (see
  /// ParallelJoinConfig::check).
  check::AccessRegistry* check = nullptr;

  Status Validate() const;
};

/// Result of a parallel window query. `stats` reuses the join statistics
/// type: `candidates` are MBR hits (filter step), `answers` passed the
/// exact-geometry test against the window.
struct WindowQueryResult {
  JoinStats stats;
  std::vector<uint64_t> candidate_ids;  // Only with collect_ids.
  std::vector<uint64_t> answer_ids;     // Only with collect_ids + answers.
};

/// \brief Parallel window query over one R*-tree on the simulated
/// shared-virtual-memory multiprocessor (the paper's future-work operator).
class ParallelWindowQuery {
 public:
  /// `objects` may be null when `config.compute_answers` is false.
  ParallelWindowQuery(const RStarTree* tree, const ObjectStore* objects);

  /// Simulates one window query for `window` under `config`.
  StatusOr<WindowQueryResult> Run(const Rect& window,
                                  const WindowQueryConfig& config) const;

 private:
  const RStarTree* tree_;
  const ObjectStore* objects_;
};

}  // namespace psj

#endif  // PSJ_CORE_PARALLEL_WINDOW_QUERY_H_
