#ifndef PSJ_RTREE_RSTAR_TREE_H_
#define PSJ_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <vector>

#include "geo/rect.h"
#include "rtree/choose_subtree.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"
#include "storage/page_file.h"
#include "util/statusor.h"

namespace psj {

/// Node-split algorithm. The R* split is the paper's choice; the quadratic
/// and linear splits of the original R-tree [Gut 84] are provided because
/// §2.2 notes the join "is directly applicable to the other members of the
/// family" — and the ablation benches quantify what the better tree buys.
enum class SplitAlgorithm {
  kRStar,      // Margin-driven axis choice, overlap-minimal index [BKSS 90].
  kQuadratic,  // Guttman's quadratic PickSeeds / PickNext.
  kLinear,     // Guttman's linear PickSeeds, least-enlargement assignment.
};

/// Subtree-choice policy during insertion.
enum class ChooseSubtreePolicy {
  kRStar,    // Overlap-minimal into leaf level, else least enlargement.
  kClassic,  // Guttman: least area enlargement on every level.
};

/// Structural parameters of an R*-tree. Defaults follow the paper (§4.1
/// page layout) and the R*-tree publication [BKSS 90] (40 % minimum fill,
/// 30 % forced reinsertion).
struct RTreeOptions {
  size_t max_dir_entries = kMaxDirEntries;    // 102 with 4 KB pages.
  size_t max_data_entries = kMaxDataEntries;  // 26 with 4 KB pages.
  double min_fill_fraction = 0.4;
  double reinsert_fraction = 0.3;
  /// Disables forced reinsertion (degenerates towards the original R-tree
  /// insertion behaviour); exposed for ablation experiments.
  bool enable_forced_reinsert = true;
  SplitAlgorithm split_algorithm = SplitAlgorithm::kRStar;
  ChooseSubtreePolicy choose_subtree = ChooseSubtreePolicy::kRStar;
  /// Seal() compacts every node's entries into one tree-level arena
  /// (replacing the per-node heap allocations) before building the SoA
  /// cache; disabled for the allocation-count ablation.
  bool arena_entry_storage = true;

  /// The original R-tree of [Gut 84]: quadratic split, least-enlargement
  /// subtree choice, no forced reinsertion, 40 % minimum fill.
  static RTreeOptions ClassicGuttman();
};

/// Shape statistics of a tree, matching the rows of the paper's Table 1.
struct RTreeShapeStats {
  int height = 0;
  int64_t num_data_entries = 0;
  int64_t num_data_pages = 0;
  int64_t num_dir_pages = 0;
  double avg_data_fill = 0.0;  // Average leaf occupancy / capacity.
  double avg_dir_fill = 0.0;
  Rect root_mbr = Rect::Empty();
};

/// \brief A complete R*-tree [BKSS 90]: the spatial access method
/// underlying both the sequential [BKS 93] join and the paper's parallel
/// join.
///
/// Nodes are addressed by page number; page 0 is reserved for tree metadata
/// so that page numbers match the packed `PageFile` image one-to-one (the
/// simulated disk array places pages on disks by page number). The tree
/// supports dynamic insertion with forced reinsertion and R* splits,
/// deletion with tree condensation, window queries, and (de)serialization to
/// a page file.
class RStarTree {
 public:
  explicit RStarTree(uint32_t tree_id, RTreeOptions options = RTreeOptions());

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;

  /// Inserts one object MBR. `rect` must be valid.
  void Insert(const Rect& rect, uint64_t oid);

  /// Removes the entry with exactly this MBR and object id; returns whether
  /// it existed. Underfull nodes are dissolved and their entries reinserted
  /// (tree condensation).
  bool Delete(const Rect& rect, uint64_t oid);

  /// Object ids whose MBR intersects `window`, in unspecified order.
  std::vector<uint64_t> WindowQuery(const Rect& window) const;

  /// One result of a nearest-neighbor query: the object id and its MBR's
  /// minimum distance to the query point.
  struct Neighbor {
    uint64_t object_id = 0;
    double distance = 0.0;
  };

  /// The k nearest data entries to `query` by MBR MINDIST, ascending
  /// (ties by object id), computed with best-first branch-and-bound
  /// traversal. Returns fewer than k when the tree is smaller. This is the
  /// filter step of the "neighbor queries" the paper's conclusions name as
  /// future work.
  std::vector<Neighbor> KnnQuery(const Point& query, size_t k) const;

  // -- Structure accessors (used by the join algorithms) --

  uint32_t tree_id() const { return tree_id_; }
  uint32_t root_page() const { return root_page_; }
  /// Number of levels; 1 for a tree that is a single leaf. The root node is
  /// at level height()-1, data nodes at level 0.
  int height() const { return height_; }
  int64_t num_data_entries() const { return num_data_entries_; }
  const RTreeOptions& options() const { return options_; }

  const RTreeNode& node(uint32_t page_no) const;
  Rect root_mbr() const { return node(root_page_).ComputeMbr(); }

  /// \brief Freezes the tree for querying: compacts node entry storage into
  /// one arena (when options().arena_entry_storage) and (re)builds the SoA
  /// node cache the descent hot paths read.
  ///
  /// Called by the bulk builders (FromNodes, BuildTreeFromObjects); any
  /// later mutation invalidates the cache — soa() returns null again —
  /// until the next Seal(). Sealing changes no query result: consumers fall
  /// back to the entry arrays when the cache is absent, bit-identically.
  ///
  /// Sealing also enters the kSealed phase of the tree's lifecycle: every
  /// structural mutation (Insert/Delete and the private doorways they go
  /// through) PSJ_DCHECK_PHASE-fails until Thaw() re-enters kMutable. The
  /// phase contract is what lets the shared-tree consumers (native join
  /// workers, the serving layer) read the tree concurrently without locks;
  /// tools/psj_lint.py's `sealed-phase` rule checks call sites statically.
  void Seal();

  /// Re-enters the mutable phase after a Seal(), declaring the intent to
  /// mutate. No structural effect: the SoA cache stays valid until an
  /// actual mutation clears it. Callers must guarantee no concurrent
  /// readers exist — thawing a tree other threads are querying is a race.
  void Thaw() { phase_ = TreePhase::kMutable; }

  /// Lifecycle phase (see Seal()/Thaw()).
  enum class TreePhase { kMutable, kSealed };
  TreePhase phase() const { return phase_; }

  /// Wall-clock duration of the most recent Seal() (arena compaction + SoA
  /// build), in microseconds; 0 if never sealed. Kept here — not in the
  /// obs layer — so sealing needs no registry dependency; consumers that
  /// carry one (the CLI's serve path) record it as the `rtree_seal_us`
  /// gauge.
  int64_t last_seal_micros() const { return last_seal_micros_; }

  /// The SoA image of every node, or null if the tree was mutated since the
  /// last Seal() (or never sealed).
  const NodeSoACache* soa() const { return soa_valid_ ? &soa_cache_ : nullptr; }

  /// One past the largest page number in use (page 0 is the metadata page).
  uint32_t num_pages() const { return static_cast<uint32_t>(nodes_.size()); }
  /// True iff the page currently holds no node (freed by deletions).
  bool IsFreePage(uint32_t page_no) const;

  size_t CapacityFor(int level) const {
    return level == 0 ? options_.max_data_entries : options_.max_dir_entries;
  }
  size_t MinFillFor(int level) const;

  RTreeShapeStats ComputeShapeStats() const;

  // -- Persistence --

  /// Writes the tree (metadata page 0 plus one page per node, preserving
  /// page numbers) into an empty page file.
  Status PackToPageFile(PageFile* file) const;

  /// Reconstructs a tree from a page file produced by PackToPageFile.
  static StatusOr<RStarTree> LoadFromPageFile(const PageFile& file,
                                              RTreeOptions options =
                                                  RTreeOptions());

  /// Assembles a tree from pre-built nodes (used by the STR bulk loader).
  /// `nodes[0]` is ignored (metadata page); `free_pages` lists unused slots.
  static RStarTree FromNodes(uint32_t tree_id, std::vector<RTreeNode> nodes,
                             uint32_t root_page, int height,
                             int64_t num_data_entries,
                             std::vector<uint32_t> free_pages,
                             RTreeOptions options);

 private:
  uint32_t AllocateNode(RTreeNode node);
  void FreeNode(uint32_t page_no);

  RTreeNode& mutable_node(uint32_t page_no);

  /// Moves every live node's entries into entry_arena_ (one contiguous
  /// allocation) and re-points the nodes at their slices.
  void CompactEntryStorage();

  /// Chooses the insertion path (root → node at `target_level`) for `rect`,
  /// applying the R* ChooseSubtree criteria.
  std::vector<uint32_t> ChoosePath(const Rect& rect, int target_level);

  /// Inserts `entry` into a node at `target_level`, handling overflow with
  /// forced reinsertion / splits. `reinserted` has one flag per level.
  void InsertAtLevel(const RTreeEntry& entry, int target_level,
                     std::vector<bool>* reinserted);

  /// Handles overflow at path.back() and propagates splits/MBR updates to
  /// the root.
  void OverflowTreatment(const std::vector<uint32_t>& path,
                         std::vector<bool>* reinserted);

  /// Recomputes parent MBRs along `path` from position `from` upward.
  void UpdatePathMbrs(const std::vector<uint32_t>& path, size_t from);

  /// Removes the reinsert_fraction entries of `page_no` farthest from the
  /// node's MBR center; returned closest-first (the R* "close reinsert").
  std::vector<RTreeEntry> TakeReinsertEntries(uint32_t page_no);

  /// Splits the overflowing node; returns the directory entry (MBR + page)
  /// of the new sibling. Dispatches on options().split_algorithm.
  RTreeEntry SplitNode(uint32_t page_no);

  /// The [BKSS 90] split: margin-sum axis choice, overlap-minimal index.
  RTreeEntry SplitNodeRStar(uint32_t page_no);
  /// Guttman's quadratic split.
  RTreeEntry SplitNodeQuadratic(uint32_t page_no);
  /// Guttman's linear split.
  RTreeEntry SplitNodeLinear(uint32_t page_no);

  /// Distributes `rest` over the two seeded groups Guttman-style (PickNext
  /// for the quadratic variant, input order for the linear one), honoring
  /// the minimum fill. Shared by the two classic splits.
  void DistributeGuttman(std::vector<RTreeEntry> rest, bool quadratic,
                         size_t min_fill, RTreeNode* group1,
                         RTreeNode* group2);

  /// Index of the entry pointing to `child_page` within `parent_page`.
  size_t FindChildIndex(uint32_t parent_page, uint32_t child_page) const;

  bool FindLeafPath(uint32_t page_no, const Rect& rect, uint64_t oid,
                    std::vector<uint32_t>* path) const;

  uint32_t tree_id_;
  RTreeOptions options_;
  std::vector<RTreeNode> nodes_;  // Indexed by page number; [0] reserved.
  std::vector<uint32_t> free_pages_;
  std::vector<bool> is_free_;  // Parallel to nodes_.
  uint32_t root_page_ = 0;
  int height_ = 1;
  int64_t num_data_entries_ = 0;
  /// Backing storage of the nodes' borrowed EntryLists after Seal().
  std::vector<RTreeEntry> entry_arena_;
  NodeSoACache soa_cache_;
  /// The cache matches nodes_; cleared by every mutation doorway
  /// (mutable_node / AllocateNode / FreeNode), set only by Seal().
  bool soa_valid_ = false;
  /// Lifecycle phase; mutation doorways PSJ_DCHECK_PHASE it is kMutable.
  TreePhase phase_ = TreePhase::kMutable;
  /// Duration of the most recent Seal() (see last_seal_micros()).
  int64_t last_seal_micros_ = 0;
  /// Buffers of ChoosePath's CS2 step, reused across insertions.
  ChooseSubtreeScratch choose_scratch_;
};

}  // namespace psj

#endif  // PSJ_RTREE_RSTAR_TREE_H_
