#include "core/parallel_window_query.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>

#include "buffer/path_buffer.h"
#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "core/task_pool.h"
#include "core/workload.h"

namespace psj {

Status WindowQueryConfig::Validate() const {
  if (num_processors <= 0) {
    return Status::InvalidArgument("num_processors must be positive");
  }
  if (num_disks <= 0) {
    return Status::InvalidArgument("num_disks must be positive");
  }
  if (task_creation_factor < 0.0) {
    return Status::InvalidArgument("task_creation_factor must be >= 0");
  }
  return Status::OK();
}

namespace {

/// One simulated window-query run; mirrors the join driver with single
/// subtrees as work items.
class WindowQueryDriver {
 public:
  WindowQueryDriver(const RStarTree& tree, const ObjectStore* objects,
                    const Rect& window, const WindowQueryConfig& config)
      : tree_(tree),
        objects_(objects),
        window_(window),
        config_(config),
        scheduler_(config.tiebreak),
        disks_(config.num_disks, config.costs.disk),
        pool_(config.num_processors, tree.height(), config.costs,
              config.seed) {
    if (config_.placement == PagePlacement::kHilbertStriping) {
      disks_.SetExplicitPlacement(
          ComputeHilbertStriping(tree, tree.root_mbr(), config_.num_disks));
    }
    const int n = config_.num_processors;
    switch (config_.buffer_type) {
      case BufferType::kLocal:
        buffers_ = std::make_unique<LocalBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
      case BufferType::kGlobal:
        buffers_ = std::make_unique<GlobalBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
      case BufferType::kSharedNothing:
        buffers_ = std::make_unique<SharedNothingBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
    }
    path_buffers_.assign(static_cast<size_t>(n),
                         PathBuffer(tree.height()));
    stats_.assign(static_cast<size_t>(n), ProcessorStats());
    candidate_ids_.resize(static_cast<size_t>(n));
    answer_ids_.resize(static_cast<size_t>(n));
    filter_batches_.resize(static_cast<size_t>(n));
    filter_hits_.resize(static_cast<size_t>(n));
    if (config_.check != nullptr) {
      disks_.BindCheck(config_.check);
      buffers_->set_check(config_.check);
      pool_.set_check(config_.check);
      tasks_ready_.Bind(config_.check);
    }
  }

  WindowQueryResult Run() {
    for (int i = 0; i < config_.num_processors; ++i) {
      scheduler_.Spawn([this](sim::Process& p) { ProcessorBody(p); });
    }
    scheduler_.Run();

    WindowQueryResult result;
    for (int i = 0; i < config_.num_processors; ++i) {
      ProcessorStats& stats = stats_[static_cast<size_t>(i)];
      stats.buffer = buffers_->stats(i);
      const TaskPoolCounters& counters = pool_.counters(i);
      stats.tasks_started = counters.tasks_started;
      stats.steal_requests_sent = counters.steal_requests_sent;
      stats.steal_requests_failed = counters.steal_requests_failed;
      stats.pairs_stolen = counters.items_stolen;
      stats.pairs_given = counters.items_given;
      stats.disk_queue_wait = disks_.queue_wait_of_cpu(i);
    }
    result.stats.per_processor = stats_;
    result.stats.num_tasks = num_tasks_;
    result.stats.task_level = task_level_;
    result.stats.task_creation_time = task_creation_time_;
    result.stats.Finalize(disks_.total_accesses(),
                          disks_.total_queue_wait());
    if (config_.collect_ids) {
      for (auto& ids : candidate_ids_) {
        result.candidate_ids.insert(result.candidate_ids.end(), ids.begin(),
                                    ids.end());
      }
      for (auto& ids : answer_ids_) {
        result.answer_ids.insert(result.answer_ids.end(), ids.begin(),
                                 ids.end());
      }
    }
    return result;
  }

 private:
  void ProcessorBody(sim::Process& p) {
    if (p.id() == 0) {
      CreateAndAssignTasks(p);
    } else {
      // As in the join driver: sleep until processor 0 posts the flag,
      // which wakes the workers at distinct virtual times.
      while (!tasks_ready_.Read(p, "WindowQueryDriver::ProcessorBody/wait")) {
        p.Block();
      }
    }
    WorkLoop(p);
  }

  /// Phase 1 + 2 on processor 0: subtrees intersecting the window, in
  /// plane-sweep (xl) order, descending while there are too few tasks.
  void CreateAndAssignTasks(sim::Process& p) {
    std::deque<PageTask> frontier;
    frontier.push_back(PageTask{tree_.root_page(),
                                static_cast<int16_t>(tree_.height() - 1)});
    const auto needed = static_cast<size_t>(
        config_.task_creation_factor *
        static_cast<double>(config_.num_processors));
    // The root itself always descends one level (a single task is no
    // parallelism); data level stops the descent.
    while (!frontier.empty() && frontier.front().level > 0 &&
           frontier.size() < std::max<size_t>(needed, 2)) {
      std::deque<PageTask> next;
      for (const PageTask& task : frontier) {
        const RTreeNode& node = FetchNode(p, task.page, task.level);
        std::vector<RTreeEntry> entries(node.entries.begin(),
                                        node.entries.end());
        std::sort(entries.begin(), entries.end(),
                  [](const RTreeEntry& a, const RTreeEntry& b) {
                    if (a.rect.xl != b.rect.xl) return a.rect.xl < b.rect.xl;
                    return a.id < b.id;
                  });
        for (const RTreeEntry& entry : entries) {
          p.Advance(config_.costs.cpu_per_pair_tested);
          if (entry.rect.Intersects(window_)) {
            next.push_back(PageTask{entry.child_page(),
                                    static_cast<int16_t>(task.level - 1)});
          }
        }
      }
      frontier = std::move(next);
    }

    std::vector<PageTask> tasks(frontier.begin(), frontier.end());
    p.Advance(static_cast<sim::SimTime>(tasks.size()) *
              config_.costs.task_creation_per_pair);
    num_tasks_ = static_cast<int64_t>(tasks.size());
    task_level_ = tasks.empty() ? 0 : tasks.front().level;
    pool_.Assign(config_.assignment, tasks, task_level_);
    task_creation_time_ = p.now();
    p.Sync();
    tasks_ready_.Write(p, "WindowQueryDriver::CreateAndAssignTasks/publish",
                       true);
    for (int i = 1; i < config_.num_processors; ++i) {
      p.Advance(config_.costs.task_ready_notify);
      scheduler_.process(i)->MakeReadyIfBlocked(p.now());
    }
    p.Advance(config_.costs.task_ready_notify);
  }

  void WorkLoop(sim::Process& p) {
    const size_t cpu = static_cast<size_t>(p.id());
    for (;;) {
      std::optional<PageTask> item = pool_.NextItem(p);
      if (item.has_value()) {
        const sim::SimTime start = p.now();
        ExecuteTask(p, *item);
        pool_.FinishItem(p.id());
        stats_[cpu].busy_time += p.now() - start;
        stats_[cpu].last_work_time = p.now();
        continue;
      }
      p.Sync();
      if (pool_.GlobalDone()) {
        return;
      }
      if (config_.reassignment == ReassignmentLevel::kNone) {
        p.WaitUntil(p.now() + config_.costs.idle_poll_interval);
        continue;
      }
      pool_.TryStealWork(p, config_.reassignment, config_.victim_policy);
    }
  }

  // Batched window filter over a node's entries: hit indices, ascending —
  // the same order as the scalar entry loop. Scratch is per simulated
  // processor: the data-page loop holds the result across p.Sync(), where
  // other processors' coroutines run their own filters.
  std::span<const uint32_t> FilterEntries(size_t cpu, uint32_t page,
                                          const RTreeNode& node) {
    // Sealed trees scan the cached node planes in place; the fallback
    // transposes the entries first. Hit indices are identical either way.
    if (const NodeSoACache* cache = tree_.soa(); cache != nullptr) {
      ScanIntersecting(cache->view(page).rects, window_, &filter_hits_[cpu]);
      return filter_hits_[cpu];
    }
    filter_batches_[cpu].AssignProjected(
        node.entries,
        [](const RTreeEntry& e) -> const Rect& { return e.rect; });
    FilterIntersecting(filter_batches_[cpu], window_, &filter_hits_[cpu]);
    return filter_hits_[cpu];
  }

  void ExecuteTask(sim::Process& p, const PageTask& task) {
    const size_t cpu = static_cast<size_t>(p.id());
    const RTreeNode& node = FetchNode(p, task.page, task.level);
    p.Advance(static_cast<sim::SimTime>(node.entries.size()) *
              config_.costs.cpu_per_pair_tested);
    ++stats_[cpu].node_pairs_processed;

    if (task.level > 0) {
      std::vector<PageTask> children;
      for (const uint32_t k : FilterEntries(cpu, task.page, node)) {
        children.push_back(PageTask{node.entries[k].child_page(),
                                    static_cast<int16_t>(task.level - 1)});
      }
      pool_.Push(p, children);
      return;
    }

    // Data page: every entry whose MBR intersects the window is a
    // candidate; the refinement test against the window geometry is
    // charged per the overlap-degree waiting-period model.
    for (const uint32_t k : FilterEntries(cpu, task.page, node)) {
      const RTreeEntry& entry = node.entries[k];
      const sim::SimTime refine_cost =
          config_.costs.RefinementCost(entry.rect, window_);
      p.Advance(refine_cost);
      stats_[cpu].refinement_time += refine_cost;
      ++stats_[cpu].candidates;
      bool is_answer = false;
      if (config_.compute_answers) {
        is_answer =
            objects_->Get(entry.object_id()).geometry.IntersectsRect(window_);
        if (is_answer) {
          ++stats_[cpu].answers;
        }
      }
      if (config_.collect_ids) {
        candidate_ids_[cpu].push_back(entry.object_id());
        if (is_answer) {
          answer_ids_[cpu].push_back(entry.object_id());
        }
      }
      p.Sync();
    }
  }

  const RTreeNode& FetchNode(sim::Process& p, uint32_t page, int level) {
    const size_t cpu = static_cast<size_t>(p.id());
    const PageId pid{tree_.tree_id(), page};
    if (config_.use_path_buffer &&
        path_buffers_[cpu].Contains(pid, level)) {
      p.Advance(config_.costs.path_buffer_hit);
      ++stats_[cpu].path_buffer_hits;
    } else {
      buffers_->FetchPage(p, pid, /*is_data_page=*/level == 0);
      if (config_.use_path_buffer) {
        path_buffers_[cpu].Enter(pid, level);
      }
    }
    return tree_.node(page);
  }

  const RStarTree& tree_;
  const ObjectStore* objects_;
  const Rect window_;
  const WindowQueryConfig& config_;

  sim::Scheduler scheduler_;
  DiskArrayModel disks_;
  std::unique_ptr<BufferPool> buffers_;

  check::Cell<bool> tasks_ready_{"window_query.tasks_ready"};
  TaskPool<PageTask> pool_;
  std::vector<PathBuffer> path_buffers_;
  std::vector<RectBatch> filter_batches_;
  std::vector<std::vector<uint32_t>> filter_hits_;

  std::vector<ProcessorStats> stats_;
  std::vector<std::vector<uint64_t>> candidate_ids_;
  std::vector<std::vector<uint64_t>> answer_ids_;
  int64_t num_tasks_ = 0;
  int task_level_ = 0;
  sim::SimTime task_creation_time_ = 0;
};

}  // namespace

ParallelWindowQuery::ParallelWindowQuery(const RStarTree* tree,
                                         const ObjectStore* objects)
    : tree_(tree), objects_(objects) {
  PSJ_CHECK(tree != nullptr);
}

StatusOr<WindowQueryResult> ParallelWindowQuery::Run(
    const Rect& window, const WindowQueryConfig& config) const {
  PSJ_RETURN_IF_ERROR(config.Validate());
  if (!window.IsValid()) {
    return Status::InvalidArgument("invalid window rectangle");
  }
  if (config.compute_answers && objects_ == nullptr) {
    return Status::InvalidArgument(
        "compute_answers requires the object store");
  }
  WindowQueryDriver driver(*tree_, objects_, window, config);
  return driver.Run();
}

}  // namespace psj
