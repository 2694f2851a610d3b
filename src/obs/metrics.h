#ifndef PSJ_OBS_METRICS_H_
#define PSJ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/trace_sink.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file
/// The wall-clock observability spine (DESIGN.md §15): a sharded metrics
/// registry for the real-thread execution paths (src/serve, src/native).
/// The simulator keeps its own virtual-time trace sinks; this layer exists
/// for the engines whose clock is the host's — where queue buildup,
/// deadline-miss bursts, and tail latency have to be visible *while the
/// service runs*, not after it stops.
///
/// src/obs/ is a sanctioned host-threading zone (tools/psj_lint.py
/// allowlists the directory, and its atomics fall under the
/// memory-order-audit rule: every operation spells its order and carries an
/// `// order:` rationale).
///
/// Metric naming contract (enforced by psj_lint.py's `metric-names` rule on
/// every Define* call site): snake_case, with a unit suffix — `_us` for
/// microsecond durations, `_bytes` for sizes, `_count` for dimensionless
/// tallies (including gauges such as queue depth).

namespace psj::obs {

/// Typed handles into the registry, returned by the Define* calls. Plain
/// indices: invalid (default-constructed) handles PSJ_DCHECK on use.
struct CounterId {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct GaugeId {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct HistogramId {
  uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// \brief An aggregated, self-contained view of every metric at one
/// instant: counters and gauges as values, histograms merged across shards
/// into plain trace::Histogram objects (quantiles via ValueAtQuantile).
/// Snapshots own their data — they stay valid after the registry dies —
/// and preserve registration order, so exports are deterministic.
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    int64_t value = 0;
  };
  struct Gauge {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    trace::Histogram histogram;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<HistogramEntry> histograms;

  /// Lookup by name; nullptr when absent (tests and derived-rate code).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const HistogramEntry* FindHistogram(std::string_view name) const;
};

/// \brief Sharded counters, gauges, and log-bucket histograms for
/// concurrent wall-clock engines.
///
/// Lifecycle: components Define* their metrics (idempotent by name, so two
/// services sharing a registry coexist), someone calls Freeze() — which
/// materializes the per-shard atomic cell blocks — and only then may the
/// hot-path Add/Set/Record run. Every instrumented component holds a
/// `MetricsRegistry*` that is null by default: the disabled path is a
/// single pointer test, bounded <1% by bench/micro_obs (BENCH_obs.json).
///
/// Hot path: lock-free. Counters and histogram cells live in per-shard
/// blocks (callers pass a shard hint — their worker index — reduced modulo
/// num_shards), so concurrent workers touch disjoint cache lines; all
/// updates are relaxed atomic RMWs because no cross-thread ordering is
/// implied by a metric (rationales at each site). Gauges are last-write
/// registry-global cells (a queue depth has one true value, not a sum).
///
/// Snapshot(): sums counter shards, loads gauges, and merges histogram
/// shards via trace::Histogram::Merge. A snapshot is consistent per metric
/// at the bucket level — a histogram's count always equals the sum of its
/// buckets because the count is *derived* from one pass over the bucket
/// cells — while cross-metric skew is bounded by whatever updates were in
/// flight during the read (there is no stop-the-world, by design).
class MetricsRegistry {
 public:
  /// `num_shards` is the expected writer parallelism (worker threads plus
  /// one for a front-end/submit path is the common choice). More shards =
  /// less hot-path contention, linearly more snapshot work.
  explicit MetricsRegistry(int num_shards);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- Definition phase (any thread; before Freeze()) ----

  /// Registers (or finds, by exact name) a monotone counter / last-write
  /// gauge / log-bucket histogram. PSJ_CHECK-fails when the name is already
  /// bound to a different metric kind, or when it is new and the registry
  /// is frozen; finding an existing metric works after Freeze() too, so a
  /// component may run repeatedly against one registry.
  CounterId DefineCounter(std::string_view name) PSJ_EXCLUDES(mu_);
  GaugeId DefineGauge(std::string_view name) PSJ_EXCLUDES(mu_);
  HistogramId DefineHistogram(std::string_view name) PSJ_EXCLUDES(mu_);

  /// Materializes the shard cell blocks and opens the hot path. Idempotent;
  /// instrumented components call it from their Start()/Run() entry points,
  /// so "construct everything, then start anything" is the only contract.
  void Freeze() PSJ_EXCLUDES(mu_);

  bool frozen() const {
    // order: acquire — pairs with the release store in Freeze() so a
    // hot-path caller that observes true also sees the cell blocks built.
    return frozen_.load(std::memory_order_acquire);
  }

  // ---- Hot path (lock-free; requires Freeze()) ----

  /// Adds `delta` to a counter on the shard selected by `shard_hint`.
  void Add(int shard_hint, CounterId id, int64_t delta) {
    PSJ_DCHECK(frozen() && id.valid());
    // order: relaxed — a counter cell is an independent tally; nothing is
    // published through it, and Snapshot() tolerates in-flight updates.
    Shard(shard_hint).counters[id.index].fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sets a gauge to `value` (registry-global, last write wins).
  void Set(GaugeId id, int64_t value) {
    PSJ_DCHECK(frozen() && id.valid());
    // order: relaxed — gauges are last-write-wins instantaneous readings;
    // no cross-thread ordering is implied by observing one.
    gauges_cells_[id.index].store(value, std::memory_order_relaxed);
  }

  /// Records one sample into a histogram on `shard_hint`'s shard.
  void Record(int shard_hint, HistogramId id, int64_t value);

  // ---- Aggregation (any thread, any time after Freeze()) ----

  MetricsSnapshot Snapshot() const;

  int num_shards() const { return num_shards_; }

 private:
  /// One histogram's per-shard atomic cell block: the trace::Histogram
  /// bucket layout, maintained with RMWs so any thread may record into any
  /// shard (shards reduce contention; they do not partition correctness).
  struct HistogramCell {
    std::atomic<int64_t> buckets[trace::Histogram::kNumBuckets];
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> max{0};

    HistogramCell() {
      for (auto& bucket : buckets) {
        // order: relaxed — single-threaded construction inside Freeze();
        // publication happens via frozen_'s release store.
        bucket.store(0, std::memory_order_relaxed);
      }
    }
  };

  struct ShardBlock {
    std::vector<std::atomic<int64_t>> counters;
    std::vector<HistogramCell> histograms;
  };

  ShardBlock& Shard(int shard_hint) {
    // A hint beyond the shard count (more workers than shards) wraps; the
    // modulo only mis-balances contention, never correctness.
    return *shards_[static_cast<size_t>(shard_hint) %
                    static_cast<size_t>(num_shards_)];
  }

  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  uint32_t DefineNamed(std::string_view name, Kind kind) PSJ_EXCLUDES(mu_);

  const int num_shards_;

  mutable util::Mutex mu_;
  std::vector<std::string> counter_names_ PSJ_GUARDED_BY(mu_);
  std::vector<std::string> gauge_names_ PSJ_GUARDED_BY(mu_);
  std::vector<std::string> histogram_names_ PSJ_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::pair<Kind, uint32_t>> index_
      PSJ_GUARDED_BY(mu_);

  /// Set exactly once by Freeze(); gates the hot path. The cell vectors
  /// below are written only before the release store and never resized
  /// after, so hot-path readers need no lock.
  std::atomic<bool> frozen_{false};
  std::vector<std::unique_ptr<ShardBlock>> shards_;
  std::vector<std::atomic<int64_t>> gauges_cells_;
};

}  // namespace psj::obs

#endif  // PSJ_OBS_METRICS_H_
