#include "obs/metrics.h"

#include <algorithm>
#include <utility>

namespace psj::obs {

namespace {

int BucketOf(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  // Same power-of-two layout as trace::Histogram: bucket i >= 1 holds
  // [2^(i-1), 2^i); 63-clz is floor(log2).
  const int log2 =
      63 - __builtin_clzll(static_cast<unsigned long long>(value));
  return std::min(log2 + 1, trace::Histogram::kNumBuckets - 1);
}

}  // namespace

const MetricsSnapshot::Counter* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const Counter& c : counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const MetricsSnapshot::Gauge* MetricsSnapshot::FindGauge(
    std::string_view name) const {
  for (const Gauge& g : gauges) {
    if (g.name == name) {
      return &g;
    }
  }
  return nullptr;
}

const MetricsSnapshot::HistogramEntry* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramEntry& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry(int num_shards) : num_shards_(num_shards) {
  PSJ_CHECK_GE(num_shards_, 1);
}

uint32_t MetricsRegistry::DefineNamed(std::string_view name, Kind kind) {
  PSJ_CHECK(!name.empty());
  util::MutexLock lock(&mu_);
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    PSJ_CHECK(it->second.first == kind)
        << "metric redefined with a different kind: " << name;
    return it->second.second;
  }
  PSJ_CHECK(!frozen()) << "metric defined after Freeze(): " << name;
  std::vector<std::string>* names = nullptr;
  switch (kind) {
    case Kind::kCounter:
      names = &counter_names_;
      break;
    case Kind::kGauge:
      names = &gauge_names_;
      break;
    case Kind::kHistogram:
      names = &histogram_names_;
      break;
  }
  const uint32_t index = static_cast<uint32_t>(names->size());
  names->emplace_back(name);
  index_.emplace(std::string(name), std::make_pair(kind, index));
  return index;
}

CounterId MetricsRegistry::DefineCounter(std::string_view name) {
  return CounterId{DefineNamed(name, Kind::kCounter)};
}

GaugeId MetricsRegistry::DefineGauge(std::string_view name) {
  return GaugeId{DefineNamed(name, Kind::kGauge)};
}

HistogramId MetricsRegistry::DefineHistogram(std::string_view name) {
  return HistogramId{DefineNamed(name, Kind::kHistogram)};
}

void MetricsRegistry::Freeze() {
  util::MutexLock lock(&mu_);
  if (frozen()) {
    return;
  }
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    auto block = std::make_unique<ShardBlock>();
    // std::atomic is not movable, so the vectors are sized exactly once
    // here and never resized afterwards (value-initialized cells are 0).
    block->counters =
        std::vector<std::atomic<int64_t>>(counter_names_.size());
    block->histograms =
        std::vector<HistogramCell>(histogram_names_.size());
    shards_.push_back(std::move(block));
  }
  gauges_cells_ = std::vector<std::atomic<int64_t>>(gauge_names_.size());
  // order: release — publishes the fully built cell blocks above; pairs
  // with the acquire load in frozen() on the hot path.
  frozen_.store(true, std::memory_order_release);
}

void MetricsRegistry::Record(int shard_hint, HistogramId id, int64_t value) {
  PSJ_DCHECK(frozen() && id.valid());
  value = std::max<int64_t>(value, 0);
  HistogramCell& cell = Shard(shard_hint).histograms[id.index];
  // order: relaxed — each cell field is an independent statistic; the
  // snapshot reader derives the count from the buckets themselves, so no
  // cross-field ordering is required for a coherent decode.
  cell.buckets[static_cast<size_t>(BucketOf(value))].fetch_add(
      1, std::memory_order_relaxed);
  // order: relaxed — sum is a plain tally like a counter cell.
  cell.sum.fetch_add(value, std::memory_order_relaxed);
  // order: relaxed — min/max are monotone under the CAS loop, so stale
  // observations only cause a retry, never a lost extreme. Multi-writer
  // safe: shards reduce contention, they do not guarantee one writer.
  int64_t seen = cell.min.load(std::memory_order_relaxed);
  // order: relaxed — CAS failure reloads `seen` and retries, so a stale
  // observation can only delay the update, never lose the extreme.
  while (value < seen && !cell.min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  // order: relaxed — same monotone argument for the maximum.
  seen = cell.max.load(std::memory_order_relaxed);
  // order: relaxed — as in the min loop above.
  while (value > seen && !cell.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  {
    util::MutexLock lock(&mu_);
    counter_names = counter_names_;
    gauge_names = gauge_names_;
    histogram_names = histogram_names_;
  }
  if (!frozen()) {
    // Pre-freeze snapshot: every metric exists with zero samples, so the
    // export shape is stable from the moment metrics are defined.
    for (std::string& name : counter_names) {
      snapshot.counters.push_back({std::move(name), 0});
    }
    for (std::string& name : gauge_names) {
      snapshot.gauges.push_back({std::move(name), 0});
    }
    for (std::string& name : histogram_names) {
      snapshot.histograms.push_back({std::move(name), trace::Histogram{}});
    }
    return snapshot;
  }

  for (size_t i = 0; i < counter_names.size(); ++i) {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      // order: relaxed — counter reads tolerate in-flight updates; the
      // snapshot is a statistical view, not a synchronization point.
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters.push_back({std::move(counter_names[i]), total});
  }
  for (size_t i = 0; i < gauge_names.size(); ++i) {
    snapshot.gauges.push_back(
        {std::move(gauge_names[i]),
         // order: relaxed — last-write-wins instantaneous reading.
         gauges_cells_[i].load(std::memory_order_relaxed)});
  }
  for (size_t i = 0; i < histogram_names.size(); ++i) {
    trace::Histogram merged;
    for (const auto& shard : shards_) {
      const HistogramCell& cell = shard->histograms[i];
      int64_t buckets[trace::Histogram::kNumBuckets];
      for (int b = 0; b < trace::Histogram::kNumBuckets; ++b) {
        // order: relaxed — bucket counts are independent tallies; the
        // decoded count is defined as their sum, so the decode is
        // self-consistent whatever interleaving the reads observe.
        buckets[b] =
            cell.buckets[static_cast<size_t>(b)].load(
                std::memory_order_relaxed);
      }
      // order: relaxed — summary stats may lag samples recorded
      // mid-snapshot; quantiles clamp into [min, max] so a small lag only
      // perturbs interpolation, never produces out-of-range values.
      const int64_t sum = cell.sum.load(std::memory_order_relaxed);
      // order: relaxed — same lag argument as sum above.
      const int64_t min = cell.min.load(std::memory_order_relaxed);
      // order: relaxed — same lag argument as sum above.
      const int64_t max = cell.max.load(std::memory_order_relaxed);
      merged.Merge(trace::Histogram::FromBuckets(
          buckets, sum,
          min == std::numeric_limits<int64_t>::max() ? 0 : min, max));
    }
    snapshot.histograms.push_back(
        {std::move(histogram_names[i]), merged});
  }
  return snapshot;
}

}  // namespace psj::obs
