// Inputs, reference answers and the three workload loops.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/experiment.h"
#include "core/parallel_join.h"
#include "native/native_join.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "util/mutex.h"

namespace perfbench {

using psj::Rect;

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (long long x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

void LatencyHistogram::Add(int64_t ns) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  const auto v = static_cast<uint64_t>(std::max<int64_t>(ns, 0));
  size_t index = v;
  if (v >= kSub) {
    const int top = 63 - __builtin_clzll(v);  // >= kSubBits
    const uint64_t sub = (v >> (top - kSubBits)) & (kSub - 1);
    index = static_cast<size_t>(top - kSubBits + 1) * kSub + sub;
  }
  ++counts_[std::min<size_t>(index, kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::QuantileMs(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  int64_t before = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (before + counts_[i] < rank) {
      before += counts_[i];
      continue;
    }
    double low = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const int top = static_cast<int>(i / kSub) + kSubBits - 1;
      width = std::ldexp(1.0, top - kSubBits);
      low = static_cast<double>(kSub + i % kSub) * width;
    }
    // The rank-th value sits this far into the bucket's samples.
    const double into = (static_cast<double>(rank - before) - 0.5) /
                        static_cast<double>(counts_[i]);
    return (low + into * width) * 1e-6;
  }
  return 0.0;
}

QuietHalf KeepQuietHalf(const std::vector<Slice>& slices) {
  QuietHalf q;
  std::vector<size_t> order;
  for (size_t i = 0; i < slices.size(); ++i) {
    if (!slices[i].traced) order.push_back(i);
  }
  q.total = static_cast<int>(order.size());
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slices[a].steal_share < slices[b].steal_share;
  });
  q.kept = (q.total + 1) / 2;
  // Slices with as little steal as the last kept one are as quiet: keep
  // them too, so a run without steal is timed over its whole window.
  const auto steal_at = [&](int i) {
    return slices[order[static_cast<size_t>(i)]].steal_share;
  };
  while (q.kept > 0 && q.kept < q.total &&
         steal_at(q.kept) == steal_at(q.kept - 1)) {
    ++q.kept;
  }
  for (int i = 0; i < q.total; ++i) {
    const Slice& slice = slices[order[static_cast<size_t>(i)]];
    q.steal_all += slice.steal_share / q.total;
    if (i >= q.kept) continue;
    q.latency.Merge(slice.latency);
    q.ops += slice.ops;
    q.busy_s += slice.busy_s;
    q.steal_kept += slice.steal_share / q.kept;
  }
  return q;
}

double TraceOverheadPct(const std::vector<Slice>& slices, double slice_s) {
  double ops[2] = {};
  double time[2] = {};
  for (const Slice& slice : slices) {
    ops[slice.traced] += static_cast<double>(slice.ops);
    time[slice.traced] += slice_s > 0 ? slice_s : slice.busy_s;
  }
  if (ops[0] == 0 || ops[1] == 0) return 0.0;
  const double untraced = ops[0] / time[0];
  return 100.0 * (untraced - ops[1] / time[1]) / untraced;
}

namespace {

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------- inputs --

void GenerateMaps(uint64_t seed, Spans* spans, Inputs* inputs,
                  SetupTimes* times) {
  psj::PaperWorkloadSpec paper;
  paper.streets.seed = MixSeed(seed, 2);
  paper.mixed.seed = MixSeed(seed, 3);
  const int64_t start = NowNs();
  // One fixed geography, the paper's single region (PaperWorkloadSpec's
  // geography seed); the run's seed draws the two maps over it. Drawing the
  // population centres per seed too moved the simulation's cost by +-12 %
  // from seed to seed.
  const psj::Geography geography =
      psj::Geography::Generate(paper.geography_seed, paper.num_centers);
  std::vector<psj::MapObject> streets;
  {
    Spans::Scope span(spans, "GenerateStreetsMap");
    streets = psj::GenerateStreetsMap(geography, paper.streets);
  }
  std::vector<psj::MapObject> mixed;
  {
    Spans::Scope span(spans, "GenerateMixedMap");
    mixed = psj::GenerateMixedMap(geography, paper.mixed);
  }
  times->generate_s = static_cast<double>(NowNs() - start) * 1e-9;
  inputs->store_r = psj::ObjectStore(std::move(streets));
  inputs->store_s = psj::ObjectStore(std::move(mixed));
}

namespace {

// One BuildTreeFromObjects call, with a span for the call and a child span
// for the Seal() it ends with (timed by the tree itself).
struct TreeBuild {
  std::unique_ptr<psj::RStarTree> tree;
  double build_s = 0.0;  // Seal excluded.
  double seal_ms = 0.0;
};

TreeBuild BuildOne(uint32_t tree_id, const psj::ObjectStore& store,
                   psj::TreeBuildMethod method, Spans* spans) {
  TreeBuild out;
  const int64_t start = NowNs();
  out.tree = std::make_unique<psj::RStarTree>(
      psj::BuildTreeFromObjects(tree_id, store.objects(), method));
  const int64_t end = NowNs();
  const int64_t seal_ns = out.tree->last_seal_micros() * 1000;
  out.seal_ms = static_cast<double>(seal_ns) * 1e-6;
  out.build_s = static_cast<double>(end - start - seal_ns) * 1e-9;
  if (spans != nullptr) {
    const int64_t id = spans->Record("BuildTreeFromObjects", start, end);
    spans->Record("Seal", end - seal_ns, end, id);
  }
  return out;
}

}  // namespace

void BuildTrees(psj::TreeBuildMethod method, Spans* spans,
                const Inputs& maps, std::unique_ptr<psj::RStarTree>* tree_r,
                std::unique_ptr<psj::RStarTree>* tree_s, SetupTimes* times) {
  TreeBuild r;
  std::thread build_r([&] { r = BuildOne(1, maps.store_r, method, spans); });
  TreeBuild s = BuildOne(2, maps.store_s, method, spans);
  build_r.join();
  times->build_s = r.build_s + s.build_s;
  times->seal_ms = r.seal_ms + s.seal_ms;
  *tree_r = std::move(r.tree);
  *tree_s = std::move(s.tree);
}

Reference MakeReference(const Inputs& inputs) {
  Reference ref;
  const auto mbrs = [](const psj::ObjectStore& store) {
    std::vector<Rect> rects(store.size(), Rect::Empty());
    for (const psj::MapObject& obj : store.objects()) {
      rects.at(obj.id) = obj.Mbr();
    }
    return rects;
  };
  ref.rects_r = mbrs(inputs.store_r);
  ref.rects_s = mbrs(inputs.store_s);
  ref.candidates =
      PairIndex(SweepJoin(ref.rects_r, ref.rects_s), ref.rects_r.size());
  ref.is_answer.reserve(ref.candidates.size());
  for (const auto& [r, s] : ref.candidates.pairs()) {
    const bool meet = ChainsMeet(inputs.store_r.Get(r).geometry.points(),
                                 inputs.store_s.Get(s).geometry.points());
    ref.is_answer.push_back(meet);
    ref.num_answers += meet ? 1 : 0;
  }
  return ref;
}

size_t ReferenceBytes(const Reference& ref) {
  return (ref.rects_r.capacity() + ref.rects_s.capacity()) * sizeof(Rect) +
         ref.candidates.bytes() + ref.is_answer.capacity() / 8;
}

Rect QueryDomain(const Inputs& inputs) {
  return inputs.tree_r->root_mbr().UnionWith(inputs.tree_s->root_mbr());
}

// ------------------------------------------------------------- query mix --

QueryMix::QueryMix(const Rect& domain, uint64_t seed)
    : state_(seed), domain_(domain) {
  const double ex = domain_.xu - domain_.xl;
  const double ey = domain_.yu - domain_.yl;
  side_x_ = ex * 0.01;  // Window extent: 1 % of the domain per axis.
  side_y_ = ey * 0.01;
  // The hotspot: 8 % of the domain per axis, off the corner.
  const double hx = domain_.xl + 0.37 * ex;
  const double hy = domain_.yl + 0.41 * ey;
  hot_ = Rect(hx, hy, hx + ex * 0.08, hy + ey * 0.08);
}

double QueryMix::Uniform() {
  state_ = MixSeed(state_, 0);
  return static_cast<double>(state_ >> 11) * 0x1.0p-53;
}

psj::Point QueryMix::Center() {
  const Rect& from = Uniform() < 0.6 ? hot_ : domain_;
  const double x = from.xl + Uniform() * (from.xu - from.xl);
  return psj::Point{x, from.yl + Uniform() * (from.yu - from.yl)};
}

psj::serve::QueryDescriptor QueryMix::Next() {
  using psj::serve::QueryDescriptor;
  using psj::serve::TreeTarget;
  const double u = Uniform();
  const TreeTarget target =
      Uniform() < 0.5 ? TreeTarget::kTreeR : TreeTarget::kTreeS;
  const psj::Point c = Center();
  if (u < 0.02) {
    const auto k = 1 + static_cast<uint32_t>(Uniform() * 16.0);
    return QueryDescriptor::Knn(c, std::min<uint32_t>(k, 16), target);
  }
  if (u < 0.022) {
    return QueryDescriptor::JoinRegion(
        Rect(c.x - side_x_, c.y - side_y_, c.x + side_x_, c.y + side_y_));
  }
  if (u < 0.322) return QueryDescriptor::PointProbe(c, target);
  return QueryDescriptor::Window(
      Rect(c.x - side_x_ / 2, c.y - side_y_ / 2, c.x + side_x_ / 2,
           c.y + side_y_ / 2),
      target);
}

// ------------------------------------------------------------- join loop --

namespace {

// Runs `op` back to back: first for `warmup_s` untimed, then timed in
// 100 ms slices until the window of `seconds` has passed and the quiet
// half of the slices holds `min_ops` ops (capped at three windows).
// `op(timed, traced)` returns its own duration in ns; a traced loop traces
// the ops of every other slice.
template <typename Op>
void ClosedLoop(const LoopOptions& options, LoopResult* out, Op&& op) {
  constexpr int64_t kSliceNs = 100'000'000;
  const int64_t warm_end =
      NowNs() + static_cast<int64_t>(options.warmup_s * 1e9);
  while (NowNs() < warm_end) op(/*timed=*/false, /*traced=*/false);
  std::vector<Slice> slices(1);
  CpuTicks ticks = ReadCpuTicks();
  const int64_t start = NowNs();
  int64_t slice_end = start + kSliceNs;
  const auto window = static_cast<int64_t>(options.seconds * 1e9);
  int64_t ops = 0;
  for (;;) {
    const int64_t elapsed = NowNs() - start;
    if (elapsed >= window && ops >= 1 &&
        (elapsed >= 3 * window ||
         KeepQuietHalf(slices).ops >= options.min_ops)) {
      break;
    }
    Slice& slice = slices.back();
    slice.traced = options.traced && slices.size() % 2 == 1;
    const int64_t ns = op(/*timed=*/true, slice.traced);
    ++ops;
    slice.latency.Add(ns);
    ++slice.ops;
    slice.busy_s += static_cast<double>(ns) * 1e-9;
    const int64_t now = NowNs();
    if (now >= slice_end) {
      const CpuTicks t = ReadCpuTicks();
      slice.steal_share = StealShare(ticks, t);
      ticks = t;
      slices.emplace_back();
      slice_end = now + kSliceNs;
    }
  }
  if (slices.back().ops == 0) {
    slices.pop_back();
  } else {
    slices.back().steal_share = StealShare(ticks, ReadCpuTicks());
  }
  out->quiet = KeepQuietHalf(slices);
  out->owned_bytes = out->quiet.latency.bytes();
  for (const Slice& slice : slices) out->owned_bytes += slice.latency.bytes();
  out->ops_per_s = out->quiet.busy_s > 0.0
                       ? static_cast<double>(out->quiet.ops) / out->quiet.busy_s
                       : 0.0;
  if (options.traced) out->trace_overhead_pct = TraceOverheadPct(slices, 0.0);
}

}  // namespace

LoopResult RunJoinLoop(const Inputs& inputs, const Reference& ref,
                       int threads, const LoopOptions& options) {
  LoopResult out;
  SetChecker check(&ref.candidates);
  psj::native::NativeJoinConfig config;
  config.num_threads = threads;
  std::vector<double> busy_share, serial_ms, imbalance, steals;
  ClosedLoop(options, &out, [&](bool timed, bool traced) {
    // The per-task busy times come from the obs registry, which a join
    // can define its metrics in only once: one registry per traced call.
    std::unique_ptr<psj::obs::MetricsRegistry> registry;
    if (traced) {
      registry = std::make_unique<psj::obs::MetricsRegistry>(threads);
    }
    config.metrics = registry.get();
    const int64_t start = NowNs();
    const psj::native::NativeJoinResult result =
        psj::native::NativeRTreeJoin(*inputs.tree_r, *inputs.tree_s, config);
    const int64_t end = NowNs();
    if (!timed) return end - start;
    ++out.attempted;
    if (!check.Equal(result.candidates)) {
      ++out.failed;
      ++out.mismatches;
    }
    if (traced) {
      options.spans->Record("NativeRTreeJoin", start, end);
      const double wall_us = static_cast<double>(end - start) * 1e-3;
      double busy = 0.0, max_busy = 0.0, pairs = 0.0, max_pairs = 0.0;
      for (const psj::native::NativeWorkerStats& w : result.per_worker) {
        busy += static_cast<double>(w.busy_us);
        max_busy = std::max(max_busy, static_cast<double>(w.busy_us));
        pairs += static_cast<double>(w.node_pairs_processed);
        max_pairs =
            std::max(max_pairs, static_cast<double>(w.node_pairs_processed));
      }
      busy_share.push_back(busy / (threads * wall_us));
      serial_ms.push_back((wall_us - max_busy) * 1e-3);
      imbalance.push_back(pairs > 0 ? max_pairs / (pairs / threads) : 1.0);
      steals.push_back(static_cast<double>(result.TotalSteals()));
    }
    return end - start;
  });
  out.checked = out.attempted;
  out.owned_bytes += check.bytes();
  if (options.traced) {
    out.layer["native.busy_share"] = {Mean(busy_share), "ratio"};
    out.layer["native.serial_ms"] = {Median(serial_ms), "ms"};
    out.layer["native.imbalance"] = {Mean(imbalance), "ratio"};
    out.layer["native.steals_per_join"] = {Mean(steals), "count"};
  }
  return out;
}

// -------------------------------------------------------------- sim loop --

LoopResult RunSimLoop(const Inputs& inputs, const Reference& ref,
                      const LoopOptions& options) {
  LoopResult out;
  const psj::ParallelSpatialJoin join(inputs.tree_r.get(),
                                      inputs.tree_s.get(), &inputs.store_r,
                                      &inputs.store_s);
  struct Variant {
    const char* name;
    psj::ParallelJoinConfig config;
    std::vector<double> wall_ms;
    std::optional<psj::JoinStats> first;  // Virtual-time stats of op 1.
  };
  Variant variants[] = {{"lsr", psj::ParallelJoinConfig::Lsr(), {}, {}},
                        {"gsrr", psj::ParallelJoinConfig::Gsrr(), {}, {}},
                        {"gd", psj::ParallelJoinConfig::Gd(), {}, {}}};
  for (Variant& v : variants) {
    // n = d = 8 and reassignment on all levels are the configs' defaults.
    v.config.collect_pairs = true;
    v.config.compute_answers = true;
  }
  SetChecker candidates(&ref.candidates);
  SetChecker answers(&ref.candidates, &ref.is_answer);
  ClosedLoop(options, &out, [&](bool timed, bool traced) {
    int64_t total = 0;
    bool ok = true;
    for (Variant& v : variants) {
      const int64_t start = NowNs();
      psj::StatusOr<psj::JoinResult> result = join.Run(v.config);
      const int64_t end = NowNs();
      total += end - start;
      if (!timed) continue;
      if (traced) {
        options.spans->Record("ParallelSpatialJoin::Run", start, end);
        v.wall_ms.push_back(static_cast<double>(end - start) * 1e-6);
      }
      if (!result.ok()) {
        ok = false;
        continue;
      }
      const psj::JoinResult& r = result.value();
      // The simulation is deterministic: every op must repeat the first
      // op's virtual-time statistics exactly.
      if (!v.first.has_value()) v.first = r.stats;
      ok = ok && candidates.Equal(r.candidate_pairs) &&
           answers.Equal(r.answer_pairs) && r.stats == *v.first;
    }
    if (timed) {
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        ++out.mismatches;
      }
    }
    return total;
  });
  out.checked = out.attempted;
  out.owned_bytes += candidates.bytes() + answers.bytes();
  if (options.traced) {
    int64_t disk = 0;
    int64_t remote = 0;
    for (const Variant& v : variants) {
      const std::string name = v.name;
      out.layer["sim." + name + "_ms"] = {Median(v.wall_ms), "ms"};
      if (!v.first.has_value()) continue;
      out.layer["sim.response_s." + name] = {
          static_cast<double>(v.first->response_time) * 1e-6, "s"};
      disk += v.first->total_disk_accesses;
      remote += v.first->total_remote_hits;
    }
    out.layer["buffer.disk_accesses"] = {static_cast<double>(disk), "count"};
    out.layer["buffer.remote_hits"] = {static_cast<double>(remote), "count"};
  }
  return out;
}

// ------------------------------------------------------------ serve loop --

namespace {

using psj::serve::QueryDescriptor;
using psj::serve::QueryResult;
using psj::serve::QueryType;

// A completed query kept for the brute-force check.
struct Sample {
  QueryDescriptor descriptor;
  QueryResult result;
};

// Closed-loop callers, and the queries each attempts per round: a caller
// that is inside a round when the window closes finishes it (untimed), so
// every run attempts whole rounds.
constexpr int kCallers = 1024;
constexpr int64_t kRoundQueries = 1024;

// Sample every Nth completion of a type per caller: brute force costs a
// full scan per window and per k-NN query.
int64_t SampleEvery(QueryType type) {
  switch (type) {
    case QueryType::kKnn: return 128;
    case QueryType::kJoinRegion: return 8;
    default: return 1024;
  }
}

// One closed-loop caller: at most one query outstanding, the next one
// submitted from the previous one's completion callback. Successive
// callbacks of one caller are ordered through the service's queue, so its
// fields need no lock; but once Submit() has accepted a query the callback
// may already run on a worker, so SubmitNext() leaves the caller alone
// after that.
struct alignas(64) Caller {
  explicit Caller(QueryMix m) : mix(std::move(m)) {}
  QueryMix mix;
  QueryDescriptor descriptor;
  int64_t submit_ns = 0;
  bool in_window = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t seen[4] = {};
  std::vector<Sample> samples;
  int64_t queue_wait_us = 0;  // Traced runs only.
  int64_t exec_us = 0;
};

// What one thread running driver code (the main thread, and the service's
// workers, which run the callbacks) recorded; written by that thread only
// and read after every one of them has stopped.
struct alignas(64) ThreadFigures {
  std::vector<Slice> slices;  // Completions by slice of the window.
  int64_t submits = 0;        // Traced runs only, from here on.
  int64_t submit_ns = 0;
  int64_t driver_ns = 0;      // Callback time outside Submit().
};

class ServeDriver {
 public:
  static constexpr int kMaxThreads = 64;
  static constexpr int64_t kSliceNs = 100'000'000;

  ServeDriver(psj::serve::SpatialQueryService* service, const Rect& domain,
              uint64_t mix_seed, const LoopOptions& options)
      : service_(service),
        options_(options),
        num_slices_(std::max<size_t>(
            1, static_cast<size_t>(std::ceil(options.seconds * 1e9 /
                                             static_cast<double>(kSliceNs))))),
        // order: relaxed — only uniqueness matters.
        generation_(next_generation_.fetch_add(1, std::memory_order_relaxed)),
        figures_(kMaxThreads),
        steal_(num_slices_, 0.0) {
    callers_.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers_.emplace_back(QueryMix(domain, MixSeed(mix_seed, 100 + c)));
    }
  }

  // Warm-up, measuring window, drain.
  void Run() {
    outstanding_.store(static_cast<int64_t>(callers_.size()));
    for (Caller& c : callers_) SubmitNext(c);
    Sleep(options_.warmup_s);
    const psj::serve::ServiceStats before = service_->Stats();
    double cpu = ProcessCpuSeconds();
    CpuTicks ticks = ReadCpuTicks();
    start_ns_ = NowNs();
    phase_.store(kMeasure, std::memory_order_release);
    for (size_t i = 0; i < num_slices_; ++i) {
      const int64_t boundary =
          start_ns_ + static_cast<int64_t>(i + 1) * kSliceNs;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<int64_t>(0, boundary - NowNs())));
      const CpuTicks t = ReadCpuTicks();
      steal_[i] = StealShare(ticks, t);
      ticks = t;
      const double now_cpu = ProcessCpuSeconds();
      if (TracedSlice(i)) traced_cpu_s_ += now_cpu - cpu;
      cpu = now_cpu;
    }
    phase_.store(kStop, std::memory_order_release);
    const psj::serve::ServiceStats after = service_->Stats();
    {
      psj::util::MutexLock lock(&mu_);
      done_cv_.Wait(mu_, [this] { return outstanding_.load() == 0; });
    }
    window_.completed = after.completed_ok - before.completed_ok;
    window_.batches = after.batches_executed - before.batches_executed;
    window_.batched = after.batch_size.sum() - before.batch_size.sum();
    window_.nodes = after.descent.nodes_visited - before.descent.nodes_visited;
    window_.entry_tests =
        after.descent.entry_tests - before.descent.entry_tests;
  }

  // Service counters over the measuring window.
  struct Window {
    int64_t completed = 0;
    int64_t batches = 0;
    int64_t batched = 0;  // Sum of batch sizes.
    int64_t nodes = 0;
    int64_t entry_tests = 0;
  };

  std::vector<Caller>& callers() { return callers_; }
  const Window& window() const { return window_; }
  // Process CPU time over the traced slices.
  double traced_cpu_s() const { return traced_cpu_s_; }
  double slice_s() const { return static_cast<double>(kSliceNs) * 1e-9; }

  // Every thread's slices merged, with the steal share of each.
  std::vector<Slice> Slices() const {
    std::vector<Slice> merged(num_slices_);
    for (size_t i = 0; i < num_slices_; ++i) {
      merged[i].steal_share = steal_[i];
      merged[i].traced = TracedSlice(i);
      for (const ThreadFigures& f : figures_) {
        if (f.slices.empty()) continue;
        merged[i].latency.Merge(f.slices[i].latency);
        merged[i].ops += f.slices[i].ops;
      }
    }
    return merged;
  }

  // Heap bytes of the per-thread slices and the stored samples.
  size_t OwnedBytes() const {
    size_t bytes = 0;
    for (const ThreadFigures& f : figures_) {
      for (const Slice& slice : f.slices) bytes += slice.latency.bytes();
    }
    for (const Caller& c : callers_) {
      bytes += c.samples.capacity() * sizeof(Sample);
      for (const Sample& s : c.samples) {
        bytes += s.result.ids.capacity() * sizeof(uint64_t) +
                 s.result.neighbors.capacity() *
                     sizeof(psj::RStarTree::Neighbor) +
                 s.result.pairs.capacity() * sizeof(s.result.pairs[0]);
      }
    }
    return bytes;
  }

  ThreadFigures Traced() const {
    ThreadFigures sum;
    for (const ThreadFigures& f : figures_) {
      sum.submits += f.submits;
      sum.submit_ns += f.submit_ns;
      sum.driver_ns += f.driver_ns;
    }
    return sum;
  }

 private:
  enum Phase : int { kWarm, kMeasure, kStop };

  static void Sleep(double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  bool TracedSlice(size_t i) const { return options_.traced && i % 2 == 0; }

  // The measuring-window slice at time `ns`, or -1 outside the window.
  int64_t SliceAt(int64_t ns) const {
    if (phase_.load(std::memory_order_acquire) != kMeasure) return -1;
    return std::min<int64_t>((ns - start_ns_) / kSliceNs,
                             static_cast<int64_t>(num_slices_) - 1);
  }

  bool TracedAt(int64_t ns) const {
    const int64_t i = SliceAt(ns);
    return i >= 0 && TracedSlice(static_cast<size_t>(i));
  }

  ThreadFigures& ThisThread() {
    thread_local uint64_t generation = 0;
    thread_local int index = 0;
    if (generation != generation_) {
      generation = generation_;
      index = used_.fetch_add(1, std::memory_order_relaxed);
      PSJ_CHECK_LT(index, kMaxThreads);
      figures_[static_cast<size_t>(index)].slices.resize(num_slices_);
    }
    return figures_[static_cast<size_t>(index)];
  }

  // Submits the caller's next query; returns the time Submit() took.
  int64_t SubmitNext(Caller& c) {
    c.descriptor = c.mix.Next();
    const int phase = phase_.load(std::memory_order_acquire);
    c.in_window = phase == kMeasure ||
                  (phase == kStop && c.attempted % kRoundQueries != 0);
    const bool in_window = c.in_window;
    const int64_t start = NowNs();
    c.submit_ns = start;
    const psj::serve::Submission submission = service_->Submit(
        c.descriptor, [this, &c](QueryResult r) { Done(c, std::move(r)); });
    const int64_t end = NowNs();
    if (!submission.accepted) {
      // No callback will come: the caller is ours again, and it ends here.
      if (in_window) {
        ++c.attempted;
        ++c.failed;
      }
      Finish();
    }
    if (TracedAt(start)) {
      ThreadFigures& f = ThisThread();
      if (f.submits++ % 1024 == 0) {
        options_.spans->Record("SpatialQueryService::Submit", start, end, 0,
                               /*count=*/false);
      }
      f.submit_ns += end - start;
    }
    return end - start;
  }

  void Done(Caller& c, QueryResult r) {
    const int64_t now = NowNs();
    const int phase = phase_.load(std::memory_order_acquire);
    const int64_t i = SliceAt(now);
    if (i >= 0) {
      Slice& slice = ThisThread().slices[static_cast<size_t>(i)];
      ++slice.ops;
      if (c.in_window) slice.latency.Add(now - c.submit_ns);
    }
    if (c.in_window) {
      ++c.attempted;
      if (!r.complete) ++c.failed;
      if (options_.traced) {
        c.queue_wait_us += r.queue_wait_micros;
        c.exec_us += r.latency_micros - r.queue_wait_micros;
      }
      const auto type = static_cast<size_t>(c.descriptor.type);
      if (c.seen[type]++ % SampleEvery(c.descriptor.type) == 0) {
        c.samples.push_back(Sample{c.descriptor, std::move(r)});
      }
    }
    if (phase == kStop && c.attempted % kRoundQueries == 0) {
      Finish();
      return;
    }
    const int64_t submit_ns = SubmitNext(c);
    if (i >= 0 && TracedSlice(static_cast<size_t>(i))) {
      ThisThread().driver_ns += NowNs() - now - submit_ns;
    }
  }

  void Finish() {
    // order: acq_rel — the last caller's decrement publishes every
    // caller's fields to the thread woken below.
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      psj::util::MutexLock lock(&mu_);
      done_cv_.NotifyAll();
    }
  }

  static inline std::atomic<uint64_t> next_generation_{1};

  psj::serve::SpatialQueryService* const service_;
  const LoopOptions options_;
  const size_t num_slices_;
  const uint64_t generation_;
  std::vector<Caller> callers_;
  std::vector<ThreadFigures> figures_;
  std::vector<double> steal_;  // By slice; main thread only.
  // Written before the release store of phase_ that opens the window.
  int64_t start_ns_ = 0;
  // order: relaxed — slot numbers need only be unique.
  std::atomic<int> used_{0};
  // order: acquire/release — the phase flips are the window's edges.
  std::atomic<int> phase_{kWarm};
  std::atomic<int64_t> outstanding_{0};
  psj::util::Mutex mu_;
  psj::util::CondVar done_cv_;
  Window window_;
  double traced_cpu_s_ = 0.0;
};

// The k-NN tie probe: 40 rectangles that all touch the origin, so all lie
// at MINDIST 0 from it, even ids to its lower left and odd ids to its
// upper right, which insertion puts in two leaves. KnnQuery(origin, 4)
// must return ids 0, 1, 2, 3 at distance 0 (ties by id). Its inputs do not
// depend on the seed, so it passes or fails alike in every run.
class KnnTieProbe {
 public:
  KnnTieProbe() : tree_(/*tree_id=*/3) {
    for (uint64_t id = 0; id < 40; ++id) {
      const double w = 1.0 + 0.01 * static_cast<double>(id);
      rects_.push_back(id % 2 == 0 ? Rect(-w, -1.0, 0.0, 0.0)
                                   : Rect(0.0, 0.0, w, 1.0));
      tree_.Insert(rects_.back(), id);
    }
    tree_.Seal();
    want_ = BruteKnn(rects_, origin_, kK);
  }

  bool Passes() const {
    const std::vector<psj::RStarTree::Neighbor> got =
        tree_.KnnQuery(origin_, kK);
    if (got.size() != want_.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].object_id != want_[i].id ||
          got[i].distance != want_[i].distance) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr size_t kK = 4;
  const psj::Point origin_{0.0, 0.0};
  std::vector<Rect> rects_;
  psj::RStarTree tree_;
  std::vector<Nearest> want_;
};

// Brute-force check of one sample. A k-NN answer that is right except for
// how it orders or picks among objects at equal distance passes, but sets
// `tie_order`: RStarTree::KnnQuery does not order such ties by id, and
// which sampled queries meet a tie depends on the seed, so the fault is
// counted through KnnTieProbe instead (README.md, "Known faults").
bool SampleCorrect(const Reference& ref, const Sample& s, bool* tie_order) {
  const QueryDescriptor& d = s.descriptor;
  const std::vector<Rect>& rects =
      d.target == psj::serve::TreeTarget::kTreeR ? ref.rects_r : ref.rects_s;
  switch (d.type) {
    case QueryType::kWindow:
    case QueryType::kPoint: {
      std::vector<uint64_t> got = s.result.ids;
      std::sort(got.begin(), got.end());
      return got == BruteWindow(rects, d.rect);
    }
    case QueryType::kKnn: {
      std::vector<Nearest> got;
      for (const psj::RStarTree::Neighbor& n : s.result.neighbors) {
        got.push_back(Nearest{n.object_id, n.distance});
      }
      const KnnVerdict verdict =
          CheckKnn(BruteKnnWithTies(rects, d.point, d.k), d.k, got);
      *tie_order = verdict == KnnVerdict::kTieOrder;
      return verdict != KnnVerdict::kWrong;
    }
    case QueryType::kJoinRegion: {
      Pairs want;
      for (const auto& [a, b] : ref.candidates.pairs()) {
        if (ThreeBoxesMeet(ref.rects_r[a], ref.rects_s[b], d.rect)) {
          want.emplace_back(a, b);
        }
      }
      Pairs got = s.result.pairs;
      std::sort(got.begin(), got.end());
      got.erase(std::unique(got.begin(), got.end()), got.end());
      return got == want;
    }
  }
  return false;
}

}  // namespace

LoopResult RunServeLoop(psj::serve::SpatialQueryService* service,
                        const Inputs& inputs, const Reference& ref,
                        uint64_t mix_seed, const LoopOptions& options) {
  ServeDriver driver(service, QueryDomain(inputs), mix_seed, options);
  LoopResult out;
  driver.Run();

  // Every round of a caller's queries adds one tie probe op.
  const KnnTieProbe probe;
  int64_t queue_wait_us = 0;
  int64_t exec_us = 0;
  for (const Caller& c : driver.callers()) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    queue_wait_us += c.queue_wait_us;
    exec_us += c.exec_us;
    for (int64_t r = 0; r < c.attempted / kRoundQueries; ++r) {
      ++out.attempted;
      if (!probe.Passes()) {
        ++out.failed;
        ++out.tie_probes_failed;
      }
    }
  }
  const std::vector<Slice> slices = driver.Slices();
  out.quiet = KeepQuietHalf(slices);
  out.owned_bytes = driver.OwnedBytes() + out.quiet.latency.bytes();
  for (const Slice& slice : slices) out.owned_bytes += slice.latency.bytes();
  out.ops_per_s = static_cast<double>(out.quiet.ops) /
                  (out.quiet.kept * driver.slice_s());
  if (options.traced) {
    out.trace_overhead_pct = TraceOverheadPct(slices, driver.slice_s());
  }

  // Check the samples on as many threads as the service had workers; the
  // service is idle by now.
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> tie_order_samples{0};
  std::atomic<size_t> next{0};
  std::vector<std::thread> checkers;
  std::vector<Caller>& callers = driver.callers();
  for (int t = 0; t < service->num_threads(); ++t) {
    checkers.emplace_back([&] {
      for (size_t c; (c = next.fetch_add(1)) < callers.size();) {
        for (const Sample& s : callers[c].samples) {
          bool tie_order = false;
          const bool correct = SampleCorrect(ref, s, &tie_order);
          if (tie_order) tie_order_samples.fetch_add(1);
          if (correct) continue;
          wrong.fetch_add(1);
          const QueryDescriptor& d = s.descriptor;
          std::fprintf(stderr,
                       "perfbench: %s query on tree %s differs from brute "
                       "force: rect (%.17g, %.17g, %.17g, %.17g) point "
                       "(%.17g, %.17g) k %u; %zu ids, %zu neighbors, %zu "
                       "pairs, complete %d\n",
                       std::string(psj::serve::ToString(d.type)).c_str(),
                       d.target == psj::serve::TreeTarget::kTreeR ? "r" : "s",
                       d.rect.xl, d.rect.yl, d.rect.xu, d.rect.yu, d.point.x,
                       d.point.y, d.k, s.result.ids.size(),
                       s.result.neighbors.size(), s.result.pairs.size(),
                       s.result.complete ? 1 : 0);
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  out.mismatches = wrong.load();
  out.failed += out.mismatches;
  out.checked = 0;
  for (const Caller& c : callers) {
    out.checked += static_cast<int64_t>(c.samples.size());
  }
  out.knn_tie_order = tie_order_samples.load();

  if (options.traced) {
    const auto per = [](double value, int64_t count) {
      return value / static_cast<double>(std::max<int64_t>(1, count));
    };
    const ServeDriver::Window& w = driver.window();
    const ThreadFigures f = driver.Traced();
    options.spans->Aggregate("SpatialQueryService::Submit", f.submits,
                             f.submit_ns);
    MetricMap& m = out.layer;
    m["serve.submit_us"] = {per(f.submit_ns * 1e-3, f.submits), "us"};
    m["serve.batch_size"] = {per(w.batched, w.batches), "count"};
    m["serve.queue_wait_us"] = {per(queue_wait_us, out.attempted), "us"};
    m["serve.exec_us"] = {per(exec_us, out.attempted), "us"};
    m["serve.nodes_per_query"] = {per(w.nodes, w.completed), "count"};
    m["serve.entry_tests_per_query"] = {per(w.entry_tests, w.completed),
                                        "count"};
    m["driver.cpu_share"] = {f.driver_ns * 1e-9 / driver.traced_cpu_s(),
                             "ratio"};
  }
  return out;
}

}  // namespace perfbench
