#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the end-to-end benchmark: run options, inputs,
// the three workload loops and the per-layer probe ladder. See README.md.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "data/map_builder.h"
#include "data/map_object.h"
#include "oracle.h"
#include "rtree/rstar_tree.h"
#include "serve/query.h"
#include "serve/service.h"
#include "spans.h"

namespace perfbench {

using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: derives independent sub-seeds from the run's --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Machine-wide CPU ticks from /proc/stat: `steal` is time the hypervisor
/// gave this machine's virtual CPUs to someone else. Zeros if unreadable.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// \brief Log-linear latency histogram: 64 buckets per power of two
/// (1.6 % wide), quantiles interpolated inside the bucket. Fixed size
/// whatever the op count, so memory does not follow throughput.
class LatencyHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  /// Heap bytes held by the buckets.
  size_t bytes() const { return counts_.capacity() * sizeof(uint32_t); }
  /// Nearest-rank quantile, q in (0, 1], in ms; 0 when empty.
  double QuantileMs(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = 34 * kSub;
  std::vector<uint32_t> counts_;  // Allocated on the first Add.
  int64_t count_ = 0;
};

/// \brief What one time slice of a measuring window saw. A run's figures
/// come from the half of its slices (at least) in which the machine's steal
/// share was lowest (see README.md, "Steal"): slices the hypervisor took
/// CPU away in measure the neighbours, not the program.
struct Slice {
  LatencyHistogram latency;  // Ops completed in the slice.
  int64_t ops = 0;
  double busy_s = 0.0;       // Closed loops: summed op durations.
  double steal_share = 0.0;  // Steal ticks / all ticks over the slice.
  bool traced = false;       // Traced runs trace every other slice.
};

/// The quiet half of a run's slices (of the untraced ones, in a traced
/// run), merged: the half with the least steal, plus every slice with no
/// more steal than the last of them (all slices, when there was none).
struct QuietHalf {
  LatencyHistogram latency;
  int64_t ops = 0;
  double busy_s = 0.0;
  int kept = 0;
  int total = 0;
  double steal_all = 0.0;   // Mean steal share, all slices.
  double steal_kept = 0.0;  // Mean steal share, kept slices.
};
QuietHalf KeepQuietHalf(const std::vector<Slice>& slices);

/// Tracing overhead, %: how much lower the op rate of the traced slices is
/// than that of the untraced ones. Alternating slices cancel the drift a
/// traced half and an untraced half of one run would see. A slice's rate is
/// ops per busy second (closed loops) or per `slice_s` of wall time.
double TraceOverheadPct(const std::vector<Slice>& slices, double slice_s);

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process, MB.
double PeakRssMb();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;  // join-paper's join threads, serve-hotspot's workers.
  std::string out_dir = ".bench_build/perfbench-out";
};

/// The generated maps and their sealed trees.
struct Inputs {
  psj::ObjectStore store_r;
  psj::ObjectStore store_s;
  std::unique_ptr<psj::RStarTree> tree_r;
  std::unique_ptr<psj::RStarTree> tree_s;
};

/// Wall times of one set-up, seconds (seal in ms).
struct SetupTimes {
  double total_s = 0.0;     // Generate + build + seal (+ service start).
  double generate_s = 0.0;  // Both maps.
  double build_s = 0.0;     // Sum over both trees, seal excluded.
  double seal_ms = 0.0;     // Sum over both trees.
};

/// Generates both maps at full scale from the seed
/// (GenerateStreetsMap/GenerateMixedMap).
void GenerateMaps(uint64_t seed, Spans* spans, Inputs* inputs,
                  SetupTimes* times);

/// Builds and seals a tree over each map with BuildTreeFromObjects, one
/// tree per thread (the two builds are independent).
void BuildTrees(psj::TreeBuildMethod method, Spans* spans,
                const Inputs& maps, std::unique_ptr<psj::RStarTree>* tree_r,
                std::unique_ptr<psj::RStarTree>* tree_s, SetupTimes* times);

/// The reference answers every check compares against, computed by the
/// benchmark's own oracles from the generated objects.
struct Reference {
  std::vector<psj::Rect> rects_r;  // MBR by object id.
  std::vector<psj::Rect> rects_s;
  PairIndex candidates;            // Reference MBR join.
  std::vector<bool> is_answer;     // Per candidate: exact refinement.
  int64_t num_answers = 0;
};
Reference MakeReference(const Inputs& inputs);
/// Heap bytes the reference answers hold.
size_t ReferenceBytes(const Reference& ref);

/// Metric name -> (value, unit).
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// What one workload loop measured.
struct LoopResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;       // Oracle mismatches among `failed`.
  int64_t tie_probes_failed = 0;  // k-NN tie probes among `failed`.
  int64_t checked = 0;          // Outputs compared with an oracle.
  int64_t knn_tie_order = 0;    // k-NN answers right up to tie order.
  size_t owned_bytes = 0;       // The loop's own bookkeeping, at its end.
  QuietHalf quiet;              // Latency and ops of the quiet slices.
  double ops_per_s = 0.0;       // Over the quiet slices.
  double trace_overhead_pct = 0.0;  // Traced loops only.
  MetricMap layer;              // Per-layer figures, traced loops only.
};

struct LoopOptions {
  double seconds = 10.0;
  double warmup_s = 0.0;
  int64_t min_ops = 1;   // Keep measuring (up to 3x seconds) until the
                         // quiet half holds this many ops.
  bool traced = false;   // Trace every other 100 ms slice.
  Spans* spans = nullptr;
};

/// join-paper's op: whole NativeRTreeJoin calls at `threads` threads,
/// every result checked set-equal to the reference join.
LoopResult RunJoinLoop(const Inputs& inputs, const Reference& ref,
                       int threads, const LoopOptions& options);

/// serve-hotspot's op: one query through a started SpatialQueryService
/// over the inputs' trees, sent by 1024 closed-loop callers (query streams
/// seeded from `mix_seed`) from the completion callback; a sample of every
/// query type is checked by brute force. Each caller attempts whole rounds
/// of 1024 queries, and every round adds one k-NN tie probe (README.md,
/// "Known faults").
LoopResult RunServeLoop(psj::serve::SpatialQueryService* service,
                        const Inputs& inputs, const Reference& ref,
                        uint64_t mix_seed, const LoopOptions& options);

/// The simulator probe's op: ParallelSpatialJoin::Run for lsr, gsrr and gd
/// in turn; candidates and answers checked against the reference.
LoopResult RunSimLoop(const Inputs& inputs, const Reference& ref,
                      const LoopOptions& options);

/// \brief The serve workload's query mix: the load generator's defaults
/// (60 % of centers in a fixed hotspot, 30 % points, 2 % k-NN with k in
/// 1..16, 0.2 % join regions, the rest windows, each on either tree), as a
/// deterministic stream per seed.
class QueryMix {
 public:
  QueryMix(const psj::Rect& domain, uint64_t seed);
  psj::serve::QueryDescriptor Next();

 private:
  double Uniform();
  psj::Point Center();

  uint64_t state_;
  psj::Rect domain_;
  psj::Rect hot_;
  double side_x_;
  double side_y_;
};

/// The domain the query mix draws from: both trees' root MBRs.
psj::Rect QueryDomain(const Inputs& inputs);

/// What the per-layer ladder runs on.
struct LadderInput {
  psj::TreeBuildMethod build = psj::TreeBuildMethod::kInsertion;
  uint64_t seed = 1;
  const Inputs* inputs = nullptr;
  const Reference* ref = nullptr;
  SetupTimes setup;  // Medians over the run's set-ups.
  /// The workload's own traced loop for its layer; null ones get a short
  /// probe loop of the same code. The simulator always gets one probe op.
  const LoopResult* own_native = nullptr;
  const LoopResult* own_serve = nullptr;
};

/// Runs every per-layer probe on the workload's inputs, each call into a
/// layer inside a span, and fills `layer`. Returns the number of probe
/// outputs that disagreed with the reference.
int64_t RunLayerLadder(const LadderInput& in, Spans* spans, MetricMap* layer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
