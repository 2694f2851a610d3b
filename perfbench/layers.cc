// The per-layer probe ladder of a traced run: every layer's public
// functions called from outside on the workload's own inputs, each call
// inside a span, plus the counts those calls return.

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/task_builder.h"
#include "geo/node_scan.h"
#include "join/sequential_join.h"
#include "serve/batch_descent.h"
#include "serve/service.h"

namespace perfbench {

using psj::Rect;

namespace {

double PerCall(const Spans& spans, const char* name, double scale) {
  const Spans::Totals t = spans.Get(name);
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) * scale /
                            static_cast<double>(t.count);
}

// The serve mix's window/point queries and k-NN queries, drawn from one
// stream so the probes and the served traffic share their make-up.
struct ProbeQueries {
  std::vector<psj::serve::QueryDescriptor> windows;  // Windows and points.
  std::vector<psj::serve::QueryDescriptor> knn;
};

ProbeQueries DrawProbeQueries(const Inputs& inputs, uint64_t seed,
                              size_t num_windows, size_t num_knn) {
  ProbeQueries q;
  QueryMix mix(QueryDomain(inputs), MixSeed(seed, 50));
  while (q.windows.size() < num_windows || q.knn.size() < num_knn) {
    const psj::serve::QueryDescriptor d = mix.Next();
    if (d.type == psj::serve::QueryType::kKnn) {
      if (q.knn.size() < num_knn) q.knn.push_back(d);
    } else if (d.type != psj::serve::QueryType::kJoinRegion) {
      if (q.windows.size() < num_windows) q.windows.push_back(d);
    }
  }
  return q;
}

const psj::RStarTree& TreeOf(const Inputs& inputs,
                             const psj::serve::QueryDescriptor& d) {
  return d.target == psj::serve::TreeTarget::kTreeR ? *inputs.tree_r
                                                    : *inputs.tree_s;
}

// rtree: single queries, one at a time.
void ProbeSingleQueries(const Inputs& inputs, const ProbeQueries& q,
                        Spans* spans, MetricMap* m) {
  for (const auto& d : q.windows) {
    Spans::Scope span(spans, "WindowQuery");
    TreeOf(inputs, d).WindowQuery(d.rect);
  }
  for (const auto& d : q.knn) {
    Spans::Scope span(spans, "KnnQuery");
    TreeOf(inputs, d).KnnQuery(d.point, d.k);
  }
  (*m)["rtree.window_query_us"] = {PerCall(*spans, "WindowQuery", 1e-3), "us"};
  (*m)["rtree.knn_query_us"] = {PerCall(*spans, "KnnQuery", 1e-3), "us"};
}

// serve: the same windows through the shared batch descent, 64 at a time
// per tree, against the single-query cost above.
void ProbeBatchDescent(const Inputs& inputs, const ProbeQueries& q,
                       Spans* spans, MetricMap* m) {
  constexpr size_t kBatch = 64;
  const psj::serve::NowMicrosFn never = [] { return int64_t{0}; };
  for (const psj::RStarTree* tree :
       {inputs.tree_r.get(), inputs.tree_s.get()}) {
    std::vector<Rect> windows;
    for (const auto& d : q.windows) {
      if (&TreeOf(inputs, d) == tree) windows.push_back(d.rect);
    }
    const std::vector<int64_t> no_deadline(kBatch, -1);
    for (size_t i = 0; i < windows.size(); i += kBatch) {
      const size_t n = std::min(kBatch, windows.size() - i);
      psj::serve::BatchWindowOutput out;
      const int64_t start = NowNs();
      psj::serve::BatchWindowQueries(
          *tree, std::span<const Rect>(windows.data() + i, n),
          std::span<const int64_t>(no_deadline.data(), n), never, &out);
      const int64_t end = NowNs();
      spans->Record("BatchWindowQueries", start, end, -1, /*count=*/false);
      spans->Aggregate("BatchWindowQueries", static_cast<int64_t>(n),
                       end - start);
    }
  }
  const double batched = PerCall(*spans, "BatchWindowQueries", 1e-3);
  (*m)["serve.batch_descent_us_per_query"] = {batched, "us"};
  (*m)["serve.share_ratio"] = {
      batched > 0 ? (*m)["rtree.window_query_us"].first / batched : 0.0,
      "ratio"};
}

// geo: the node-scan kernel over every sealed node of both trees, one
// window at a time. A call scans one node (tens of rectangles), shorter
// than a clock read, so one span covers a window's pass over all nodes.
void ProbeNodeScan(const Inputs& inputs, const ProbeQueries& q, Spans* spans,
                   MetricMap* m) {
  constexpr size_t kWindows = 16;
  std::vector<uint32_t> ids;
  int64_t rects = 0;
  int64_t total_ns = 0;
  for (size_t w = 0; w < std::min(kWindows, q.windows.size()); ++w) {
    const Rect& window = q.windows[w].rect;
    int64_t calls = 0;
    const int64_t start = NowNs();
    for (const psj::RStarTree* tree :
         {inputs.tree_r.get(), inputs.tree_s.get()}) {
      const psj::NodeSoACache& soa = *tree->soa();
      for (uint32_t page = 1; page < tree->num_pages(); ++page) {
        if (tree->IsFreePage(page)) continue;
        const psj::NodeSoAView view = soa.view(page);
        psj::ScanIntersecting(view.rects, window, &ids);
        rects += static_cast<int64_t>(view.size());
        ++calls;
      }
    }
    const int64_t end = NowNs();
    total_ns += end - start;
    spans->Record("ScanIntersecting", start, end, -1, /*count=*/false);
    spans->Aggregate("ScanIntersecting", calls, end - start);
  }
  (*m)["geo.scan_ns_per_rect"] = {
      rects > 0 ? static_cast<double>(total_ns) / rects : 0.0,
      "ns"};
}

}  // namespace

int64_t RunLayerLadder(const LadderInput& in, Spans* spans, MetricMap* m) {
  int64_t mismatches = 0;
  const Inputs& inputs = *in.inputs;
  const Reference& ref = *in.ref;

  // data + rtree build paths. The workload's own build path is timed in
  // set-up; the other one is built here once, on the same maps.
  (*m)["data.generate_s"] = {in.setup.generate_s, "s"};
  (*m)["rtree.seal_ms"] = {in.setup.seal_ms, "ms"};
  {
    const psj::TreeBuildMethod other =
        in.build == psj::TreeBuildMethod::kStr
            ? psj::TreeBuildMethod::kInsertion
            : psj::TreeBuildMethod::kStr;
    SetupTimes times;
    std::unique_ptr<psj::RStarTree> r;
    std::unique_ptr<psj::RStarTree> s;
    BuildTrees(other, spans, inputs, &r, &s, &times);
    const bool insertion = in.build == psj::TreeBuildMethod::kInsertion;
    (*m)["rtree.insert_build_s"] = {insertion ? in.setup.build_s
                                              : times.build_s,
                                    "s"};
    (*m)["rtree.str_build_s"] = {insertion ? times.build_s : in.setup.build_s,
                                 "s"};
  }

  const ProbeQueries queries = DrawProbeQueries(inputs, in.seed, 20000, 1000);
  ProbeSingleQueries(inputs, queries, spans, m);
  ProbeBatchDescent(inputs, queries, spans, m);
  ProbeNodeScan(inputs, queries, spans, m);

  // geo: exact refinement over the reference candidate set, one span for
  // the pass (a call is well under a microsecond); each answer is checked
  // against the benchmark's own segment test.
  {
    const int64_t start = NowNs();
    size_t k = 0;
    for (const auto& [a, b] : ref.candidates.pairs()) {
      const bool meet = inputs.store_r.Get(a).geometry.Intersects(
          inputs.store_s.Get(b).geometry);
      if (meet != ref.is_answer[k++]) ++mismatches;
    }
    const int64_t end = NowNs();
    spans->Record("Polyline::Intersects", start, end, -1, /*count=*/false);
    spans->Aggregate("Polyline::Intersects",
                     static_cast<int64_t>(ref.candidates.size()), end - start);
    (*m)["geo.refine_us_per_candidate"] = {
        PerCall(*spans, "Polyline::Intersects", 1e-3), "us"};
  }

  // core: task creation as the native join does it at 4 threads.
  {
    std::vector<double> ms;
    size_t tasks = 0;
    for (int i = 0; i < 5; ++i) {
      const int64_t start = NowNs();
      psj::JoinTaskSet set;
      {
        Spans::Scope span(spans, "BuildJoinTasks");
        set = psj::BuildJoinTasks(*inputs.tree_r, *inputs.tree_s, 4, 3.0,
                                  psj::NodeMatchOptions());
      }
      ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      tasks = set.tasks.size();
    }
    (*m)["core.task_creation_ms"] = {Median(ms), "ms"};
    (*m)["core.tasks"] = {static_cast<double>(tasks), "count"};
  }

  // join: the sequential R-tree join, checked against the reference.
  double sequential_ms = 0.0;
  {
    SetChecker check(&ref.candidates);
    std::vector<double> ms;
    int64_t node_pairs = 0;
    for (int i = 0; i < 3; ++i) {
      const int64_t start = NowNs();
      psj::SequentialJoinResult result;
      {
        Spans::Scope span(spans, "SequentialRTreeJoin");
        result = psj::SequentialRTreeJoin(*inputs.tree_r, *inputs.tree_s);
      }
      ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      node_pairs = result.node_pairs_processed;
      if (!check.Equal(result.candidates)) ++mismatches;
    }
    sequential_ms = Median(ms);
    (*m)["join.sequential_ms"] = {sequential_ms, "ms"};
    (*m)["join.node_pairs"] = {static_cast<double>(node_pairs), "count"};
    (*m)["join.ns_per_node_pair"] = {
        sequential_ms * 1e6 /
            static_cast<double>(std::max<int64_t>(1, node_pairs)),
        "ns"};
  }

  // native / serve / sim: the workload's own traced loop, or a short probe
  // loop of the same code.
  LoopOptions probe;
  probe.traced = true;
  probe.spans = spans;
  const auto take = [&](const LoopResult& loop) {
    mismatches += loop.mismatches;
    for (const auto& [name, value] : loop.layer) (*m)[name] = value;
  };
  {
    LoopResult own;
    const LoopResult* native = in.own_native;
    if (native == nullptr) {
      LoopOptions o = probe;
      o.warmup_s = 1.0;
      o.seconds = 1.0;
      o.min_ops = 5;
      own = RunJoinLoop(inputs, ref, 4, o);
      native = &own;
    }
    take(*native);
    const double p50 = native->quiet.latency.QuantileMs(0.5);
    (*m)["native.speedup"] = {p50 > 0 ? sequential_ms / p50 : 0.0, "ratio"};
  }
  if (in.own_serve != nullptr) {
    take(*in.own_serve);
  } else {
    psj::serve::ServiceConfig config;
    config.num_threads = 4;
    psj::serve::SpatialQueryService service(inputs.tree_r.get(),
                                            inputs.tree_s.get(), config);
    service.Start();
    LoopOptions o = probe;
    o.warmup_s = 0.5;
    o.seconds = 1.0;
    take(RunServeLoop(&service, inputs, ref, in.seed, o));
    service.Stop();
  }
  {
    LoopOptions o = probe;
    o.seconds = 0.0;  // One op, in the first (traced) slice.
    take(RunSimLoop(inputs, ref, o));
  }
  return mismatches;
}

}  // namespace perfbench
