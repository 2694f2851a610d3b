// The repository's end-to-end benchmark driver. One run: build the
// workload's inputs from --seed (three times, for set-up time), compute the
// reference answers, warm up, measure for --seconds and check every output.
// With --trace 1 it measures an untraced and a traced half and runs the
// per-layer ladder. The last line of stdout is the run's JSON result.
//
//   perfbench --workload join-paper|serve-hotspot --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--threads T]
//
// --threads (default 4) sets join-paper's join threads and serve-hotspot's
// service workers, for the thread sweeps in README.md.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "geo/node_scan.h"
#include "util/json_writer.h"

namespace perfbench {
namespace {

// The metrics a run prints, in BENCHMARK.json's order.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},    {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"data.generate_s", "s"},
    {"rtree.insert_build_s", "s"},
    {"rtree.str_build_s", "s"},
    {"rtree.seal_ms", "ms"},
    {"rtree.window_query_us", "us"},
    {"rtree.knn_query_us", "us"},
    {"geo.scan_ns_per_rect", "ns"},
    {"geo.refine_us_per_candidate", "us"},
    {"core.task_creation_ms", "ms"},
    {"core.tasks", "count"},
    {"join.sequential_ms", "ms"},
    {"join.node_pairs", "count"},
    {"join.ns_per_node_pair", "ns"},
    {"native.speedup", "ratio"},
    {"native.busy_share", "ratio"},
    {"native.serial_ms", "ms"},
    {"native.imbalance", "ratio"},
    {"native.steals_per_join", "count"},
    {"serve.submit_us", "us"},
    {"serve.batch_size", "count"},
    {"serve.queue_wait_us", "us"},
    {"serve.exec_us", "us"},
    {"serve.nodes_per_query", "count"},
    {"serve.entry_tests_per_query", "count"},
    {"serve.batch_descent_us_per_query", "us"},
    {"serve.share_ratio", "ratio"},
    {"sim.lsr_ms", "ms"},
    {"sim.gsrr_ms", "ms"},
    {"sim.gd_ms", "ms"},
    {"sim.response_s.lsr", "s"},
    {"sim.response_s.gsrr", "s"},
    {"sim.response_s.gd", "s"},
    {"buffer.disk_accesses", "count"},
    {"buffer.remote_hits", "count"},
    {"driver.cpu_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

// How each workload is made up and measured (README.md, "Workloads").
struct Workload {
  const char* name;
  psj::TreeBuildMethod build;  // Both trees; the maps are full scale.
  int64_t min_ops;  // Ten samples beyond the tail percentile, at least.
};
constexpr Workload kWorkloads[] = {
    {"join-paper", psj::TreeBuildMethod::kInsertion, 200},
    {"serve-hotspot", psj::TreeBuildMethod::kStr, 1000},
};
constexpr double kTailQuantile = 0.95;  // op_tail_ms percentile.
constexpr double kWarmupS = 2.0;
constexpr int kSetups = 3;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "join-paper|serve-hotspot --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--threads T]\n",
               why);
  return 2;
}

std::string Format(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The run's result line: one JSON object on one line.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<MetricDef>& defs,
                       const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(d.name).append("\": {\"value\": ");
    out.append(Format(metrics.at(d.name).first));
    out.append(", \"unit\": \"").append(d.unit).append("\"}");
  }
  return out + "}}";
}

// The per-run report file: everything in the result line plus the seed,
// the host fingerprint, every set-up's times and every span total.
struct Counts {
  int64_t attempted;
  int64_t failed;
  int64_t tie_probes_failed;
  int64_t checked;
  int64_t knn_tie_order;
  double owned_mb;
};

bool WriteReport(const std::string& path, const RunOptions& run,
                 bool correct,
                 const std::string& self_check, const Counts& counts,
                 const std::vector<MetricDef>& defs,
                 const MetricMap& metrics,
                 const std::vector<SetupTimes>& setups,
                 const QuietHalf& quiet, const Spans& spans,
                 const std::string& trace_path) {
  psj::JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("psj-perfbench-run-v1");
  json.Key("workload");
  json.String(run.workload);
  json.Key("seed");
  json.Int(static_cast<int64_t>(run.seed));
  json.Key("seconds");
  json.DoublePrecise(run.seconds);
  json.Key("trace");
  json.Bool(run.trace);
  json.Key("threads");
  json.Int(run.threads);
  json.Key("host");
  json.BeginObject();
  json.Key("nproc");
  json.Int(sysconf(_SC_NPROCESSORS_ONLN));
  json.Key("node_scan_isa");
  json.String(psj::NodeScanIsa());
  json.Key("compiler");
  json.String(PERFBENCH_COMPILER);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.EndObject();
  json.Key("tail_percentile");
  json.DoublePrecise(kTailQuantile * 100);
  json.Key("correct");
  json.Bool(correct);
  json.Key("self_check");
  json.String(self_check.empty() ? "pass" : self_check);
  json.Key("attempted");
  json.Int(counts.attempted);
  json.Key("failed");
  json.Int(counts.failed);
  json.Key("knn_tie_probes_failed");
  json.Int(counts.tie_probes_failed);
  json.Key("outputs_checked");
  json.Int(counts.checked);
  json.Key("knn_tie_order_deviations");
  json.Int(counts.knn_tie_order);
  json.Key("benchmark_owned_mb");
  json.DoublePrecise(counts.owned_mb);
  json.Key("metrics");
  json.BeginObject();
  for (const MetricDef& d : defs) {
    json.Key(d.name);
    json.BeginObject();
    json.Key("value");
    json.DoublePrecise(metrics.at(d.name).first);
    json.Key("unit");
    json.String(d.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("timing");
  json.BeginObject();
  json.Key("slices_kept");
  json.Int(quiet.kept);
  json.Key("slices_total");
  json.Int(quiet.total);
  json.Key("timed_ops_kept");
  json.Int(quiet.ops);
  json.Key("steal_share_all");
  json.DoublePrecise(quiet.steal_all);
  json.Key("steal_share_kept");
  json.DoublePrecise(quiet.steal_kept);
  json.Key("latency_ms");
  json.BeginObject();
  for (const auto& [name, q] : {std::pair<const char*, double>{"p50", 0.5},
                                {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}}) {
    json.Key(name);
    json.DoublePrecise(quiet.latency.QuantileMs(q));
  }
  json.EndObject();
  json.EndObject();
  json.Key("setups");
  json.BeginArray();
  for (const SetupTimes& t : setups) {
    json.BeginObject();
    json.Key("total_s");
    json.DoublePrecise(t.total_s);
    json.Key("generate_s");
    json.DoublePrecise(t.generate_s);
    json.Key("build_s");
    json.DoublePrecise(t.build_s);
    json.Key("seal_ms");
    json.DoublePrecise(t.seal_ms);
    json.EndObject();
  }
  json.EndArray();
  if (run.trace) {
    json.Key("chrome_trace");
    json.String(trace_path);
    json.Key("span_totals");
    json.BeginObject();
    for (const auto& [name, totals] : spans.AllTotals()) {
      json.Key(name);
      json.BeginObject();
      json.Key("calls");
      json.Int(totals.count);
      json.Key("total_ms");
      json.DoublePrecise(static_cast<double>(totals.total_ns) * 1e-6);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  return json.WriteFile(path);
}

void MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

int Run(const RunOptions& run) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (run.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");
  const bool serve = run.workload == "serve-hotspot";

  const std::string self_check = SelfCheck();
  Spans spans(run.trace);

  // Set up kSetups times from the same seed; keep the last inputs (and, for
  // serve, the started service). setup_s is the median.
  std::vector<SetupTimes> setups;
  Inputs inputs;
  std::unique_ptr<psj::serve::SpatialQueryService> service;
  for (int i = 0; i < kSetups; ++i) {
    if (service != nullptr) service->Stop();
    service.reset();
    inputs = Inputs();
    SetupTimes t;
    Spans* setup_spans = i + 1 == kSetups ? &spans : nullptr;
    const int64_t start = NowNs();
    GenerateMaps(run.seed, setup_spans, &inputs, &t);
    BuildTrees(workload->build, setup_spans, inputs, &inputs.tree_r,
               &inputs.tree_s, &t);
    if (serve) {
      // Batching on with the default window and maximum batch; the queue
      // (4096) holds more than the 1024 callers, and there are no
      // deadlines, so nothing is rejected.
      psj::serve::ServiceConfig config;
      config.num_threads = run.threads;
      service = std::make_unique<psj::serve::SpatialQueryService>(
          inputs.tree_r.get(), inputs.tree_s.get(), config);
      service->Start();
    }
    t.total_s = static_cast<double>(NowNs() - start) * 1e-9;
    setups.push_back(t);
  }
  const auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  SetupTimes setup;
  setup.total_s = median_of(&SetupTimes::total_s);
  setup.generate_s = median_of(&SetupTimes::generate_s);
  setup.build_s = median_of(&SetupTimes::build_s);
  setup.seal_ms = median_of(&SetupTimes::seal_ms);

  const Reference ref = MakeReference(inputs);

  // A traced run traces every other 100 ms slice of the same loop, so the
  // untraced slices give its overhead and the native join's untraced p50.
  LoopOptions options;
  options.seconds = run.seconds;
  options.warmup_s = kWarmupS;
  options.min_ops = run.trace ? 1 : workload->min_ops;
  options.traced = run.trace;
  options.spans = &spans;
  LoopResult loop;
  if (serve) {
    loop = RunServeLoop(service.get(), inputs, ref, MixSeed(run.seed, 4),
                        options);
  } else {
    loop = RunJoinLoop(inputs, ref, run.threads, options);
  }
  int64_t mismatches = loop.mismatches;
  // What the benchmark itself holds when the loop ends: part of the peak
  // resident set it reports.
  const double owned_mb =
      static_cast<double>(ReferenceBytes(ref) + loop.owned_bytes) /
      (1024.0 * 1024.0);

  MetricMap metrics;
  std::vector<MetricDef> defs;
  std::string trace_path;
  if (!run.trace) {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    metrics["setup_s"] = {setup.total_s, "s"};
    metrics["ops_per_s"] = {loop.ops_per_s, "1/s"};
    metrics["op_p50_ms"] = {loop.quiet.latency.QuantileMs(0.5), "ms"};
    metrics["op_tail_ms"] = {
        loop.quiet.latency.QuantileMs(kTailQuantile), "ms"};
  } else {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (service != nullptr) service->Stop();
    LadderInput in;
    in.build = workload->build;
    in.seed = run.seed;
    in.inputs = &inputs;
    in.ref = &ref;
    in.setup = setup;
    if (run.workload == "join-paper") in.own_native = &loop;
    if (serve) in.own_serve = &loop;
    mismatches += RunLayerLadder(in, &spans, &metrics);
    metrics["trace.overhead_pct"] = {loop.trace_overhead_pct, "%"};
    MakeDirs(run.out_dir);
    trace_path = run.out_dir + "/" + run.workload + "-seed" +
                 std::to_string(run.seed) + ".trace.json";
    if (!spans.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (service != nullptr) service->Stop();
  service.reset();
  metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  for (const MetricDef& d : defs) {
    if (metrics.count(d.name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
      return 1;
    }
  }

  // Every failure but the k-NN tie probe's (README.md, "Known faults")
  // makes the run incorrect.
  const bool correct = self_check.empty() && mismatches == 0 &&
                       loop.failed == loop.tie_probes_failed;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.trace ? 1 : 0, run.threads);
  std::printf("host: nproc=%ld isa=%s compiler=\"%s\" build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), psj::NodeScanIsa(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("inputs: %zu + %zu objects, %zu reference candidates, %lld "
              "answers\n",
              inputs.store_r.size(), inputs.store_s.size(),
              ref.candidates.size(),
              static_cast<long long>(ref.num_answers));
  std::printf("self-check: %s\n",
              self_check.empty() ? "pass" : self_check.c_str());
  std::printf("ops: attempted=%lld failed=%lld (oracle mismatches %lld, "
              "k-NN tie probes %lld), tail=p%g\n",
              static_cast<long long>(loop.attempted),
              static_cast<long long>(loop.failed),
              static_cast<long long>(mismatches),
              static_cast<long long>(loop.tie_probes_failed),
              kTailQuantile * 100);
  std::printf("timing: %d of %d slices kept (the quietest half or more), "
              "%lld timed ops in them; machine steal share %.4f over all "
              "slices, %.4f over the kept ones\n",
              loop.quiet.kept, loop.quiet.total,
              static_cast<long long>(loop.quiet.ops), loop.quiet.steal_all,
              loop.quiet.steal_kept);
  std::printf("oracle: %lld outputs checked; %lld k-NN answers right only up "
              "to the order of equal distances\n",
              static_cast<long long>(loop.checked),
              static_cast<long long>(loop.knn_tie_order));
  std::printf("memory: %.1f MB of the peak resident set is the "
              "benchmark's own (reference answers, histograms, samples)\n",
              owned_mb);
  for (const MetricDef& d : defs) {
    std::printf("  %-36s %16.6f %s\n", d.name, metrics.at(d.name).first,
                d.unit);
  }
  MakeDirs(run.out_dir);
  const std::string report_path = run.out_dir + "/" + run.workload + "-seed" +
                                  std::to_string(run.seed) + "-trace" +
                                  (run.trace ? "1" : "0") + ".json";
  if (!WriteReport(report_path, run, correct, self_check,
                   Counts{loop.attempted, loop.failed,
                          loop.tie_probes_failed, loop.checked,
                          loop.knn_tie_order, owned_mb},
                   defs,
                   metrics, setups, loop.quiet, spans, trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("report: %s\n", report_path.c_str());
  if (!trace_path.empty()) {
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }
  std::printf("%s\n",
              ResultLine(correct, loop.attempted, loop.failed, defs, metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      run.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      run.out_dir = value;
    } else if (flag == "--threads") {
      run.threads = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return perfbench::Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return perfbench::Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || !have_workload || !(run.seconds > 0) ||
      run.threads < 1 || run.threads > 64) {
    return perfbench::Usage("missing or malformed arguments");
  }
  return perfbench::Run(run);
}
