// micro_sim — wall-clock microbenchmarks of the simulation substrate.
//
// Measures, for the fiber scheduler:
//   handoff       ns per real yield between two alternating processes
//   fast_path     ns per Sync() elided by the min-clock fast path
//   resource      ns per contended Resource::Use across 8 processes
//   mailbox       ns per Mailbox send/receive roundtrip
// plus the wall-clock time of a small join sweep run sequentially versus
// on the parallel experiment driver. Virtual-time results are identical
// everywhere — these numbers are purely host-side cost.
//
// Emits BENCH_sim.json (or argv[1]) via JsonWriter.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "sim/simulation.h"

namespace psj {
namespace {

using bench::JsonWriter;
using sim::Mailbox;
using sim::Process;
using sim::Resource;
using sim::Scheduler;
using sim::SimTime;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Two processes yield to strictly interleaved times, so every yield is a
// real handoff (the fast path never applies). Returns ns per handoff.
double BenchHandoff(int yields_per_process) {
  Scheduler sched;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn([i, yields_per_process](Process& p) {
      for (int k = 1; k <= yields_per_process; ++k) {
        p.WaitUntil(static_cast<SimTime>(10 * k + i));
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  sched.Run();
  const double seconds = SecondsSince(start);
  return seconds * 1e9 / static_cast<double>(sched.num_dispatches());
}

// A lone process syncing repeatedly: every yield takes the fast path.
double BenchFastPath(int yields) {
  Scheduler sched;
  sched.Spawn([yields](Process& p) {
    for (int k = 0; k < yields; ++k) {
      p.Advance(5);
      p.Sync();
    }
  });
  const auto start = std::chrono::steady_clock::now();
  sched.Run();
  return SecondsSince(start) * 1e9 / static_cast<double>(yields);
}

// Eight processes contend for one server; ns per Use (queueing included).
double BenchResource(int ops_per_process) {
  Scheduler sched;
  Resource disk("disk");
  for (int i = 0; i < 8; ++i) {
    sched.Spawn([&disk, i, ops_per_process](Process& p) {
      for (int k = 0; k < ops_per_process; ++k) {
        p.Advance(static_cast<SimTime>((i * 13 + k * 7) % 50));
        disk.Use(p, 100);
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  sched.Run();
  return SecondsSince(start) * 1e9 /
         static_cast<double>(8 * ops_per_process);
}

// Two processes exchange messages through two mailboxes; ns per roundtrip.
double BenchMailbox(int roundtrips) {
  Scheduler sched;
  Mailbox<int> to_echo;
  Mailbox<int> to_driver;
  Process* echo = sched.Spawn([&](Process& p) {
    for (int k = 0; k < roundtrips; ++k) {
      to_driver.Send(p, to_echo.BlockingReceive(p), /*delay=*/1);
    }
  });
  to_echo.BindOwner(echo);
  Process* driver = sched.Spawn([&](Process& p) {
    for (int k = 0; k < roundtrips; ++k) {
      to_echo.Send(p, k, /*delay=*/1);
      to_driver.BlockingReceive(p);
    }
  });
  to_driver.BindOwner(driver);
  const auto start = std::chrono::steady_clock::now();
  sched.Run();
  return SecondsSince(start) * 1e9 / static_cast<double>(roundtrips);
}


// A 6-config gd sweep, timed once on a single-thread driver and once on
// the default pool. Same configs, bit-identical results; only wall-clock
// differs (and only on multicore hosts).
std::vector<ParallelJoinConfig> SweepConfigs() {
  std::vector<ParallelJoinConfig> configs;
  for (int n : {1, 2, 4, 6, 8, 12}) {
    ParallelJoinConfig config = ParallelJoinConfig::Gd();
    config.reassignment = ReassignmentLevel::kAllLevels;
    config.num_processors = n;
    config.num_disks = n;
    config.total_buffer_pages = static_cast<size_t>(100) *
                                static_cast<size_t>(n);
    configs.push_back(config);
  }
  return configs;
}

double TimeSweep(const std::vector<ParallelJoinConfig>& configs,
                 int num_threads) {
  const auto start = std::chrono::steady_clock::now();
  const auto results = bench::GetWorkload().RunJoins(configs, num_threads);
  (void)results;
  return SecondsSince(start);
}

int Main(int argc, char** argv) {
  bench::PrintHeader(
      "micro_sim — simulator substrate wall-clock costs",
      "a fiber handoff costs tens of nanoseconds; the parallel sweep driver "
      "scales with host cores (speedup ~1x on a single-core host)");

  // Warm up once (stack allocation, allocator), then measure.
  BenchHandoff(1'000);
  const double handoff_ns = BenchHandoff(50'000);
  const double fast_path_ns = BenchFastPath(200'000);
  const double resource_ns = BenchResource(5'000);
  const double mailbox_ns = BenchMailbox(20'000);
  std::printf("%14s %14s %14s %14s\n", "handoff ns", "fast-path ns",
              "resource ns", "mailbox ns");
  std::printf("%14.1f %14.1f %14.1f %14.1f\n", handoff_ns, fast_path_ns,
              resource_ns, mailbox_ns);

  const int host_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const auto configs = SweepConfigs();
  // Build/load the workload outside the timed regions.
  bench::GetWorkload();
  const double sweep_sequential_s = TimeSweep(configs, /*num_threads=*/1);
  const double sweep_parallel_s = TimeSweep(configs, /*num_threads=*/0);
  std::printf(
      "\nsweep of %zu joins: sequential %.2fs, parallel %.2fs "
      "(%.2fx on %d host threads)\n",
      configs.size(), sweep_sequential_s, sweep_parallel_s,
      sweep_sequential_s / sweep_parallel_s, host_threads);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("micro_sim");
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("scale");
  json.Double(bench::BenchScale());
  json.Key("host_threads");
  json.Int(host_threads);
  json.Key("units");
  json.String("ns_per_op");
  json.Key("scheduler");
  json.BeginObject();
  json.Key("handoff_ns");
  json.Double(handoff_ns);
  json.Key("fast_path_yield_ns");
  json.Double(fast_path_ns);
  json.Key("resource_use_ns");
  json.Double(resource_ns);
  json.Key("mailbox_roundtrip_ns");
  json.Double(mailbox_ns);
  json.EndObject();
  json.Key("sweep");
  json.BeginObject();
  json.Key("num_joins");
  json.Int(static_cast<int64_t>(configs.size()));
  json.Key("sequential_seconds");
  json.Double(sweep_sequential_s);
  json.Key("parallel_seconds");
  json.Double(sweep_parallel_s);
  json.Key("speedup");
  json.Double(sweep_sequential_s / sweep_parallel_s);
  json.EndObject();
  json.EndObject();

  const std::string path = argc > 1 ? argv[1] : "BENCH_sim.json";
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace psj

int main(int argc, char** argv) { return psj::Main(argc, argv); }
