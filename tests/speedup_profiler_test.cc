// Speedup-profiler tests: the eight-term decomposition partitions every
// processor's horizon exactly (empty traces, single-event traces and
// zero-duration runs included), and the accounting invariant
// sum(terms) == n * response_time holds for real traced runs of all three
// paper variants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.h"
#include "report/speedup_profiler.h"
#include "sim/simulation.h"
#include "trace/trace_sink.h"

namespace psj {
namespace {

using report::DecomposeSpeedup;
using report::ProcessorBreakdown;
using report::SpeedupDecomposition;

JoinStats StatsWith(std::vector<sim::SimTime> last_work,
                    sim::SimTime response_time,
                    sim::SimTime task_creation_time) {
  JoinStats stats;
  stats.per_processor.resize(last_work.size());
  for (size_t i = 0; i < last_work.size(); ++i) {
    stats.per_processor[i].last_work_time = last_work[i];
  }
  stats.response_time = response_time;
  stats.task_creation_time = task_creation_time;
  return stats;
}

TEST(SpeedupProfilerTest, EmptyTraceStillPartitionsTheHorizon) {
  trace::TraceSink sink;
  const JoinStats stats = StatsWith({1000, 600}, 1000, 200);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "empty");

  ASSERT_EQ(d.per_processor.size(), 2u);
  EXPECT_EQ(d.total_virtual_time, 2000);
  EXPECT_EQ(d.totals.Total(), 2000);
  // cpu 0 worked until the end: the pre-assignment window is sequential,
  // the rest is starvation (nothing shows it working, but the run was on).
  EXPECT_EQ(d.per_processor[0].sequential, 200);
  EXPECT_EQ(d.per_processor[0].starvation, 800);
  EXPECT_EQ(d.per_processor[0].imbalance, 0);
  // cpu 1 finished at 600: everything after that is terminal imbalance.
  EXPECT_EQ(d.per_processor[1].sequential, 200);
  EXPECT_EQ(d.per_processor[1].starvation, 400);
  EXPECT_EQ(d.per_processor[1].imbalance, 400);
}

TEST(SpeedupProfilerTest, SingleEventTrace) {
  trace::TraceSink sink;
  sink.Span(0, trace::Category::kTask, "task", 100, 300);
  const JoinStats stats = StatsWith({300}, 400, 0);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "single");

  ASSERT_EQ(d.per_processor.size(), 1u);
  EXPECT_EQ(d.per_processor[0].compute, 200);
  EXPECT_EQ(d.per_processor[0].starvation, 100);  // [0, 100) before work.
  EXPECT_EQ(d.per_processor[0].imbalance, 100);   // [300, 400) after.
  EXPECT_EQ(d.per_processor[0].Total(), 400);
  EXPECT_EQ(d.totals.Total(), d.total_virtual_time);
}

TEST(SpeedupProfilerTest, ZeroDurationRun) {
  trace::TraceSink sink;
  const JoinStats stats = StatsWith({0, 0, 0}, 0, 0);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "zero");

  EXPECT_EQ(d.num_processors, 3);
  EXPECT_EQ(d.total_virtual_time, 0);
  EXPECT_EQ(d.totals.Total(), 0);
  EXPECT_EQ(d.UsefulFraction(), 0.0);
  for (const ProcessorBreakdown& p : d.per_processor) {
    EXPECT_EQ(p.Total(), 0);
  }
}

TEST(SpeedupProfilerTest, NestedSpansDoNotDoubleCount) {
  trace::TraceSink sink;
  // A task that spends [20, 60) blocked on a disk read, of which [20, 35)
  // was queueing (disk track 1000, arg0 = requester cpu 0).
  sink.Span(0, trace::Category::kTask, "task", 10, 90);
  sink.Span(0, trace::Category::kBufferMiss, "disk read", 20, 60);
  sink.Span(trace::DiskTrack(0), trace::Category::kDiskQueue, "queue", 20, 35,
            /*arg0=*/0);
  const JoinStats stats = StatsWith({90}, 100, 5);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "nested");

  ASSERT_EQ(d.per_processor.size(), 1u);
  const ProcessorBreakdown& p = d.per_processor[0];
  EXPECT_EQ(p.disk_queue, 15);   // [20, 35): queue beats the miss span.
  EXPECT_EQ(p.disk_service, 25); // [35, 60): the rest of the miss.
  EXPECT_EQ(p.compute, 40);      // [10, 20) + [60, 90).
  EXPECT_EQ(p.sequential, 5);    // Idle [0, 5) before creation finished.
  EXPECT_EQ(p.starvation, 5);    // Idle [5, 10) while the run was going.
  EXPECT_EQ(p.imbalance, 10);    // Idle [90, 100).
  EXPECT_EQ(p.Total(), 100);
}

TEST(SpeedupProfilerTest, CreationPhaseIoCountsAsSequential) {
  trace::TraceSink sink;
  // cpu 0 reads pages while creating tasks: that I/O is part of the
  // sequential fraction, not parallel disk time.
  sink.Span(0, trace::Category::kTaskCreation, "task creation", 0, 50);
  sink.Span(0, trace::Category::kBufferMiss, "disk read", 10, 40);
  sink.Span(0, trace::Category::kTask, "task", 50, 80);
  const JoinStats stats = StatsWith({80}, 80, 50);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "creation");

  const ProcessorBreakdown& p = d.per_processor[0];
  EXPECT_EQ(p.sequential, 50);
  EXPECT_EQ(p.disk_service, 0);
  EXPECT_EQ(p.compute, 30);
  EXPECT_EQ(p.Total(), 80);
}

TEST(SpeedupProfilerTest, SpansClippedToHorizon) {
  trace::TraceSink sink;
  sink.Span(0, trace::Category::kTask, "task", -50, 120);
  const JoinStats stats = StatsWith({100}, 100, 0);
  const SpeedupDecomposition d = DecomposeSpeedup(sink, stats, "clip");
  EXPECT_EQ(d.per_processor[0].compute, 100);
  EXPECT_EQ(d.per_processor[0].Total(), 100);
}

// The tentpole invariant on real runs: for every paper variant, the terms
// of every processor sum to the response time, so the decomposition never
// loses or invents virtual time.
TEST(SpeedupProfilerTest, DecompositionSumsToTotalAcrossVariants) {
  PaperWorkloadSpec spec;
  const PaperWorkload workload(spec.Scaled(0.02));
  for (ParallelJoinConfig config :
       {ParallelJoinConfig::Gd(), ParallelJoinConfig::Lsr(),
        ParallelJoinConfig::Gsrr()}) {
    config.num_processors = 4;
    config.num_disks = 4;
    config.reassignment = ReassignmentLevel::kAllLevels;
    trace::TraceSink sink;
    config.trace = &sink;
    auto result = workload.RunJoin(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    const SpeedupDecomposition d =
        DecomposeSpeedup(sink, result->stats, config.Describe());
    EXPECT_EQ(d.total_virtual_time,
              result->stats.response_time * 4) << config.Describe();
    sim::SimTime per_processor_sum = 0;
    for (const ProcessorBreakdown& p : d.per_processor) {
      EXPECT_EQ(p.Total(), result->stats.response_time)
          << config.Describe() << " cpu " << p.processor;
      per_processor_sum += p.Total();
    }
    EXPECT_EQ(d.totals.Total(), per_processor_sum);
    EXPECT_EQ(d.totals.Total(), d.total_virtual_time);
    EXPECT_GT(d.UsefulFraction(), 0.0);
    EXPECT_LE(d.UsefulFraction(), 1.0);
    // A real parallel run does work and reads pages.
    EXPECT_GT(d.totals.compute, 0);
    EXPECT_GT(d.totals.disk_service, 0);
    EXPECT_GT(d.totals.sequential, 0);
  }
}

// The profiler is a pure function of (trace, stats): identical reruns
// decompose identically.
TEST(SpeedupProfilerTest, RerunInvariance) {
  PaperWorkloadSpec spec;
  const PaperWorkload workload(spec.Scaled(0.02));
  const auto decompose = [&workload] {
    ParallelJoinConfig config = ParallelJoinConfig::Gd();
    config.num_processors = 4;
    config.num_disks = 4;
    trace::TraceSink sink;
    config.trace = &sink;
    auto result = workload.RunJoin(config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return DecomposeSpeedup(sink, result->stats, "x");
  };
  const SpeedupDecomposition first = decompose();
  const SpeedupDecomposition second = decompose();
  EXPECT_EQ(first.totals, second.totals);
  EXPECT_EQ(first.per_processor, second.per_processor);
  EXPECT_EQ(first.Format(), second.Format());
}

}  // namespace
}  // namespace psj
