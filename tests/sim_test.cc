#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace psj::sim {
namespace {

TEST(SchedulerTest, SingleProcessRunsToCompletion) {
  Scheduler sched;
  SimTime end = -1;
  sched.Spawn([&](Process& p) {
    p.Advance(100);
    p.Sync();
    p.Advance(50);
    end = p.now();
  });
  sched.Run();
  EXPECT_EQ(end, 150);
  EXPECT_EQ(sched.end_time(), 150);
}

TEST(SchedulerTest, ProcessesInterleaveInVirtualTimeOrder) {
  // Two processes append events; the trace must follow virtual time.
  Scheduler sched;
  std::vector<std::string> trace;
  sched.Spawn([&](Process& p) {
    trace.push_back("a@" + std::to_string(p.now()));
    p.WaitUntil(100);
    trace.push_back("a@" + std::to_string(p.now()));
    p.WaitUntil(300);
    trace.push_back("a@" + std::to_string(p.now()));
  });
  sched.Spawn([&](Process& p) {
    trace.push_back("b@" + std::to_string(p.now()));
    p.WaitUntil(200);
    trace.push_back("b@" + std::to_string(p.now()));
  });
  sched.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a@0", "b@0", "a@100", "b@200",
                                             "a@300"}));
  EXPECT_EQ(sched.end_time(), 300);
}

TEST(SchedulerTest, TieBrokenByProcessId) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn([&, i](Process& p) {
      p.WaitUntil(10);
      order.push_back(i);
    });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerTest, AdvanceIsLazyUntilSync) {
  // A process that advances far ahead without syncing must not block an
  // earlier process from observing shared state first at its sync points.
  Scheduler sched;
  std::vector<std::string> trace;
  sched.Spawn([&](Process& p) {
    p.Advance(1'000'000);  // Runs ahead locally.
    p.Sync();              // Now re-enters global order at t=1,000,000.
    trace.push_back("ahead@" + std::to_string(p.now()));
  });
  sched.Spawn([&](Process& p) {
    p.WaitUntil(500);
    trace.push_back("b@" + std::to_string(p.now()));
  });
  sched.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"b@500", "ahead@1000000"}));
}

TEST(SchedulerTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Scheduler sched;
    std::vector<std::pair<int, SimTime>> trace;
    Resource disk("disk");
    for (int i = 0; i < 4; ++i) {
      sched.Spawn([&, i](Process& p) {
        for (int k = 0; k < 3; ++k) {
          p.Advance((i + 1) * 7 + k);
          disk.Use(p, 100);
          trace.emplace_back(i, p.now());
        }
      });
    }
    sched.Run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ResourceTest, FifoQueueingInVirtualTime) {
  Scheduler sched;
  Resource disk("disk");
  std::vector<SimTime> completions(3);
  // All three request at t=0; they must serialize 100 apart in id order.
  for (int i = 0; i < 3; ++i) {
    sched.Spawn([&, i](Process& p) {
      disk.Use(p, 100);
      completions[static_cast<size_t>(i)] = p.now();
    });
  }
  sched.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(disk.num_uses(), 3);
  EXPECT_EQ(disk.busy_time(), 300);
  EXPECT_EQ(disk.queue_wait_time(), 0 + 100 + 200);
}

TEST(ResourceTest, LaterArrivalDoesNotQueueOnIdleServer) {
  Scheduler sched;
  Resource disk("disk");
  SimTime completion = 0;
  sched.Spawn([&](Process& p) {
    disk.Use(p, 50);  // Busy until 50.
  });
  sched.Spawn([&](Process& p) {
    p.WaitUntil(500);
    disk.Use(p, 50);
    completion = p.now();
  });
  sched.Run();
  EXPECT_EQ(completion, 550);
  EXPECT_EQ(disk.queue_wait_time(), 0);
}

TEST(ResourceTest, ArrivalOrderRespectsVirtualTimeNotSpawnOrder) {
  Scheduler sched;
  Resource disk("disk");
  SimTime first_completion = 0;
  SimTime second_completion = 0;
  // Process 0 arrives later in virtual time than process 1.
  sched.Spawn([&](Process& p) {
    p.WaitUntil(200);
    disk.Use(p, 100);
    first_completion = p.now();
  });
  sched.Spawn([&](Process& p) {
    p.WaitUntil(10);
    disk.Use(p, 100);
    second_completion = p.now();
  });
  sched.Run();
  EXPECT_EQ(second_completion, 110);  // Earlier arrival served first.
  EXPECT_EQ(first_completion, 300);
}

TEST(MailboxTest, SendDeliversAfterDelay) {
  Scheduler sched;
  Mailbox<int> box;
  SimTime receive_time = 0;
  int received = 0;
  Process* receiver = sched.Spawn([&](Process& p) {
    received = box.BlockingReceive(p);
    receive_time = p.now();
  });
  box.BindOwner(receiver);
  sched.Spawn([&](Process& p) {
    p.WaitUntil(100);
    box.Send(p, 42, /*delay=*/25);
  });
  sched.Run();
  EXPECT_EQ(received, 42);
  EXPECT_EQ(receive_time, 125);
}

TEST(MailboxTest, TryReceiveOnlySeesDeliveredMessages) {
  Scheduler sched;
  Mailbox<int> box;
  std::vector<std::pair<SimTime, bool>> probes;
  Process* receiver = sched.Spawn([&](Process& p) {
    p.WaitUntil(50);
    probes.emplace_back(p.now(), box.TryReceive(p).has_value());
    p.WaitUntil(200);
    probes.emplace_back(p.now(), box.TryReceive(p).has_value());
  });
  box.BindOwner(receiver);
  sched.Spawn([&](Process& p) {
    p.WaitUntil(60);
    box.Send(p, 1, /*delay=*/40);  // Deliverable at 100.
  });
  sched.Run();
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_FALSE(probes[0].second);  // t=50: nothing sent yet.
  EXPECT_TRUE(probes[1].second);   // t=200: delivered.
}

TEST(MailboxTest, MessagesQueueInOrder) {
  Scheduler sched;
  Mailbox<int> box;
  std::vector<int> received;
  Process* receiver = sched.Spawn([&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      received.push_back(box.BlockingReceive(p));
    }
  });
  box.BindOwner(receiver);
  sched.Spawn([&](Process& p) {
    for (int v = 1; v <= 3; ++v) {
      p.WaitUntil(p.now() + 10);
      box.Send(p, v, 5);
    }
  });
  sched.Run();
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerStressTest, ManyProcessesManyResourcesStayConsistent) {
  // 24 processes contend for 4 resources with pseudo-random think times;
  // verify global accounting invariants afterwards.
  Scheduler sched;
  std::vector<Resource> disks;
  disks.reserve(4);
  for (int d = 0; d < 4; ++d) {
    disks.emplace_back("disk");
  }
  constexpr int kProcesses = 24;
  constexpr int kOpsPerProcess = 50;
  std::vector<SimTime> finish(kProcesses, 0);
  for (int i = 0; i < kProcesses; ++i) {
    sched.Spawn([&, i](Process& p) {
      uint64_t state = static_cast<uint64_t>(i) * 2654435761u + 1;
      for (int op = 0; op < kOpsPerProcess; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        p.Advance(static_cast<SimTime>(state % 500));
        disks[state % 4].Use(p, 100);
      }
      finish[static_cast<size_t>(i)] = p.now();
    });
  }
  sched.Run();
  int64_t uses = 0;
  SimTime busy = 0;
  for (const Resource& disk : disks) {
    uses += disk.num_uses();
    busy += disk.busy_time();
    EXPECT_EQ(disk.busy_time(), disk.num_uses() * 100);
  }
  EXPECT_EQ(uses, kProcesses * kOpsPerProcess);
  EXPECT_EQ(busy, uses * 100);
  SimTime max_finish = 0;
  for (SimTime t : finish) {
    EXPECT_GE(t, kOpsPerProcess * 100);  // At least its own service time.
    max_finish = std::max(max_finish, t);
  }
  EXPECT_EQ(sched.end_time(), max_finish);
  // A single resource cannot serve more than its busy time allows:
  // makespan >= total busy time / number of disks.
  EXPECT_GE(max_finish, busy / 4);
}

TEST(SchedulerStressTest, LookaheadNeverReordersResourceService) {
  // One process runs far ahead locally before each request; another stays
  // exact. Service order must still follow virtual request times.
  Scheduler sched;
  Resource disk("disk");
  std::vector<std::pair<int, SimTime>> service_start_order;
  sched.Spawn([&](Process& p) {  // Requests at 1000, 2000, 3000.
    for (int k = 1; k <= 3; ++k) {
      p.Advance(1000 - 10);  // Lookahead without syncing.
      p.Advance(10);
      const SimTime at = p.now();
      disk.Use(p, 1);
      service_start_order.emplace_back(0, at);
      p.WaitUntil(static_cast<SimTime>(k) * 1000);
    }
  });
  sched.Spawn([&](Process& p) {  // Requests at 500, 1500, 2500.
    for (int k = 0; k < 3; ++k) {
      p.WaitUntil(500 + k * 1000);
      const SimTime at = p.now();
      disk.Use(p, 1);
      service_start_order.emplace_back(1, at);
    }
  });
  sched.Run();
  ASSERT_EQ(service_start_order.size(), 6u);
  for (size_t i = 1; i < service_start_order.size(); ++i) {
    EXPECT_LE(service_start_order[i - 1].second,
              service_start_order[i].second)
        << "resource served out of virtual-time order at position " << i;
  }
}

TEST(MailboxTest, MixedTryAndBlockingReceive) {
  Scheduler sched;
  Mailbox<int> box;
  std::vector<int> received;
  Process* receiver = sched.Spawn([&](Process& p) {
    // Poll first (nothing there), then block for two messages.
    EXPECT_FALSE(box.TryReceive(p).has_value());
    received.push_back(box.BlockingReceive(p));
    p.WaitUntil(p.now() + 1'000);
    // By now the second message is deliverable: TryReceive sees it.
    const auto second = box.TryReceive(p);
    ASSERT_TRUE(second.has_value());
    received.push_back(*second);
  });
  box.BindOwner(receiver);
  sched.Spawn([&](Process& p) {
    p.WaitUntil(100);
    box.Send(p, 1, 10);
    box.Send(p, 2, 20);
  });
  sched.Run();
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
}

TEST(SchedulerDeathTest, DeadlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched;
        sched.Spawn([](Process& p) { p.Block(); });
        sched.Run();
      },
      "deadlock");
}

TEST(SchedulerDeathTest, DeadlockDiagnosticListsLiveProcesses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The abort message must identify each stuck process with its id, state
  // and local clock; finished processes must not appear.
  EXPECT_DEATH(
      {
        Scheduler sched;
        sched.Spawn([](Process& p) {
          p.WaitUntil(25);
          p.Block();  // Nobody will wake this process.
        });
        sched.Spawn([](Process& p) { p.WaitUntil(10); });  // Finishes fine.
        sched.Run();
      },
      "process 0: state=blocked now=25 resume_time=25");
}

TEST(SchedulerTest, SyncFastPathSkipsHandoff) {
  // A lone process that repeatedly syncs already holds the minimal clock:
  // every yield takes the fast path and the scheduler dispatches only once.
  Scheduler sched;
  sched.Spawn([&](Process& p) {
    for (int k = 0; k < 100; ++k) {
      p.Advance(5);
      p.Sync();
    }
  });
  sched.Run();
  EXPECT_EQ(sched.num_dispatches(), 1);
  EXPECT_GE(sched.num_fast_path_yields(), 100);
  EXPECT_EQ(sched.end_time(), 500);
}

TEST(SchedulerTest, FinishedProcessesAreNeverRedispatched) {
  // Three processes interleave through four real handoffs each and then
  // finish. Every dispatch is accounted for: one initial dispatch per
  // process plus one per non-fast-path yield. Any re-examination of a
  // finished process would both inflate this count and re-enter a body.
  Scheduler sched;
  constexpr int kProcesses = 3;
  constexpr int kYields = 4;
  std::vector<int> body_entries(kProcesses, 0);
  for (int i = 0; i < kProcesses; ++i) {
    sched.Spawn([&, i](Process& p) {
      ++body_entries[static_cast<size_t>(i)];
      for (int k = 1; k <= kYields; ++k) {
        // Interleaved targets: some other process always resumes earlier,
        // so every yield is a real handoff, never the fast path.
        p.WaitUntil(static_cast<SimTime>(10 * k + i));
      }
    });
  }
  sched.Run();
  EXPECT_EQ(body_entries, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(sched.num_dispatches(), kProcesses * (1 + kYields));
  EXPECT_EQ(sched.num_fast_path_yields(), 0);
}

}  // namespace
}  // namespace psj::sim
