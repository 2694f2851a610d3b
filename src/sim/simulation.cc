#include "sim/simulation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace psj::sim {

namespace {

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash for the seeded
/// tie-break keys.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string_view StateName(Process::State state) {
  switch (state) {
    case Process::State::kCreated:
      return "created";
    case Process::State::kReady:
      return "ready";
    case Process::State::kRunning:
      return "running";
    case Process::State::kBlocked:
      return "blocked";
    case Process::State::kFinished:
      return "finished";
  }
  return "?";
}

}  // namespace

TieBreak TieBreak::FromEnv() {
  const char* env = std::getenv("PSJ_SIM_TIEBREAK");
  if (env == nullptr || std::strcmp(env, "id") == 0) {
    return Id();
  }
  constexpr char kSeededPrefix[] = "seeded:";
  if (std::strncmp(env, kSeededPrefix, sizeof(kSeededPrefix) - 1) == 0) {
    return Seeded(std::strtoull(env + sizeof(kSeededPrefix) - 1, nullptr, 10));
  }
  static bool warned = [env] {
    std::fprintf(stderr,
                 "[sim] ignoring unknown PSJ_SIM_TIEBREAK=%s "
                 "(expected \"id\" or \"seeded:<n>\")\n",
                 env);
    return true;
  }();
  (void)warned;
  return Id();
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Scheduler* scheduler, int id,
                 std::function<void(Process&)> body)
    : scheduler_(scheduler),
      id_(id),
      body_(std::move(body)),
      fiber_(FiberContext::kStackSize, &Process::FiberEntry, this) {}

void Process::FiberEntry(void* self) {
  static_cast<Process*>(self)->FiberBody();
}

void Process::FiberBody() {
  // Entered on the first dispatch: the scheduler already marked this
  // process running.
  now_ = resume_time_;
  body_(*this);
  if (scheduler_->trace_ != nullptr) {
    scheduler_->trace_->Instant(id_, trace::Category::kProcess, "finish",
                                now_);
  }
  state_ = State::kFinished;
  --scheduler_->num_live_;
  scheduler_->DispatchFrom(this);
  PSJ_CHECK(false) << "finished process " << id_ << " was dispatched again";
}

void Process::YieldUntil(SimTime t) {
  PSJ_CHECK(state_ == State::kRunning)
      << "sim primitive called outside the running process";
  t = std::max(now_, t);
  if (scheduler_->FastPathYield(this, t)) {
    now_ = t;
    return;
  }
  resume_time_ = t;
  state_ = State::kReady;
  scheduler_->PushReady(this);
  scheduler_->DispatchFrom(this);
  now_ = resume_time_;
}

SimTime Process::Block() {
  PSJ_CHECK(state_ == State::kRunning)
      << "sim primitive called outside the running process";
  state_ = State::kBlocked;
  scheduler_->DispatchFrom(this);
  now_ = resume_time_;
  return now_;
}

bool Process::MakeReadyIfBlocked(SimTime t) {
  if (state_ != State::kBlocked) {
    return false;
  }
  state_ = State::kReady;
  resume_time_ = std::max(now_, t);
  scheduler_->PushReady(this);
  return true;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

int64_t Process::dispatch_epoch() const { return scheduler_->num_dispatches_; }

Scheduler::Scheduler(std::optional<TieBreak> tiebreak)
    : tiebreak_(tiebreak.has_value() ? *tiebreak : TieBreak::FromEnv()) {}

namespace {

/// Heap ordering: dispatch order is (resume_time, tiebreak_key, id)
/// ascending. The key equals the id under the default tie-break and a
/// seeded hash of it under TieBreak::Seeded; the id stays the final
/// arbiter so the order is total even on a (vanishingly unlikely) hash
/// collision.
bool DispatchesAfter(const Process::DispatchOrderKey& a,
                     const Process::DispatchOrderKey& b) {
  if (a.resume_time != b.resume_time) {
    return a.resume_time > b.resume_time;
  }
  if (a.tiebreak_key != b.tiebreak_key) {
    return a.tiebreak_key > b.tiebreak_key;
  }
  return a.id > b.id;
}

bool HeapAfter(const Process* a, const Process* b) {
  return DispatchesAfter(a->dispatch_order_key(), b->dispatch_order_key());
}

}  // namespace

bool Scheduler::FastPathYield(const Process* p, SimTime t) {
  if (!ready_heap_.empty()) {
    const Process* top = ready_heap_.front();
    Process::DispatchOrderKey own = p->dispatch_order_key();
    own.resume_time = t;
    if (DispatchesAfter(own, top->dispatch_order_key())) {
      return false;  // Another ready process precedes (t, p).
    }
  }
  ++num_fast_path_yields_;
  return true;
}

void Scheduler::PushReady(Process* p) {
  PSJ_CHECK(p->state_ == Process::State::kReady);
  ready_heap_.push_back(p);
  std::push_heap(ready_heap_.begin(), ready_heap_.end(), &HeapAfter);
}

Process* Scheduler::TakeNextReady() {
  std::pop_heap(ready_heap_.begin(), ready_heap_.end(), &HeapAfter);
  Process* next = ready_heap_.back();
  ready_heap_.pop_back();
  // Only kReady processes ever enter the heap; in particular a finished
  // process can never be re-examined or re-selected.
  PSJ_CHECK(next->state_ == Process::State::kReady)
      << "scheduler dispatched process " << next->id_ << " in state "
      << StateName(next->state_);
  next->state_ = Process::State::kRunning;
  ++num_dispatches_;
  return next;
}

std::string Scheduler::DescribeLiveProcesses() const {
  std::string out;
  for (const auto& process : processes_) {
    if (process->state_ == Process::State::kFinished) {
      continue;
    }
    out += "  process ";
    out += std::to_string(process->id_);
    out += ": state=";
    out += StateName(process->state_);
    out += " now=";
    out += std::to_string(process->now_);
    out += " resume_time=";
    out += std::to_string(process->resume_time_);
    out += '\n';
  }
  return out;
}

Process* Scheduler::Spawn(std::function<void(Process&)> body) {
  PSJ_CHECK(!started_) << "Spawn() after Run() is not supported";
  const int id = static_cast<int>(processes_.size());
  processes_.push_back(
      std::unique_ptr<Process>(new Process(this, id, std::move(body))));
  Process* p = processes_.back().get();
  p->state_ = Process::State::kReady;
  p->resume_time_ = 0;
  p->tiebreak_key_ =
      tiebreak_.seeded
          ? Mix64(tiebreak_.seed ^ (static_cast<uint64_t>(id) + 1))
          : static_cast<uint64_t>(id);
  PushReady(p);
  ++num_live_;
  return p;
}

void Scheduler::Run() {
  PSJ_CHECK(!started_) << "Run() may only be called once";
  started_ = true;
  while (num_live_ > 0) {
    PSJ_CHECK(!ready_heap_.empty())
        << "simulation deadlock: live processes exist but none is ready\n"
        << DescribeLiveProcesses();
    Process* next = TakeNextReady();
    main_context_.SwitchTo(next->fiber_);
    // A fiber switched back: either everything finished or nothing is
    // ready (completion or deadlock) — the loop re-checks.
  }
  end_time_ = 0;
  for (auto& process : processes_) {
    end_time_ = std::max(end_time_, process->now_);
  }
}

void Scheduler::DispatchFrom(Process* self) {
  if (ready_heap_.empty()) {
    // Nothing to hand off to: return to Run()'s context, which either
    // terminates (no live processes) or reports the deadlock.
    self->fiber_.SwitchTo(main_context_);
  } else {
    Process* next = TakeNextReady();
    self->fiber_.SwitchTo(next->fiber_);
  }
  // Resumed: whoever dispatched us already marked this process running.
}

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

ResourceUse Resource::Use(Process& p, SimTime duration) {
  PSJ_CHECK_GE(duration, 0);
  // Sync so requests arrive at the server in global virtual-time order.
  p.Sync();
  region_.NoteWrite(p, "Resource::Use");
  const SimTime arrival = p.now();
  const SimTime start = std::max(arrival, next_free_);
  next_free_ = start + duration;
  ++num_uses_;
  busy_time_ += duration;
  queue_wait_time_ += start - arrival;
  if (trace_ != nullptr) {
    if (start > arrival) {
      trace_->Span(track_, trace::Category::kDiskQueue, "queue", arrival,
                   start, p.id());
    }
    trace_->Span(track_, trace::Category::kDiskService, "service", start,
                 next_free_, p.id());
  }
  p.WaitUntil(next_free_);
  return ResourceUse{arrival, start, next_free_};
}

}  // namespace psj::sim
