#include "spans.h"

#include <atomic>
#include <string>

#include "bench.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"

namespace perfbench {
namespace {

// One Chrome-trace track per recording thread, numbered in order of first
// use; and the innermost open span of the thread, the parent of new spans.
// order: relaxed — only uniqueness of the numbers matters.
std::atomic<int32_t> next_track{0};
thread_local int32_t this_track = -1;
thread_local int64_t open_span = 0;

int32_t Track() {
  if (this_track < 0) {
    this_track = next_track.fetch_add(1, std::memory_order_relaxed);
  }
  return this_track;
}

}  // namespace

Spans::Spans(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

int64_t Spans::NextId() {
  psj::util::MutexLock lock(&mu_);
  return next_id_++;
}

Spans::Scope::Scope(Spans* spans, const char* name)
    : spans_(spans != nullptr && spans->enabled() ? spans : nullptr),
      name_(name) {
  if (spans_ == nullptr) return;
  id_ = spans_->NextId();
  parent_ = open_span;
  open_span = id_;
  start_ns_ = NowNs();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const int64_t end_ns = NowNs();
  open_span = parent_;
  psj::util::MutexLock lock(&spans_->mu_);
  Totals& totals = spans_->totals_[name_];
  ++totals.count;
  totals.total_ns += end_ns - start_ns_;
  if (spans_->stored_[name_]++ < kMaxEventsPerName) {
    spans_->events_.push_back(
        Event{name_, start_ns_, end_ns, Track(), id_, parent_});
  }
}

int64_t Spans::Record(const char* name, int64_t start_ns, int64_t end_ns,
                      int64_t parent, bool count) {
  if (!enabled_) return 0;
  psj::util::MutexLock lock(&mu_);
  const int64_t id = next_id_++;
  if (parent < 0) parent = open_span;
  Totals& totals = totals_[name];
  if (count) {
    ++totals.count;
    totals.total_ns += end_ns - start_ns;
  }
  if (stored_[name]++ < kMaxEventsPerName) {
    events_.push_back(Event{name, start_ns, end_ns, Track(), id, parent});
  }
  return id;
}

void Spans::Aggregate(const char* name, int64_t count, int64_t total_ns) {
  if (!enabled_) return;
  psj::util::MutexLock lock(&mu_);
  Totals& totals = totals_[name];
  totals.count += count;
  totals.total_ns += total_ns;
}

Spans::Totals Spans::Get(const std::string& name) const {
  psj::util::MutexLock lock(&mu_);
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals() : it->second;
}

std::map<std::string, Spans::Totals> Spans::AllTotals() const {
  psj::util::MutexLock lock(&mu_);
  return totals_;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  psj::trace::TraceSink sink;
  {
    psj::util::MutexLock lock(&mu_);
    for (const Event& e : events_) {
      // Microseconds since the recorder was made; arg0 is the span id and
      // arg1 its parent's (0 for a root span).
      sink.Span(e.track, psj::trace::Category::kTask, e.name,
                (e.start_ns - origin_ns_) / 1000,
                (e.end_ns - origin_ns_) / 1000, e.id, e.parent);
    }
  }
  for (int32_t track : sink.Tracks()) {
    sink.SetTrackName(track, "perfbench thread " + std::to_string(track));
  }
  return psj::trace::WriteChromeTrace(sink, path);
}

}  // namespace perfbench
