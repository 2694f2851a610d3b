#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Layer spans recorded from outside the program: one span around each call
// into a layer's public function, with the span that caused it as parent.
// Kept in memory and written as Chrome trace JSON (the repository's own
// trace exporter) when the run ends. A disabled recorder records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace perfbench {

class Spans {
 public:
  /// Individually stored spans per name; further calls are only counted.
  static constexpr int64_t kMaxEventsPerName = 4096;

  explicit Spans(bool enabled);
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nests under the thread's open span.
  /// A null or disabled recorder makes it a no-op.
  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }

   private:
    Spans* spans_;
    const char* name_;
    int64_t start_ns_ = 0;
    int64_t id_ = 0;
    int64_t parent_ = 0;
  };

  /// Records one finished span and returns its id; `name` must outlive the
  /// recorder (string literals). A negative `parent` means the calling
  /// thread's open span. With `count` false the span is stored but left out
  /// of the totals (its calls are added through Aggregate). Thread-safe.
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent = -1, bool count = true);
  /// Adds calls timed elsewhere (hot loops that aggregate locally).
  void Aggregate(const char* name, int64_t count, int64_t total_ns);

  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
  };
  Totals Get(const std::string& name) const;
  /// Per-name totals, for the run report.
  std::map<std::string, Totals> AllTotals() const;

  /// Writes the stored spans as Chrome trace JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t track;
    int64_t id;
    int64_t parent;
  };

  int64_t NextId();

  const bool enabled_;
  const int64_t origin_ns_;
  mutable psj::util::Mutex mu_;
  int64_t next_id_ PSJ_GUARDED_BY(mu_) = 1;
  std::vector<Event> events_ PSJ_GUARDED_BY(mu_);
  std::map<std::string, Totals> totals_ PSJ_GUARDED_BY(mu_);
  std::map<std::string, int64_t> stored_ PSJ_GUARDED_BY(mu_);
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
