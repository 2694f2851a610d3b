#ifndef PSJ_TRACE_CHROME_TRACE_H_
#define PSJ_TRACE_CHROME_TRACE_H_

#include <string>

#include "trace/trace_sink.h"

namespace psj {
class JsonWriter;
}

namespace psj::trace {

/// Emits one histogram as a JSON object: count/sum/min/max plus the
/// non-empty power-of-two buckets. Shared by the Chrome trace metadata and
/// `psj_cli join --json`.
void WriteHistogramJson(JsonWriter& json, const Histogram& histogram);

/// \brief Serializes a sink as Chrome trace-event JSON, loadable in
/// `about://tracing` and Perfetto.
///
/// Layout: one process (pid 0, named "psj simulation"); every sink track is
/// a thread (tid = track id) with a `thread_name` metadata record, so the
/// simulated processors render as parallel swimlanes and the disks as rows
/// below them (tid >= kDiskTrackBase). Spans become complete events
/// (`"ph": "X"`, virtual-microsecond `ts`/`dur`), instants become
/// `"ph": "i"` with thread scope, and the sink's named counters and
/// histogram summaries ride along in a top-level `"psj"` metadata object.
///
/// Deterministic: events are stably sorted by (start, record order), so two
/// runs with identical virtual-time behavior export byte-identical strings.
std::string ExportChromeTrace(const TraceSink& sink);

/// Writes ExportChromeTrace(sink) to `path` (trailing newline); returns
/// false on I/O failure.
bool WriteChromeTrace(const TraceSink& sink, const std::string& path);

}  // namespace psj::trace

#endif  // PSJ_TRACE_CHROME_TRACE_H_
