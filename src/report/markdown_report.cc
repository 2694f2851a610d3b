#include "report/markdown_report.h"

#include "report/ascii_chart.h"
#include "util/string_util.h"

namespace psj::report {
namespace {

std::string GoldenStatus(const FigureReportEntry& entry) {
  if (entry.drift.empty()) {
    return "not checked";
  }
  const DriftReport& report = entry.drift.front();
  if (report.ok()) {
    return StringPrintf("ok (%d values)", report.values_compared);
  }
  return StringPrintf("DRIFT (%zu finding(s))", report.drifts.size());
}

}  // namespace

std::string RenderMarkdownReport(
    const std::vector<FigureReportEntry>& entries,
    const std::vector<SpeedupDecomposition>& profiles) {
  std::string out = "# Paper-parity report\n\n";
  out +=
      "Scaled-down reproductions of the paper's figures and tables, run "
      "through the deterministic virtual-time simulator. All values are "
      "exact across reruns.\n\n";

  out += "| artifact | title | golden |\n";
  out += "|---|---|---|\n";
  for (const FigureReportEntry& entry : entries) {
    out += StringPrintf("| %s | %s | %s |\n", entry.doc.figure.c_str(),
                        entry.doc.title.c_str(), GoldenStatus(entry).c_str());
  }
  out += "\n";

  for (const FigureReportEntry& entry : entries) {
    out += StringPrintf("## %s — %s\n\n", entry.doc.figure.c_str(),
                        entry.doc.title.c_str());
    if (entry.expectation != nullptr && entry.expectation[0] != '\0') {
      out += StringPrintf("Paper expectation: %s\n\n", entry.expectation);
    }
    out += StringPrintf("Workload scale: %g\n\n", entry.doc.scale);
    const std::string charts = RenderAsciiCharts(entry.doc);
    if (!charts.empty()) {
      out += "```\n" + charts + "```\n\n";
    }
    out += "```\n" + entry.doc.FormatText() + "```\n\n";
    if (!entry.drift.empty()) {
      out += "```\n" + entry.drift.front().Format() + "```\n\n";
    }
  }

  if (!profiles.empty()) {
    out += "## Speedup decomposition\n\n";
    out +=
        "Where the parallel time went, per traced run: each processor's "
        "horizon is partitioned exactly into compute, disk service, disk "
        "queue wait, remote buffer transfers, steal round-trips, the "
        "sequential creation phase, starvation, and terminal imbalance.\n\n";
    for (const SpeedupDecomposition& profile : profiles) {
      out += "```\n" + profile.Format() + "```\n\n";
    }
  }
  return out;
}

}  // namespace psj::report
