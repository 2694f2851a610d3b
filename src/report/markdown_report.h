#ifndef PSJ_REPORT_MARKDOWN_REPORT_H_
#define PSJ_REPORT_MARKDOWN_REPORT_H_

#include <string>
#include <vector>

#include "report/figure_doc.h"
#include "report/golden_diff.h"
#include "report/speedup_profiler.h"

namespace psj::report {

/// Everything one report run produced for a single paper artifact.
struct FigureReportEntry {
  FigureDoc doc;
  /// Present when the run was compared against a committed golden.
  std::vector<DriftReport> drift;  // Empty or one element.
  const char* expectation = "";    // FigureSpec::expectation.
};

/// \brief Renders the combined Markdown report: a summary table of all
/// artifacts (golden status per figure), one section per figure with the
/// ASCII chart in a code fence plus the fixed-width value tables, and a
/// closing speedup-decomposition section when profiles were collected.
///
/// Deterministic: depends only on the inputs, so the report is
/// byte-identical across reruns.
std::string RenderMarkdownReport(
    const std::vector<FigureReportEntry>& entries,
    const std::vector<SpeedupDecomposition>& profiles);

}  // namespace psj::report

#endif  // PSJ_REPORT_MARKDOWN_REPORT_H_
