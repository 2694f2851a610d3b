#ifndef PSJ_REPORT_ASCII_CHART_H_
#define PSJ_REPORT_ASCII_CHART_H_

#include <string>
#include <string_view>

#include "report/figure_doc.h"

namespace psj::report {

struct AsciiChartOptions {
  int width = 64;   // Plot-area columns (excludes the y-axis gutter).
  int height = 16;  // Plot-area rows.
};

/// \brief Renders every series of `doc` carrying `metric` as one ASCII line
/// chart: a y-axis gutter with value labels, one marker glyph per series
/// ('*', 'o', '+', ...), a legend line per series, and x-axis tick labels
/// (the categorical tick names when the figure defines them).
///
/// Output is fully deterministic — fixed glyph assignment by series order,
/// integer cell mapping, no locale-dependent formatting — so the Markdown
/// report is byte-identical across reruns.
std::string RenderAsciiChart(const FigureDoc& doc, std::string_view metric,
                             const AsciiChartOptions& options = {});

/// Renders one chart per distinct metric in `doc`, in first-appearance
/// order, separated by blank lines. Returns an empty string for
/// scalar-only documents (the tables).
std::string RenderAsciiCharts(const FigureDoc& doc,
                              const AsciiChartOptions& options = {});

}  // namespace psj::report

#endif  // PSJ_REPORT_ASCII_CHART_H_
