#ifndef STARBURST_WORKLOAD_STATS_REPORT_H_
#define STARBURST_WORKLOAD_STATS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace starburst {

/// The core of the tools/stats_report CLI, factored out so tests can drive
/// the exact code path the tool ships (workload resolution, instrumented
/// run, metrics snapshot, optional trace file).
struct StatsReportOptions {
  /// A bundled application name (see BundledWorkloadNames()) or a path to
  /// a self-contained .rules script (create table + create rule
  /// statements, the corpus file format).
  std::string workload;
  /// .rules scripts only: random base rows per table and the seed that
  /// draws them (bundled applications carry their own setup data).
  int rows_per_table = 2;
  uint64_t data_seed = 1;
  /// ExplorerOptions::num_threads for the exploration (0 = classic).
  int explorer_threads = 0;
  /// When non-empty, a trace session (common/trace.h) covers the run and
  /// is written here as Chrome trace-event JSON. Fails if a session is
  /// already active (e.g. via STARBURST_TRACE).
  std::string trace_path;
};

struct StatsReport {
  /// Human-readable summary: analysis verdicts, processing outcome, and
  /// exploration statistics.
  std::string summary;
  /// MetricsToJson snapshot of the run (the registry is reset first, so
  /// totals cover exactly this run).
  std::string metrics_json;
};

/// Names accepted by StatsReportOptions::workload, in display order.
std::vector<std::string> BundledWorkloadNames();

/// Runs the workload end to end with metrics collection on: full analysis
/// (AnalyzeAll), rule processing of the workload's transactions, and an
/// execution-graph exploration; returns the summary plus the metrics
/// snapshot.
Result<StatsReport> RunStatsReport(const StatsReportOptions& options);

}  // namespace starburst

#endif  // STARBURST_WORKLOAD_STATS_REPORT_H_
