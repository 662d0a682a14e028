// stats_report: runs one workload end to end — full analysis, rule
// processing, execution-graph exploration — with metrics collection on,
// then prints the human-readable summary and (optionally) the metrics
// registry snapshot as JSON and a Chrome trace-event file.
//
//   stats_report <workload> [--metrics-json PATH] [--trace PATH]
//                [--threads N] [--rows N] [--data-seed N]
//   stats_report --from-url URL [--metrics-json PATH]
//
// <workload> is a bundled application name (power_network, salary_control,
// inventory, versioning) or a path to a self-contained .rules script.
// With --from-url the metrics snapshot is fetched from a live ruled /stats
// endpoint instead of running a workload locally; the JSON is written
// through the same --metrics-json path ('-' = stdout, default).
// See docs/observability.md for the metric catalog and trace workflow.
//
// Exit status: 0 on success, 2 on usage, workload, or fetch errors.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "service/http.h"
#include "workload/stats_report.h"

using namespace starburst;  // NOLINT: tool brevity

namespace {

int Usage() {
  std::string names;
  for (const std::string& name : BundledWorkloadNames()) {
    names += "  " + name + "\n";
  }
  std::fprintf(stderr,
               "usage: stats_report <workload> [flags]\n"
               "\n"
               "flags:\n"
               "  --from-url URL        fetch the snapshot from a live ruled "
               "/stats endpoint instead of running a workload\n"
               "  --metrics-json PATH   write the metrics registry snapshot "
               "as JSON to PATH ('-' = stdout)\n"
               "  --trace PATH          write a Chrome trace-event JSON file "
               "to PATH (load in Perfetto)\n"
               "  --threads N           explorer worker threads (0 = classic "
               "single-threaded)\n"
               "  --rows N              random base rows per table "
               "(.rules scripts only)\n"
               "  --data-seed N         seed for the random base data "
               "(.rules scripts only)\n"
               "\n"
               "bundled workloads:\n%s"
               "or pass a path to a .rules script.\n",
               names.c_str());
  return 2;
}

// Shared by the local-workload and --from-url paths: '-' (or empty) means
// stdout, anything else is a file. Returns 0 on success, 2 on I/O error.
int WriteMetricsJson(const std::string& path, const std::string& json) {
  if (path.empty() || path == "-") {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                 path.c_str());
    return 2;
  }
  std::printf("metrics written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  StatsReportOptions options;
  std::string metrics_json_path;
  std::string from_url;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      Usage();
      return 0;
    }
    std::string value;
    if (size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc && flag.rfind("--", 0) == 0) {
      value = argv[++i];
    }
    if (flag == "--metrics-json") {
      if (value.empty()) return Usage();
      metrics_json_path = value;
    } else if (flag == "--from-url") {
      if (value.empty()) return Usage();
      from_url = value;
    } else if (flag == "--trace") {
      if (value.empty()) return Usage();
      options.trace_path = value;
    } else if (flag == "--threads") {
      options.explorer_threads = std::atoi(value.c_str());
    } else if (flag == "--rows") {
      options.rows_per_table = std::atoi(value.c_str());
      if (options.rows_per_table < 0) return Usage();
    } else if (flag == "--data-seed") {
      options.data_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag.rfind("--", 0) == 0) {
      return Usage();
    } else if (options.workload.empty()) {
      options.workload = flag;
    } else {
      return Usage();
    }
  }
  if (!from_url.empty()) {
    if (!options.workload.empty()) return Usage();
    Result<service::HttpResponse> fetched = service::HttpFetch(from_url);
    if (!fetched.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   fetched.status().ToString().c_str());
      return 2;
    }
    if (fetched.value().status != 200) {
      std::fprintf(stderr, "error: %s answered HTTP %d: %s\n",
                   from_url.c_str(), fetched.value().status,
                   fetched.value().body.c_str());
      return 2;
    }
    return WriteMetricsJson(metrics_json_path, fetched.value().body);
  }
  if (options.workload.empty()) return Usage();

  Result<StatsReport> report = RunStatsReport(options);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s", report.value().summary.c_str());
  if (!options.trace_path.empty()) {
    std::printf("trace written to %s\n", options.trace_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    int rc = WriteMetricsJson(metrics_json_path, report.value().metrics_json);
    if (rc != 0) return rc;
  }
  return 0;
}
