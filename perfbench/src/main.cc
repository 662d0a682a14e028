// perfbench: the repository benchmark driver. Runs one workload, checks the
// program's outputs, and prints a human-readable report followed by one JSON
// line (the last line of stdout):
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   perfbench --workload service_mix|explore_mix|certify_10k --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]
//             [--tamper fingerprint|report|final_state]
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 is
// the separate traced run: for every workload (the named one first) it runs
// one untraced and one traced round, reports the per-layer metrics, each
// workload's layer coverage and tracing overhead, and writes the spans as
// Chrome trace JSON to DIR/<workload>-seed<N>.json. Exits 1 when any
// correctness check fails, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/json_report.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir = ".";
  std::string git_sha = "unknown";
  std::string tamper;
};

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"service_mix", "explore_mix", "certify_10k"};
  return names;
}

PassResult RunWorkload(const std::string& name, const PassConfig& config) {
  if (name == "service_mix") return RunServiceMix(config);
  if (name == "explore_mix") return RunExploreMix(config);
  return RunCertify10k(config);
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  return "[" + FormatNumber(one) + "," + FormatNumber(five) + "," + FormatNumber(fifteen) + "]";
}

void PrintMetrics(const std::string& title, const MetricList& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

/// Self time and coverage of every span name, largest self time first.
void PrintSpanTable(const std::string& workload, const Tracer& tracer) {
  const auto totals = tracer.Totals();
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(), totals.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ns > b.second.self_ns; });
  std::printf("%s spans (%zu): name, calls, total ms, self ms, children's share\n",
              workload.c_str(), tracer.num_spans());
  for (const auto& [name, t] : rows) {
    const double total_ms = static_cast<double>(t.total_ns) / 1e6;
    const double self_ms = static_cast<double>(t.self_ns) / 1e6;
    std::printf("  %-30s %9lld %11.3f %11.3f %8.3f\n", name.c_str(),
                static_cast<long long>(t.count), total_ms, self_ms,
                total_ms > 0 ? 1 - self_ms / total_ms : 0.0);
  }
  for (const LaneSummary& lane : tracer.Summaries()) {
    const double root_ms = static_cast<double>(lane.root_ns) / 1e6;
    std::printf("%s lane '%s': %.3f ms in end-to-end spans; self time by layer:", workload.c_str(),
                lane.lane.c_str(), root_ms);
    auto share = [&](int64_t ns) {
      return root_ms > 0 ? 100 * static_cast<double>(ns) / 1e6 / root_ms : 0.0;
    };
    for (const auto& [layer, ns] : lane.self_ns) {
      std::printf(" %s %.3f ms (%.1f%%),", layer.c_str(), static_cast<double>(ns) / 1e6, share(ns));
    }
    std::printf(" unattributed %.3f ms (%.1f%%)\n", static_cast<double>(lane.unattributed_ns) / 1e6,
                share(lane.unattributed_ns));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload service_mix|explore_mix|certify_10k --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA] "
               "[--tamper fingerprint|report|final_state]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--tamper") {
      args.tamper = value;
    } else {
      return Usage();
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) return Usage();

  const int nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  PassConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.threads = std::min(2, nproc);
  config.tamper = args.tamper;
  starburst::ThreadPool::SetDefaultThreadCount(config.threads);
  const std::string load_before = LoadAverage();

  int64_t attempted = 0;
  int64_t failed = 0;
  std::string mismatch;
  MetricList metrics;
  std::string threads_json;
  auto note_threads = [&](const std::string& workload, const PassResult& r) {
    const std::string key = '"' + workload + "\":";
    if (threads_json.find(key) != std::string::npos) return;
    if (!threads_json.empty()) threads_json += ',';
    threads_json += key + '"' + starburst::JsonEscape(r.threads_note) + '"';
  };
  auto absorb = [&](const std::string& workload, const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (mismatch.empty() && !r.mismatch.empty()) mismatch = workload + ": " + r.mismatch;
    note_threads(workload, r);
  };

  if (args.trace == 0) {
    PassResult r = RunWorkload(args.workload, config);
    absorb(args.workload, r);
    PrintMetrics(args.workload + " (" + std::to_string(r.rounds) + " rounds, seed " +
                     std::to_string(args.seed) + ")",
                 r.named);
    metrics = EndToEndMetrics(r.e2e);
  } else {
    std::vector<std::string> order = {args.workload};
    for (const std::string& name : names) {
      if (name != args.workload) order.push_back(name);
    }
    PassConfig one_round = config;
    one_round.seconds = 0;  // exactly one round per pass
    for (const std::string& name : order) {
      PassResult untraced = RunWorkload(name, one_round);
      absorb(name, untraced);
      Tracer tracer;
      PassConfig traced_config = one_round;
      traced_config.tracer = &tracer;
      PassResult traced = RunWorkload(name, traced_config);
      absorb(name, traced);
      PrintMetrics(name + " per-layer (traced round, seed " + std::to_string(args.seed) + ")",
                   traced.layers);
      PrintSpanTable(name, tracer);
      metrics.insert(metrics.end(), traced.layers.begin(), traced.layers.end());
      metrics.push_back({name + ".trace_overhead", traced.e2e.op_p50_ms / untraced.e2e.op_p50_ms,
                         "ratio", "traced / untraced op_p50_ms"});
      std::printf("%s tracing overhead: op_p50_ms %.6g traced vs %.6g untraced\n", name.c_str(),
                  traced.e2e.op_p50_ms, untraced.e2e.op_p50_ms);
      const std::string path =
          args.trace_dir + "/" + name + "-seed" + std::to_string(args.seed) + ".json";
      if (tracer.WriteChromeTrace(path)) {
        std::printf("%s trace: %s\n", name.c_str(), path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }

  std::printf(
      "{\"host\":{\"nproc\":%d,\"build_type\":\"%s\",\"compiler\":\"%s\",\"git_sha\":\"%s\","
      "\"loadavg_before\":%s,\"loadavg_after\":%s,\"thread_pool\":%d,\"threads\":{%s}}}\n",
      nproc, PERFBENCH_BUILD_TYPE, starburst::JsonEscape(PERFBENCH_COMPILER).c_str(),
      starburst::JsonEscape(args.git_sha).c_str(), load_before.c_str(), LoadAverage().c_str(),
      config.threads, threads_json.c_str());
  if (!mismatch.empty()) std::printf("CHECK FAILED: %s\n", mismatch.c_str());

  std::string json = "{\"correct\":";
  json += mismatch.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(std::max<int64_t>(1, attempted));
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" + FormatNumber(metrics[i].value) +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return mismatch.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
