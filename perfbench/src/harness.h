#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing for the perfbench workloads: clocks, sample summaries,
// the in-memory span tracer, and the result shapes every workload returns.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// The highest of p99, p95, p90, p75, at most `max_quantile`, that leaves
/// at least ten samples beyond it for `n` samples; 0.5 when none does.
/// Never above p99: on a shared host, p99.9 of a service round measures
/// scheduler stalls (it ranged 0.6-5.6 ms across runs of one seed), not
/// the program.
double TailQuantile(size_t n, double max_quantile = 0.99);

/// A latency distribution reduced to its median and tail.
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_quantile = 0.5;  // which quantile `tail` is
  size_t count = 0;
};
Summary Summarize(std::vector<double> samples, double max_quantile = 0.99);

/// "p99" / "p95" / "p90" for a quantile returned by TailQuantile.
std::string QuantileLabel(double q);

/// One named value with its unit, as printed and as emitted in JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Free-form context for the human-readable report ("p99 of 1234").
  std::string note;
};
using MetricList = std::vector<Metric>;

/// The end-to-end metrics of BENCHMARK.json. Every workload defines all of
/// them; README.md maps each to the workload-specific name.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double ops_per_s = 0;
  double op_p50_ms = 0;
  double op_tail_ms = 0;
  double op2_p50_ms = 0;
  double steady_ratio = 0;
};
MetricList EndToEndMetrics(const EndToEnd& e2e);

/// A span: one timed call into a layer, nested under the span that was open
/// on the same lane when it began. `id` ties spans to the request, job or
/// edit they belong to (-1 when none).
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the lane's spans
  int64_t id = -1;
};

/// One thread's span buffer. Not thread-safe: each thread records into its
/// own lane.
class TraceLane {
 public:
  explicit TraceLane(std::string name) : name_(std::move(name)) {}
  int32_t Begin(const char* name, int64_t id);
  void End(int32_t index);
  const std::string& name() const { return name_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::string name_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// Per-span-name totals: wall time inside spans of that name, self time
/// (minus the part covered by child spans), and the call count.
struct SpanTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t count = 0;

  double MeanUs() const {
    return count == 0 ? 0 : static_cast<double>(total_ns) / 1e3 / count;
  }
};

/// One lane's time split by layer: the wall time of its root spans (the
/// end-to-end spans), and the self time of spans named after each module
/// of src/ ("service.", "engine.", "rules.", "analysis.", "rulelang.";
/// "pool." counts as common). Self time of the benchmark's own grouping
/// spans is the unattributed remainder.
struct LaneSummary {
  std::string lane;
  int64_t root_ns = 0;
  std::map<std::string, int64_t> self_ns;  // by layer
  int64_t unattributed_ns = 0;
};

/// The totals recorded under `name`; all zero when there are none.
SpanTotals Lookup(const std::map<std::string, SpanTotals>& totals, const std::string& name);

/// Spans kept in memory for the whole traced run and written out once at
/// exit as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
class Tracer {
 public:
  /// Spans written per lane; the in-memory totals always use every span.
  static constexpr size_t kMaxWrittenSpansPerLane = 100000;

  TraceLane* NewLane(const std::string& name);
  std::map<std::string, SpanTotals> Totals() const;
  std::vector<LaneSummary> Summaries() const;
  /// Writes {"traceEvents":[...]} to `path` (the first
  /// kMaxWrittenSpansPerLane spans of each lane); false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;
  size_t num_spans() const;

 private:
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// RAII span; a null lane records nothing (the untraced path).
class Span {
 public:
  Span(TraceLane* lane, const char* name, int64_t id = -1)
      : lane_(lane), index_(lane ? lane->Begin(name, id) : -1) {}
  ~Span() {
    if (lane_ != nullptr) lane_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceLane* lane_;
  int32_t index_;
};

/// What a workload pass is asked to do.
struct PassConfig {
  uint64_t seed = 1;
  /// Length of the timed phase; rounds start while it has not elapsed.
  double seconds = 10;
  /// Non-null for the traced pass.
  Tracer* tracer = nullptr;
  /// Client connections / explorer workers / pinned ThreadPool size.
  int threads = 2;
  /// Tamper with one observed result before checking it (self-checks of
  /// the checks): "fingerprint", "report" or "final_state"; empty = off.
  std::string tamper;
};

/// What one workload pass produced.
struct PassResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Empty when every correctness check passed; else the first mismatch.
  std::string mismatch;
  int rounds = 0;
  EndToEnd e2e;
  /// The workload's end-to-end metrics under their workload-specific names
  /// (human-readable report only).
  MetricList named;
  /// Per-layer metrics (traced pass only).
  MetricList layers;
  /// Thread and connection counts, for the host record.
  std::string threads_note;
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Shortest round-trip decimal rendering of `value`.
std::string FormatNumber(double value);


}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
