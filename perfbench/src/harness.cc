#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "analysis/json_report.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double TailQuantile(size_t n, double max_quantile) {
  for (double q : {0.99, 0.95, 0.9, 0.75}) {
    if (q <= max_quantile && static_cast<double>(n) * (1 - q) >= 10) return q;
  }
  return 0.5;
}

Summary Summarize(std::vector<double> samples, double max_quantile) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t index = static_cast<size_t>(q * static_cast<double>(samples.size()));
    return samples[std::min(index, samples.size() - 1)];
  };
  s.p50 = Median(samples);
  s.tail_quantile = TailQuantile(samples.size(), max_quantile);
  s.tail = at(s.tail_quantile);
  return s;
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100);
  return buf;
}

MetricList EndToEndMetrics(const EndToEnd& e2e) {
  return {
      {"setup_s", e2e.setup_s, "s", ""},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB", ""},
      {"ops_per_s", e2e.ops_per_s, "1/s", ""},
      {"op_p50_ms", e2e.op_p50_ms, "ms", ""},
      {"op_tail_ms", e2e.op_tail_ms, "ms", ""},
      {"op2_p50_ms", e2e.op2_p50_ms, "ms", ""},
      {"steady_ratio", e2e.steady_ratio, "ratio", ""},
  };
}

int32_t TraceLane::Begin(const char* name, int64_t id) {
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void TraceLane::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

TraceLane* Tracer::NewLane(const std::string& name) {
  lanes_.push_back(std::make_unique<TraceLane>(name));
  return lanes_.back().get();
}

size_t Tracer::num_spans() const {
  size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans().size();
  return n;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> totals;
  for (const auto& lane : lanes_) {
    const std::vector<SpanRecord>& spans = lane->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      int64_t duration = spans[i].end_ns - spans[i].start_ns;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
      t.count += 1;
    }
  }
  return totals;
}

SpanTotals Lookup(const std::map<std::string, SpanTotals>& totals, const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

std::vector<LaneSummary> Tracer::Summaries() const {
  static const std::map<std::string, std::string> kLayers = {
      {"service", "service"},   {"engine", "engine"},     {"rules", "rules"},
      {"analysis", "analysis"}, {"rulelang", "rulelang"}, {"pool", "common"}};
  std::vector<LaneSummary> out;
  for (const auto& lane : lanes_) {
    const std::vector<SpanRecord>& spans = lane->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    LaneSummary summary;
    summary.lane = lane->name();
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t duration = spans[i].end_ns - spans[i].start_ns;
      if (spans[i].parent < 0) summary.root_ns += duration;
      const std::string name = spans[i].name;
      auto layer = kLayers.find(name.substr(0, name.find('.')));
      if (layer == kLayers.end()) {
        summary.unattributed_ns += duration - child_ns[i];
      } else {
        summary.self_ns[layer->second] += duration - child_ns[i];
      }
    }
    out.push_back(std::move(summary));
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& span : lane->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (size_t tid = 0; tid < lanes_.size(); ++tid) {
    const TraceLane& lane = *lanes_[tid];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", tid,
                  starburst::JsonEscape(lane.name()).c_str());
    out << buf;
    first = false;
    const size_t written = std::min(lane.spans().size(), kMaxWrittenSpansPerLane);
    for (size_t i = 0; i < written; ++i) {
      const SpanRecord& span = lane.spans()[i];
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"span\":%zu,"
          "\"parent\":%d}}",
          span.name, tid, static_cast<double>(span.start_ns - origin) / 1e3,
          static_cast<double>(span.end_ns - span.start_ns) / 1e3,
          static_cast<long long>(span.id), i, span.parent);
      out << buf;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

}  // namespace perfbench
