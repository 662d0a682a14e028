#include "checks.h"

#include <cstdio>

namespace perfbench {
namespace {

std::string Where(size_t connection, size_t request) {
  return " (connection " + std::to_string(connection) + ", request " +
         std::to_string(request) + ")";
}

std::string Indices(const std::vector<starburst::RuleIndex>& rules) {
  std::string out = "[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(rules[i]);
  }
  return out + "]";
}

std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return "differ at byte " + std::to_string(i) + " (lengths " +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")";
}

}  // namespace

std::string HexFingerprint(const starburst::Hash128& fp) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

std::string CheckService(const ServiceExpectation& expected,
                         const ServiceObservation& observed) {
  if (observed.status.size() != expected.fingerprint.size()) {
    return "connection count differs";
  }
  for (size_t c = 0; c < observed.status.size(); ++c) {
    if (observed.status[c].size() != expected.fingerprint[c].size()) {
      return "request count differs on connection " + std::to_string(c);
    }
    for (size_t i = 0; i < observed.status[c].size(); ++i) {
      int status = observed.status[c][i];
      if (status < 200 || status >= 300) {
        return "HTTP status " + std::to_string(status) + Where(c, i);
      }
      const std::string& fp = expected.fingerprint[c][i];
      if (!fp.empty() && observed.fingerprint[c][i] != fp) {
        return "committed fingerprint " + observed.fingerprint[c][i] +
               " != replay " + fp + Where(c, i);
      }
      int report = expected.report[c][i];
      if (report >= 0 &&
          observed.body[c][i] != expected.reports[static_cast<size_t>(report)]) {
        return "analyze body is not the batch FullReportToJson: " +
               FirstDifference(observed.body[c][i],
                               expected.reports[static_cast<size_t>(report)]) +
               Where(c, i);
      }
    }
  }
  if (observed.final_fingerprint != expected.final_fingerprint) {
    for (size_t t = 0; t < expected.final_fingerprint.size(); ++t) {
      if (t >= observed.final_fingerprint.size() ||
          observed.final_fingerprint[t] != expected.final_fingerprint[t]) {
        return "tenant " + std::to_string(t) +
               " final committed fingerprint differs from the replay";
      }
    }
    return "tenant count differs";
  }
  return "";
}

std::string CheckExploreJob(const starburst::ExplorationResult& serial,
                            const starburst::ExplorationResult& parallel) {
  if (serial.final_states != parallel.final_states) {
    return "final_states differ: " + std::to_string(serial.final_states.size()) +
           " (0 threads, POR off) vs " +
           std::to_string(parallel.final_states.size()) +
           " (parallel, POR on)";
  }
  if (serial.observable_streams != parallel.observable_streams) {
    return "observable_streams differ: " +
           std::to_string(serial.observable_streams.size()) + " vs " +
           std::to_string(parallel.observable_streams.size());
  }
  if (serial.complete != parallel.complete ||
      serial.may_not_terminate != parallel.may_not_terminate) {
    return "completeness / termination verdicts differ";
  }
  return "";
}

std::string ReportDigest(
    const starburst::IncrementalAnalyzer::RunResult& result) {
  const starburst::TerminationReport& term = result.termination;
  const starburst::ConfluenceReport& conf = result.confluence;
  std::string out = "termination guaranteed=" +
                    std::to_string(term.guaranteed) +
                    " acyclic=" + std::to_string(term.acyclic) + "\n";
  for (const starburst::CycleReport& cycle : term.cycles) {
    out += "cycle " + Indices(cycle.rules) + " certified=" +
           Indices(cycle.certified) +
           " discharged=" + std::to_string(cycle.discharged) + "\n";
  }
  out += "confluence requirement=" + std::to_string(conf.requirement_holds) +
         " termination=" + std::to_string(conf.termination_guaranteed) +
         " confluent=" + std::to_string(conf.confluent) +
         " pairs=" + std::to_string(conf.unordered_pairs_checked) +
         " max_set=" + std::to_string(conf.max_set_size) + "\n";
  for (const starburst::ConfluenceViolation& v : conf.violations) {
    out += "violation " + std::to_string(v.pair_i) + "," +
           std::to_string(v.pair_j) + " r1=" + std::to_string(v.r1) +
           " r2=" + std::to_string(v.r2) + " R1=" + Indices(v.set_r1) +
           " R2=" + Indices(v.set_r2) + " causes=";
    for (const starburst::NoncommutativityCause& cause : v.causes) {
      out += '(';
      out += std::to_string(cause.condition) + "," +
             std::to_string(cause.actor) + "," +
             std::to_string(cause.affected) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string CheckCertify(const std::string& incremental_digest,
                         const std::string& cold_digest) {
  if (incremental_digest.empty()) return "empty incremental report";
  if (incremental_digest != cold_digest) {
    return "incremental report after the last edit differs from a cold "
           "analysis of the final catalog: " +
           FirstDifference(incremental_digest, cold_digest);
  }
  return "";
}

}  // namespace perfbench
