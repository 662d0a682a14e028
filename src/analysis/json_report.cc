#include "analysis/json_report.h"

#include <cstdio>

namespace starburst {

namespace {

std::string RuleName(const RuleCatalog& catalog, RuleIndex r) {
  if (r < 0 || r >= catalog.num_rules()) return "<unknown>";
  return catalog.prelim().rule(r).name;
}

std::string Quoted(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

std::string RuleArray(const RuleCatalog& catalog,
                      const std::vector<RuleIndex>& rules) {
  std::string out = "[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out += ",";
    out += Quoted(RuleName(catalog, rules[i]));
  }
  out += "]";
  return out;
}

const char* Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string TerminationReportToJson(const TerminationReport& report,
                                    const RuleCatalog& catalog) {
  std::string out = "{";
  out += "\"guaranteed\":" + std::string(Bool(report.guaranteed));
  out += ",\"acyclic\":" + std::string(Bool(report.acyclic));
  out += ",\"cycles\":[";
  for (size_t i = 0; i < report.cycles.size(); ++i) {
    if (i > 0) out += ",";
    const CycleReport& cycle = report.cycles[i];
    out += "{\"rules\":" + RuleArray(catalog, cycle.rules);
    out += ",\"certified\":" + RuleArray(catalog, cycle.certified);
    out += ",\"discharged\":" + std::string(Bool(cycle.discharged)) + "}";
  }
  out += "]}";
  return out;
}

std::string ConfluenceReportToJson(const ConfluenceReport& report,
                                   const RuleCatalog& catalog) {
  std::string out = "{";
  out += "\"confluent\":" + std::string(Bool(report.confluent));
  out +=
      ",\"requirement_holds\":" + std::string(Bool(report.requirement_holds));
  out += ",\"termination_guaranteed\":" +
         std::string(Bool(report.termination_guaranteed));
  out += ",\"unordered_pairs_checked\":" +
         std::to_string(report.unordered_pairs_checked);
  out += ",\"violations\":[";
  for (size_t i = 0; i < report.violations.size(); ++i) {
    if (i > 0) out += ",";
    const ConfluenceViolation& v = report.violations[i];
    out += "{\"pair\":" + RuleArray(catalog, {v.pair_i, v.pair_j});
    out += ",\"witnesses\":" + RuleArray(catalog, {v.r1, v.r2});
    out += ",\"r1_set\":" + RuleArray(catalog, v.set_r1);
    out += ",\"r2_set\":" + RuleArray(catalog, v.set_r2);
    out += ",\"causes\":[";
    for (size_t c = 0; c < v.causes.size(); ++c) {
      if (c > 0) out += ",";
      const NoncommutativityCause& cause = v.causes[c];
      out += "{\"condition\":" + std::to_string(cause.condition);
      out += ",\"actor\":" + Quoted(RuleName(catalog, cause.actor));
      out += ",\"affected\":" + Quoted(RuleName(catalog, cause.affected));
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ObservableReportToJson(const ObservableDeterminismReport& report,
                                   const RuleCatalog& catalog) {
  std::string out = "{";
  out += "\"deterministic\":" + std::string(Bool(report.deterministic));
  out += ",\"whole_set_termination\":" +
         std::string(Bool(report.whole_set_termination));
  out += ",\"observable_rules\":" +
         RuleArray(catalog, report.observable_rules);
  out += ",\"sig_obs\":" +
         RuleArray(catalog, report.obs_confluence.significant);
  out += ",\"unordered_observable_pairs\":[";
  for (size_t i = 0; i < report.unordered_observable_pairs.size(); ++i) {
    if (i > 0) out += ",";
    const auto& [a, b] = report.unordered_observable_pairs[i];
    out += RuleArray(catalog, {a, b});
  }
  out += "]}";
  return out;
}

std::string ExplorationStatsToJson(const ExplorationStats& stats) {
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.6f", stats.wall_seconds);
  std::string out = "{";
  out += "\"states_interned\":" + std::to_string(stats.states_interned);
  out += ",\"dedup_hits\":" + std::to_string(stats.dedup_hits);
  out += ",\"interner_hits\":" + std::to_string(stats.interner_hits);
  out += ",\"peak_stack_depth\":" + std::to_string(stats.peak_stack_depth);
  out += ",\"canonicalization_bytes\":" +
         std::to_string(stats.canonicalization_bytes);
  out += ",\"delta_reverts\":" + std::to_string(stats.delta_reverts);
  out += ",\"por_pruned_orders\":" + std::to_string(stats.por_pruned_orders);
  out += ",\"steals\":" + std::to_string(stats.steals);
  out += ",\"helper_threads\":" + std::to_string(stats.helper_threads);
  out += ",\"parallel_fallbacks\":" + std::to_string(stats.parallel_fallbacks);
  out += ",\"wall_seconds\":";
  out += wall;
  out += "}";
  return out;
}

std::string WitnessExtractionToJson(const WitnessExtraction& extraction,
                                    const RuleCatalog& catalog) {
  std::string out = "{";
  switch (extraction.status) {
    case WitnessStatus::kFound:
      out += "\"status\":\"found\"";
      break;
    case WitnessStatus::kNone:
      out += "\"status\":\"none\"";
      break;
    case WitnessStatus::kNotEvaluated:
      out += "\"status\":\"not_evaluated\"";
      break;
  }
  if (!extraction.note.empty()) out += ",\"note\":" + Quoted(extraction.note);
  if (extraction.status != WitnessStatus::kFound) {
    out += "}";
    return out;
  }
  const DivergenceWitness& w = extraction.witness;
  out += ",\"witness\":{";
  out += "\"kind\":";
  out += w.kind == DivergenceWitness::Kind::kFinalState
             ? "\"final_state\""
             : "\"observable_stream\"";
  out += ",\"sequence_a\":" + RuleArray(catalog, w.sequence_a);
  out += ",\"sequence_b\":" + RuleArray(catalog, w.sequence_b);
  out += ",\"prefix_len\":" + std::to_string(w.prefix_len);
  out += ",\"diverge\":" + RuleArray(catalog, {w.diverge_a, w.diverge_b});
  out += ",\"pair\":" + RuleArray(catalog, {w.pair_i, w.pair_j});
  out += ",\"pair_explained\":" + std::string(Bool(w.pair_explained));
  out += ",\"causes\":[";
  for (size_t c = 0; c < w.causes.size(); ++c) {
    if (c > 0) out += ",";
    const NoncommutativityCause& cause = w.causes[c];
    out += "{\"condition\":" + std::to_string(cause.condition);
    out += ",\"actor\":" + Quoted(RuleName(catalog, cause.actor));
    out += ",\"affected\":" + Quoted(RuleName(catalog, cause.affected));
    out += "}";
  }
  out += "],\"overlap_tables\":[";
  for (size_t t = 0; t < w.overlap_tables.size(); ++t) {
    if (t > 0) out += ",";
    out += Quoted(catalog.schema().table(w.overlap_tables[t]).name());
  }
  out += "]";
  out += ",\"final_a\":" + Quoted(w.final_a);
  out += ",\"final_b\":" + Quoted(w.final_b);
  out += ",\"stream_a\":" + Quoted(w.stream_a);
  out += ",\"stream_b\":" + Quoted(w.stream_b);
  out += ",\"rollback_a\":" + std::string(Bool(w.rollback_a));
  out += ",\"rollback_b\":" + std::string(Bool(w.rollback_b));
  out += "}}";
  return out;
}

std::string FullReportToJson(const FullReport& report,
                             const RuleCatalog& catalog,
                             const WitnessExtraction* witness) {
  std::string out = "{";
  out += "\"termination\":" +
         TerminationReportToJson(report.termination, catalog);
  out += ",\"confluence\":" +
         ConfluenceReportToJson(report.confluence, catalog);
  out += ",\"observable\":" +
         ObservableReportToJson(report.observable, catalog);
  out += ",\"suggestions\":[";
  for (size_t i = 0; i < report.suggestions.size(); ++i) {
    if (i > 0) out += ",";
    const Suggestion& s = report.suggestions[i];
    out += "{\"kind\":";
    out += s.kind == Suggestion::Kind::kCertifyCommute
               ? "\"certify_commute\""
               : "\"add_priority\"";
    out += ",\"rules\":" + RuleArray(catalog, {s.rule_a, s.rule_b});
    out += "}";
  }
  out += "]";
  if (witness != nullptr) {
    out += ",\"witness\":" + WitnessExtractionToJson(*witness, catalog);
  }
  out += "}";
  return out;
}

std::string FullReportToJson(const FullReport& report,
                             const RuleCatalog& catalog) {
  return FullReportToJson(report, catalog, nullptr);
}

}  // namespace starburst
