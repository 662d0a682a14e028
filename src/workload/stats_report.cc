#include "workload/stats_report.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/analyzer.h"
#include "analysis/report.h"
#include "analysis/witness.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/database.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "testing/oracles.h"
#include "workload/apps.h"
#include "workload/random_gen.h"

namespace starburst {

namespace {

/// A workload normalized to one shape: schema + rules, the statements the
/// rule processor runs first (committed base data), and the statements the
/// exploration fans out over.
struct ResolvedWorkload {
  std::unique_ptr<Schema> schema;
  std::vector<RuleDef> rules;
  std::vector<std::string> setup_transaction;
  std::vector<std::string> sample_transaction;
  /// Bundled applications only (applied before analysis, as the case
  /// studies prescribe).
  std::vector<std::string> quiescence_certifications;
  std::vector<std::pair<std::string, std::string>> commute_certifications;
  /// .rules scripts only: populate with PopulateRandomDatabase.
  bool random_base_data = false;
};

/// One literal of the column's type, for the synthetic sample statement
/// bare .rules scripts get.
const char* SampleLiteral(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "1";
    case ColumnType::kDouble:
      return "1.0";
    case ColumnType::kString:
      return "'x'";
    case ColumnType::kBool:
      return "true";
  }
  return "1";
}

Result<ResolvedWorkload> ResolveWorkload(const StatsReportOptions& options) {
  for (const Application& app : AllApplications()) {
    if (app.name != options.workload) continue;
    Result<LoadedApplication> loaded = LoadApplication(app);
    if (!loaded.ok()) return loaded.status();
    ResolvedWorkload w;
    w.schema = std::move(loaded.value().schema);
    w.rules = std::move(loaded.value().rules);
    w.setup_transaction = app.setup_transaction;
    w.sample_transaction = app.sample_transaction;
    w.quiescence_certifications = app.quiescence_certifications;
    w.commute_certifications = app.commute_certifications;
    return w;
  }

  std::ifstream in(options.workload);
  if (!in) {
    return Status::NotFound("workload '" + options.workload +
                            "' is neither a bundled application nor a "
                            "readable .rules script");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<GeneratedRuleSet> set = fuzzing::ParseRuleSetScript(buffer.str());
  if (!set.ok()) return set.status();

  ResolvedWorkload w;
  w.schema = std::move(set.value().schema);
  w.rules = std::move(set.value().rules);
  w.random_base_data = true;
  if (w.schema->num_tables() == 0) {
    return Status::InvalidArgument("script defines no tables");
  }
  // Scripts carry no transactions; synthesize one insert into the first
  // table so the processor and explorer have a transition to chew on.
  const TableDef& table = w.schema->table(0);
  std::string stmt = "insert into " + table.name() + " values (";
  for (ColumnId c = 0; c < table.num_columns(); ++c) {
    if (c > 0) stmt += ", ";
    stmt += SampleLiteral(table.column(c).type);
  }
  stmt += ")";
  w.sample_transaction.push_back(std::move(stmt));
  return w;
}

/// Runs `statements` as one transaction (rules asserted once, then commit)
/// and renders a one-paragraph account of what happened.
Result<std::string> RunTransaction(RuleProcessor* processor,
                                   const std::vector<std::string>& statements,
                                   const char* label) {
  for (const std::string& sql : statements) {
    Result<ExecOutcome> outcome = processor->ExecuteUserStatement(sql);
    if (!outcome.ok()) return outcome.status();
  }
  Result<ProcessingResult> processed = processor->AssertRules();
  if (!processed.ok()) return processed.status();
  const ProcessingResult& r = processed.value();
  std::ostringstream out;
  out << label << ": " << statements.size() << " statement(s), " << r.steps
      << " rule consideration(s), " << r.observables.size()
      << " observable event(s)";
  if (r.rolled_back) {
    out << ", ROLLED BACK";
  } else {
    processor->Commit();
    out << ", committed";
  }
  out << "\n";
  return out.str();
}

std::string ExplorationSummary(const ExplorationResult& r) {
  std::ostringstream out;
  out << "exploration: " << r.states_visited << " state(s), " << r.steps_taken
      << " step(s), " << r.final_states.size() << " final state(s), ";
  // Dedup mode skips stream enumeration entirely; say so instead of
  // printing the misleading "0 observable stream(s)".
  if (r.streams_evaluated) {
    out << r.observable_streams.size() << " observable stream(s)\n";
  } else {
    out << "observable streams not evaluated\n";
  }
  out << "  complete: " << (r.complete ? "yes" : "no")
      << "  may-not-terminate: " << (r.may_not_terminate ? "yes" : "no")
      << "\n";
  const ExplorationStats& s = r.stats;
  long lookups = s.interner_hits + s.states_interned;
  out << "  interned " << s.states_interned << " state(s), hit rate "
      << (lookups > 0 ? 100.0 * s.interner_hits / lookups : 0.0)
      << "%, dedup prunes " << s.dedup_hits << ", delta reverts "
      << s.delta_reverts << ", POR pruned orders " << s.por_pruned_orders
      << ", peak stack depth " << s.peak_stack_depth << "\n";
  return out.str();
}

Result<StatsReport> Run(const StatsReportOptions& options) {
  Result<ResolvedWorkload> resolved = ResolveWorkload(options);
  if (!resolved.ok()) return resolved.status();
  ResolvedWorkload& w = resolved.value();

  STARBURST_TRACE_SPAN("stats_report", "run");

  std::ostringstream summary;
  summary << "workload: " << options.workload << " (" << w.rules.size()
          << " rule(s), " << w.schema->num_tables() << " table(s))\n\n";

  Result<Analyzer> analyzer =
      Analyzer::Create(w.schema.get(), std::move(w.rules));
  if (!analyzer.ok()) return analyzer.status();
  for (const std::string& rule : w.quiescence_certifications) {
    analyzer.value().CertifyQuiescent(rule);
  }
  for (const auto& [a, b] : w.commute_certifications) {
    analyzer.value().CertifyCommute(a, b);
  }
  int refined = analyzer.value().ApplyAutoRefinement();
  int discharged = analyzer.value().ApplyAutoDischarge();
  FullReport report = analyzer.value().AnalyzeAll();
  summary << "auto-refined pairs: " << refined
          << "  auto-discharged rules: " << discharged << "\n";
  summary << FullReportToString(report, analyzer.value().catalog()) << "\n";

  // Execute: base data first (committed), then the sample transaction on a
  // copy so the exploration below fans out from the same post-setup state.
  Database db(w.schema.get());
  if (w.random_base_data) {
    Status populated = PopulateRandomDatabase(&db, options.rows_per_table,
                                              options.data_seed);
    if (!populated.ok()) return populated;
  }
  const RuleCatalog& catalog = analyzer.value().catalog();
  if (!w.setup_transaction.empty()) {
    RuleProcessor setup(&db, &catalog);
    Result<std::string> ran =
        RunTransaction(&setup, w.setup_transaction, "setup");
    if (!ran.ok()) return ran.status();
    summary << ran.value();
  }
  Database post_setup = db;
  {
    RuleProcessor sample(&db, &catalog);
    Result<std::string> ran =
        RunTransaction(&sample, w.sample_transaction, "sample");
    if (!ran.ok()) return ran.status();
    summary << ran.value();
  }

  ExplorerOptions explorer_options;
  explorer_options.num_threads = options.explorer_threads;
  Result<ExplorationResult> explored = Explorer::ExploreAfterStatements(
      catalog, post_setup, w.sample_transaction, explorer_options);
  if (!explored.ok()) return explored.status();
  summary << ExplorationSummary(explored.value());

  // Divergence provenance (analysis/witness.h): when the exploration is
  // not confluent / observably deterministic, say which rule pair is
  // responsible and where the orders split.
  Result<WitnessExtraction> witness = ExtractWitnessAfterStatements(
      catalog, post_setup, w.sample_transaction, explorer_options);
  if (!witness.ok()) return witness.status();
  switch (witness.value().status) {
    case WitnessStatus::kNone:
      summary << "divergence witness: none (all execution orders agree)\n";
      break;
    case WitnessStatus::kNotEvaluated:
      summary << "divergence witness: not evaluated ("
              << witness.value().note << ")\n";
      break;
    case WitnessStatus::kFound: {
      const DivergenceWitness& dw = witness.value().witness;
      summary << "divergence witness: "
              << (dw.kind == DivergenceWitness::Kind::kFinalState
                      ? "final states"
                      : "observable streams")
              << " split after " << dw.prefix_len
              << " shared firing(s); non-commuting pair " << dw.pair_name_i
              << " / " << dw.pair_name_j << "\n";
      break;
    }
  }

  StatsReport result;
  result.summary = summary.str();
  return result;
}

}  // namespace

std::vector<std::string> BundledWorkloadNames() {
  std::vector<std::string> names;
  for (const Application& app : AllApplications()) {
    names.push_back(app.name);
  }
  return names;
}

Result<StatsReport> RunStatsReport(const StatsReportOptions& options) {
  if (!options.trace_path.empty()) {
    Status started = trace::Start(options.trace_path);
    if (!started.ok()) return started;
  }
  // Reset first so the snapshot covers exactly this run.
  metrics::Reset();
  Result<StatsReport> result = [&] {
    metrics::ScopedCollect collect;
    return Run(options);
  }();
  if (!options.trace_path.empty()) {
    Status stopped = trace::Stop();
    if (result.ok() && !stopped.ok()) return stopped;
  }
  if (!result.ok()) return result.status();
  result.value().metrics_json = metrics::MetricsToJson(metrics::Collect());
  return result;
}

}  // namespace starburst
