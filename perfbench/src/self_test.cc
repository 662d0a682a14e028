// perfbench_selftest: proves the benchmark's correctness checks accept
// genuine results and reject tampered ones — a flipped fingerprint, a
// dropped final state, an altered report byte. Exits 0 when every case
// behaves, 1 otherwise. Run it with `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/incremental.h"
#include "analysis/json_report.h"
#include "checks.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"

namespace perfbench {
namespace {

using starburst::RuleDef;

int failures = 0;

void Expect(bool accepted, const std::string& mismatch, const char* what) {
  const bool ok = accepted == mismatch.empty();
  std::printf("%-4s %s%s%s\n", ok ? "ok" : "FAIL", what, mismatch.empty() ? "" : ": ",
              mismatch.c_str());
  if (!ok) ++failures;
}

/// Three unordered rules writing one shared table: several final states
/// and, with the observable rule, several streams.
void ExploreChecks() {
  starburst::Schema schema;
  (void)schema.AddTable("src", {{"a", starburst::ColumnType::kInt}});
  (void)schema.AddTable("t", {{"a", starburst::ColumnType::kInt}});
  auto script = starburst::Parser::ParseScript(
      "create rule r1 on src when inserted then update t set a = 1;"
      "create rule r2 on src when inserted then update t set a = 2;"
      "create rule r3 on src when inserted then select * from t;");
  auto catalog = starburst::RuleCatalog::Build(&schema, std::move(script.value().rules));
  starburst::Database db(&schema);
  const std::vector<std::string> statements = {"insert into t values (0)",
                                               "insert into src values (1)"};
  starburst::ExplorerOptions serial;
  serial.por = starburst::ExplorerOptions::PorMode::kOff;
  starburst::ExplorerOptions parallel;
  parallel.num_threads = 2;
  parallel.por = starburst::ExplorerOptions::PorMode::kCommute;
  auto a = starburst::Explorer::ExploreAfterStatements(catalog.value(), db, statements, serial);
  auto b = starburst::Explorer::ExploreAfterStatements(catalog.value(), db, statements, parallel);
  Expect(true, CheckExploreJob(a.value(), b.value()), "explore: genuine results agree");
  Expect(a.value().final_states.size() > 1, "", "explore: the case has several final states");

  starburst::ExplorationResult dropped = b.value();
  dropped.final_states.erase(dropped.final_states.begin());
  Expect(false, CheckExploreJob(a.value(), dropped), "explore: dropped final state");

  starburst::ExplorationResult altered = b.value();
  if (!altered.observable_streams.empty()) {
    std::string stream = *altered.observable_streams.begin();
    altered.observable_streams.erase(altered.observable_streams.begin());
    altered.observable_streams.insert(stream + "x");
  }
  Expect(false, CheckExploreJob(a.value(), altered), "explore: altered observable stream");
}

void ServiceChecks() {
  starburst::RandomRuleSetParams params;
  params.num_tables = 3;
  params.columns_per_table = 2;
  params.num_rules = 6;
  starburst::GeneratedRuleSet set = starburst::RandomRuleSetGenerator::Generate(params);
  std::vector<RuleDef> rules;
  for (const RuleDef& rule : set.rules) rules.push_back(rule.Clone());
  auto analyzer = starburst::Analyzer::Create(set.schema.get(), std::move(rules));
  const std::string report = starburst::FullReportToJson(analyzer.value().AnalyzeAll(-1),
                                                         analyzer.value().catalog());
  starburst::Database db(set.schema.get());
  starburst::RuleProcessor processor(&db, &analyzer.value().catalog());
  (void)processor.ExecuteUserStatement("insert into " +
                                       set.schema->tables().front().name() + " values (1, 2)");
  (void)processor.AssertRules();
  processor.Commit();
  const std::string fp = HexFingerprint(db.ContentFingerprint());

  // One connection: a committed transition, then an analyze.
  ServiceExpectation expected;
  expected.fingerprint = {{fp, ""}};
  expected.report = {{-1, 0}};
  expected.reports = {report};
  expected.final_fingerprint = {fp};
  ServiceObservation observed;
  observed.status = {{200, 200}};
  observed.fingerprint = {{fp, ""}};
  observed.body = {{"", report}};
  observed.final_fingerprint = {fp};
  Expect(true, CheckService(expected, observed), "service: genuine results agree");

  ServiceObservation flipped = observed;
  flipped.final_fingerprint[0][5] = flipped.final_fingerprint[0][5] == '0' ? '1' : '0';
  Expect(false, CheckService(expected, flipped), "service: flipped final fingerprint");

  ServiceObservation flipped_response = observed;
  flipped_response.fingerprint[0][0][0] ^= 0x01;
  Expect(false, CheckService(expected, flipped_response),
         "service: flipped transition fingerprint");

  ServiceObservation altered = observed;
  altered.body[0][1][altered.body[0][1].size() / 2] ^= 0x01;
  Expect(false, CheckService(expected, altered), "service: altered analyze byte");

  ServiceObservation error = observed;
  error.status[0][0] = 422;
  Expect(false, CheckService(expected, error), "service: HTTP error status");
}

void CertifyChecks() {
  starburst::SparseCatalogParams params;
  params.num_rules = 400;
  params.num_clusters = 10;
  starburst::GeneratedRuleSet set = starburst::RandomRuleSetGenerator::GenerateSparseCatalog(params);
  auto analyze = [&](const std::vector<const RuleDef*>& rules) {
    starburst::IncrementalAnalyzer inc(set.schema.get());
    for (const RuleDef* rule : rules) (void)inc.AddRule(rule->Clone());
    return ReportDigest(inc.Analyze({}, 8).value());
  };
  // Incremental: register everything, analyze, then remove the last rule
  // and re-analyze. Cold: the same final catalog from scratch.
  starburst::IncrementalAnalyzer inc(set.schema.get());
  std::vector<const RuleDef*> final_rules;
  for (const RuleDef& rule : set.rules) (void)inc.AddRule(rule.Clone());
  (void)inc.Analyze({}, 8);
  (void)inc.RemoveRule(set.rules.back().name);
  for (size_t i = 0; i + 1 < set.rules.size(); ++i) final_rules.push_back(&set.rules[i]);
  const std::string incremental = ReportDigest(inc.Analyze({}, 8).value());
  const std::string cold = analyze(final_rules);
  Expect(true, CheckCertify(incremental, cold), "certify: incremental equals cold");

  std::string altered = incremental;
  altered[altered.size() / 2] ^= 0x01;
  Expect(false, CheckCertify(altered, cold), "certify: altered report byte");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::ExploreChecks();
  perfbench::ServiceChecks();
  perfbench::CertifyChecks();
  std::printf("%s\n", perfbench::failures == 0 ? "self-test passed" : "self-test FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
