// Commutativity-guided partial-order reduction (ExplorerOptions::por).
//
// The contract under test: POR prunes only redundant interleavings, so a
// reduced exploration reports exactly the same `final_states`,
// `observable_streams`, and `may_not_terminate` as the full enumeration.
// A rule is reduction-safe only when it commutes with every other catalog
// rule (Lemma 6.1 plus certifications), is silent, never triggers itself,
// and is unordered against every other rule — each guard gets a test that
// would fire if it were dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/json_report.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "testing/oracles.h"
#include "workload/random_gen.h"

#ifndef STARBURST_CORPUS_DIR
#error "build must define STARBURST_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace starburst {
namespace {

class PorTest : public ::testing::Test {
 protected:
  void Load(const std::string& ddl, const std::string& rules_src) {
    auto ddl_script = Parser::ParseScript(ddl);
    ASSERT_TRUE(ddl_script.ok()) << ddl_script.status().ToString();
    for (const StmtPtr& stmt : ddl_script.value().statements) {
      ASSERT_TRUE(schema_.AddTable(stmt->table, stmt->create_columns).ok());
    }
    auto rules_script = Parser::ParseScript(rules_src);
    ASSERT_TRUE(rules_script.ok()) << rules_script.status().ToString();
    auto catalog =
        RuleCatalog::Build(&schema_, std::move(rules_script.value().rules));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog_ = std::make_unique<RuleCatalog>(std::move(catalog).value());
    db_ = std::make_unique<Database>(&schema_);
  }

  ExplorationResult Explore(const std::vector<std::string>& stmts,
                            ExplorerOptions options = {}) {
    auto r = Explorer::ExploreAfterStatements(*catalog_, *db_, stmts, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExplorationResult{};
  }

  /// Loads four independent rules that each copy the src insert into their
  /// own table: pairwise commutative, silent, self-trigger-free, and
  /// unordered — every rule is reduction-safe, so POR walks one of the 4!
  /// orders instead of all of them.
  void LoadConfluentUnordered() {
    Load("create table src (x int); create table t1 (x int); "
         "create table t2 (x int); create table t3 (x int); "
         "create table t4 (x int);",
         "create rule w1 on src when inserted then insert into t1 values (1); "
         "create rule w2 on src when inserted then insert into t2 values (1); "
         "create rule w3 on src when inserted then insert into t3 values (1); "
         "create rule w4 on src when inserted then insert into t4 values (1);");
  }

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
  std::unique_ptr<Database> db_;
};

TEST_F(PorTest, CollapsesConfluentUnorderedRules) {
  LoadConfluentUnordered();
  ExplorerOptions full_options;
  full_options.por = ExplorerOptions::PorMode::kOff;
  ExplorationResult full = Explore({"insert into src values (0)"},
                                   full_options);
  ExplorerOptions por_options;
  por_options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult por = Explore({"insert into src values (0)"}, por_options);

  // Full enumeration visits every subset of {t1..t4} (16 states); POR
  // walks a single chain of 5.
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(por.complete);
  EXPECT_GT(por.stats.por_pruned_orders, 0);
  EXPECT_EQ(full.stats.por_pruned_orders, 0);
  EXPECT_LT(por.states_visited, full.states_visited);
  EXPECT_LT(por.steps_taken, full.steps_taken);

  // The reduction is invisible in the results.
  EXPECT_EQ(por.final_states, full.final_states);
  EXPECT_EQ(por.observable_streams, full.observable_streams);
  EXPECT_EQ(por.may_not_terminate, full.may_not_terminate);
  EXPECT_EQ(por.final_states.size(), 1u);
}

TEST_F(PorTest, ShardedExplorerAgreesUnderPor) {
  LoadConfluentUnordered();
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult classic = Explore({"insert into src values (0)"}, options);
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult sharded =
        Explore({"insert into src values (0)"}, options);
    EXPECT_EQ(sharded.final_states, classic.final_states)
        << "num_threads=" << threads;
    EXPECT_EQ(sharded.observable_streams, classic.observable_streams)
        << "num_threads=" << threads;
    EXPECT_EQ(sharded.may_not_terminate, classic.may_not_terminate)
        << "num_threads=" << threads;
    EXPECT_TRUE(sharded.complete) << "num_threads=" << threads;
  }
}

TEST_F(PorTest, ObservableRulesAreNeverReduced) {
  // Both rules commute data-wise (neither writes), but each emits an
  // observable stream entry — collapsing the orders would drop a stream.
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_EQ(r.stats.por_pruned_orders, 0);
  EXPECT_EQ(r.observable_streams.size(), 2u);
}

TEST_F(PorTest, PrioritizedRulesAreNeverReduced) {
  // Same independent writers as the confluent workload, but an ordering
  // edge makes w1/w2 ineligible for reduction: POR may only commit to an
  // order the priority graph already fixes for every peer.
  Load("create table src (x int); create table t1 (x int); "
       "create table t2 (x int);",
       "create rule w1 on src when inserted then insert into t1 values (1) "
       "precedes w2; "
       "create rule w2 on src when inserted then insert into t2 values (1);");
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult r = Explore({"insert into src values (0)"}, options);
  EXPECT_EQ(r.stats.por_pruned_orders, 0);
  EXPECT_EQ(r.final_states.size(), 1u);
}

TEST_F(PorTest, SelfTriggeringRulesAreNeverReduced) {
  // `inc` commutes with nothing else (there is nothing else) but triggers
  // itself; the safe-rule test requires a safe rule to fire exactly once.
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1 where x < 3;");
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_EQ(r.stats.por_pruned_orders, 0);
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.final_states.size(), 1u);
}

TEST_F(PorTest, CertificationsExtendTheReduction) {
  // Both rules update the same column — Lemma 6.1 condition 5 flags the
  // pair — but they write the same constant, so they commute semantically.
  Load("create table src (x int); create table t (x int);",
       "create rule r1 on src when inserted then update t set x = 1; "
       "create rule r2 on src when inserted then update t set x = 1;");
  ASSERT_TRUE(db_->storage(1).Insert({Value::Int(0)}).ok());

  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  ExplorationResult uncertified =
      Explore({"insert into src values (0)"}, options);
  EXPECT_EQ(uncertified.stats.por_pruned_orders, 0);

  options.por_certifications.Certify("r1", "r2");
  ExplorationResult certified =
      Explore({"insert into src values (0)"}, options);
  EXPECT_GT(certified.stats.por_pruned_orders, 0);
  EXPECT_EQ(certified.final_states, uncertified.final_states);
  EXPECT_EQ(certified.observable_streams, uncertified.observable_streams);
  EXPECT_EQ(certified.may_not_terminate, uncertified.may_not_terminate);
}

TEST_F(PorTest, DefaultModeFollowsTheEnvironment) {
  LoadConfluentUnordered();
  const char* saved = std::getenv("STARBURST_POR");
  const std::string saved_value = saved != nullptr ? saved : "";

  ExplorerOptions options;  // por = PorMode::kDefault
  ASSERT_EQ(setenv("STARBURST_POR", "1", 1), 0);
  ExplorationResult on = Explore({"insert into src values (0)"}, options);
  EXPECT_GT(on.stats.por_pruned_orders, 0);

  ASSERT_EQ(setenv("STARBURST_POR", "0", 1), 0);
  ExplorationResult off = Explore({"insert into src values (0)"}, options);
  EXPECT_EQ(off.stats.por_pruned_orders, 0);

  EXPECT_EQ(on.final_states, off.final_states);
  EXPECT_EQ(on.observable_streams, off.observable_streams);

  if (saved != nullptr) {
    ASSERT_EQ(setenv("STARBURST_POR", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("STARBURST_POR"), 0);
  }
}

// --- Satellite sweep: POR on/off x worker count over randomized rule sets
// must be observationally identical, and exploration must leave the static
// analysis (FullReportToJson) bit-identical.

TEST(PorEquivalenceTest, RandomizedWorkloadsAgreeAcrossModes) {
  int compared = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomRuleSetParams params;
    params.seed = seed + 1000;
    params.num_rules = 4;
    params.num_tables = 4;
    params.columns_per_table = 2;
    params.max_actions_per_rule = 1;
    params.tables_per_rule = 2;
    params.update_bound = 3;
    params.priority_density = 0.2;
    params.observable_fraction = 0.3;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto analyzer = Analyzer::Create(gen.schema.get(), std::move(gen.rules));
    ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    const RuleCatalog& catalog = analyzer.value().catalog();
    const std::string report_before =
        FullReportToJson(analyzer.value().AnalyzeAll(), catalog);

    Database db(gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    Transition initial;
    bool setup_ok = true;
    for (TableId t = 0; t < gen.schema->num_tables() && setup_ok; ++t) {
      Tuple tuple(gen.schema->table(t).num_columns(), Value::Int(2));
      auto rid = db.storage(t).Insert(tuple);
      setup_ok = rid.ok() &&
                 initial.ForTable(t).ApplyInsert(rid.value(), tuple).ok();
    }
    ASSERT_TRUE(setup_ok);

    ExplorerOptions reference_options;
    reference_options.max_depth = 24;
    reference_options.max_total_steps = 8000;
    reference_options.por = ExplorerOptions::PorMode::kOff;
    auto reference = Explorer::Explore(catalog, db, initial,
                                       reference_options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    if (!reference.value().complete) continue;  // nothing sound to compare

    for (auto por : {ExplorerOptions::PorMode::kOff,
                     ExplorerOptions::PorMode::kCommute}) {
      for (int threads : {0, 1, 2, 8}) {
        ExplorerOptions options = reference_options;
        options.por = por;
        options.num_threads = threads;
        auto run = Explorer::Explore(catalog, db, initial, options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " por "
                     << (por != ExplorerOptions::PorMode::kOff) << " threads "
                     << threads);
        // The reference run completed; POR only prunes, and every worker
        // count shares the classic budget, so every run completes too.
        ASSERT_TRUE(run.value().complete);
        EXPECT_EQ(run.value().final_states, reference.value().final_states);
        EXPECT_EQ(run.value().observable_streams,
                  reference.value().observable_streams);
        EXPECT_EQ(run.value().may_not_terminate,
                  reference.value().may_not_terminate);
        ++compared;
      }
    }

    const std::string report_after =
        FullReportToJson(analyzer.value().AnalyzeAll(), catalog);
    EXPECT_EQ(report_after, report_before)
        << "exploration perturbed the analysis, seed " << seed;
  }
  // 20 seeds x 8 configurations; most complete well inside the budget.
  EXPECT_GE(compared, 100);
}

// --- Satellite replay: every checked-in corpus scenario must replay clean
// through the por_equivalence oracle (the same harness the fuzz driver and
// CI smoke run use).

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(STARBURST_CORPUS_DIR)) {
    if (entry.path().extension() == ".rules") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(PorEquivalenceTest, CorpusReplaysCleanThroughPorEquivalenceOracle) {
  ASSERT_FALSE(CorpusFiles().empty());
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto set = fuzzing::ParseRuleSetScript(buffer.str());
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    for (uint64_t data_seed : {1, 2, 3}) {
      fuzzing::OracleOutcome outcome =
          fuzzing::RunOracle(fuzzing::OracleId::kPorEquivalence, set.value(),
                             data_seed, fuzzing::OracleOptions{});
      EXPECT_NE(outcome.verdict, fuzzing::OracleVerdict::kFail)
          << "data seed " << data_seed << ": " << outcome.message;
    }
  }
}

}  // namespace
}  // namespace starburst
