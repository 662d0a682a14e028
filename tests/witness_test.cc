// Tests for the divergence-witness subsystem (src/analysis/witness.h):
// first-divergence-point reconstruction, responsible-pair selection,
// replay tamper detection, and — crucially — witness *stability*: the
// same scenario must yield a bit-identical witness JSON regardless of
// explorer thread count or POR mode, because reconstruction
// re-walks the execution graph deterministically instead of trusting
// whichever path the explorer happened to take.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/json_report.h"
#include "analysis/witness.h"
#include "engine/exec.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"

namespace starburst {
namespace {

class WitnessTest : public ::testing::Test {
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

  WitnessExtraction Extract(const std::vector<std::string>& stmts,
                            ExplorerOptions explorer_options = {},
                            WitnessOptions witness_options = {}) {
    auto r = ExtractWitnessAfterStatements(*catalog_, *db_, stmts,
                                           explorer_options, witness_options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : WitnessExtraction{};
  }

  std::string RuleName(RuleIndex i) const {
    return catalog_->rules()[i].name;
  }

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
  std::unique_ptr<Database> db_;
};

TEST(SharedPrefixLengthTest, Basics) {
  EXPECT_EQ(SharedPrefixLength({}, {}), 0);
  EXPECT_EQ(SharedPrefixLength({1, 2}, {1, 3}), 1);
  EXPECT_EQ(SharedPrefixLength({1, 2}, {1, 2}), 2);
  EXPECT_EQ(SharedPrefixLength({1, 2, 3}, {1, 2}), 2);
  EXPECT_EQ(SharedPrefixLength({4}, {5}), 0);
}

TEST_F(WitnessTest, NonconfluentPairYieldsFinalStateWitness) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  WitnessExtraction e = Extract({"insert into a values (0)"});
  ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
  const DivergenceWitness& w = e.witness;
  EXPECT_EQ(w.kind, DivergenceWitness::Kind::kFinalState);
  // Both sequences fire both rules; they diverge immediately.
  EXPECT_EQ(w.prefix_len, 0);
  ASSERT_EQ(w.sequence_a.size(), 2u);
  ASSERT_EQ(w.sequence_b.size(), 2u);
  EXPECT_EQ(w.diverge_a, w.sequence_a[0]);
  EXPECT_EQ(w.diverge_b, w.sequence_b[0]);
  EXPECT_NE(w.diverge_a, w.diverge_b);
  // The divergence-point pair is the responsible pair, normalized i < j.
  EXPECT_TRUE(w.pair_explained);
  EXPECT_LT(w.pair_i, w.pair_j);
  EXPECT_EQ(w.pair_name_i, "w1");
  EXPECT_EQ(w.pair_name_j, "w2");
  // Same-column update conflict: Lemma 6.1 condition 5 must appear.
  bool saw_condition5 = false;
  for (const NoncommutativityCause& cause : w.causes) {
    if (cause.condition == 5) saw_condition5 = true;
  }
  EXPECT_TRUE(saw_condition5);
  ASSERT_EQ(w.overlap_tables.size(), 1u);
  EXPECT_EQ(schema_.table(w.overlap_tables[0]).name(), "a");
  // Outcomes are ordered and genuinely divergent.
  EXPECT_LT(w.final_a, w.final_b);
  EXPECT_FALSE(w.rollback_a);
  EXPECT_FALSE(w.rollback_b);
}

TEST_F(WitnessTest, ChainedScenarioHasNonzeroSharedPrefix) {
  // 'first' is the only rule triggered initially (it watches table a);
  // its insert into b then wakes the conflicting pair. Every sequence
  // must start with 'first', so the divergence point sits at index 1.
  Load("create table a (x int); create table b (x int);",
       "create rule first on a when inserted then insert into b values (0); "
       "create rule w1 on b when inserted then update b set x = 1; "
       "create rule w2 on b when inserted then update b set x = 2;");
  WitnessExtraction e = Extract({"insert into a values (0)"});
  ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
  const DivergenceWitness& w = e.witness;
  EXPECT_EQ(w.prefix_len, 1);
  EXPECT_EQ(RuleName(w.sequence_a[0]), "first");
  EXPECT_EQ(RuleName(w.sequence_b[0]), "first");
  EXPECT_EQ(w.pair_name_i, "w1");
  EXPECT_EQ(w.pair_name_j, "w2");
  // Minimality: the witness sequences are quiescence-length paths, not
  // padded — three firings each (first, then the pair in some order).
  EXPECT_EQ(w.sequence_a.size(), 3u);
  EXPECT_EQ(w.sequence_b.size(), 3u);
}

TEST_F(WitnessTest, ConfluentSetYieldsNone) {
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule wc on a when inserted then insert into c values (1);");
  WitnessExtraction e = Extract({"insert into a values (0)"});
  EXPECT_EQ(e.status, WitnessStatus::kNone);
  EXPECT_TRUE(e.note.empty());
}

TEST_F(WitnessTest, ObservableOnlyDivergenceYieldsStreamWitness) {
  // Neither rule writes: unique final state, two emission orders.
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select x from a; "
       "create rule s2 on a when inserted then select x, x from a;");
  WitnessExtraction e = Extract({"insert into a values (0)"});
  ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
  const DivergenceWitness& w = e.witness;
  EXPECT_EQ(w.kind, DivergenceWitness::Kind::kObservableStream);
  EXPECT_EQ(w.final_a, w.final_b);
  EXPECT_LT(w.stream_a, w.stream_b);
}

TEST_F(WitnessTest, RollbackDivergenceMarksTheRollbackSequence) {
  // writer-then-guard trips the guard and rolls back; guard-then-writer
  // quiesces with x = 200 (see tests/corpus/witness_rollback_guard.rules).
  Load("create table a (x int); create table b (x int);",
       "create rule guard on a when inserted "
       "if exists (select * from b where x > 100) then rollback; "
       "create rule writer on a when inserted then update b set x = 200;");
  WitnessExtraction e =
      Extract({"insert into b values (1)", "insert into a values (0)"});
  ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
  const DivergenceWitness& w = e.witness;
  EXPECT_EQ(w.kind, DivergenceWitness::Kind::kFinalState);
  // Exactly one of the two orders trips the guard and rolls back.
  EXPECT_NE(w.rollback_a, w.rollback_b);
}

TEST_F(WitnessTest, WitnessIsStableAcrossBackendsThreadsAndPor) {
  Load("create table a (x int); create table b (x int);",
       "create rule first on a when inserted then insert into b values (0); "
       "create rule w1 on b when inserted then update b set x = 1; "
       "create rule w2 on b when inserted then update b set x = 2;");
  std::set<std::string> renderings;
  for (int threads : {0, 1, 2, 8}) {
    for (auto por : {ExplorerOptions::PorMode::kOff,
                     ExplorerOptions::PorMode::kCommute}) {
      ExplorerOptions options;
      options.num_threads = threads;
      options.por = por;
      WitnessExtraction e = Extract({"insert into a values (0)"}, options);
      ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
      renderings.insert(WitnessExtractionToJson(e, *catalog_));
    }
  }
  // Bit-identical witness JSON across all 8 configurations.
  EXPECT_EQ(renderings.size(), 1u) << *renderings.begin();
}

TEST_F(WitnessTest, DedupStreamsNotEvaluatedIsThreeValued) {
  // Stream-only divergence + dedup_subtrees: streams were never
  // enumerated, so extraction must refuse a verdict rather than report
  // kNone (the dedup_subtrees fix this PR pins).
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select x from a; "
       "create rule s2 on a when inserted then select x, x from a;");
  ExplorerOptions options;
  options.dedup_subtrees = true;
  WitnessExtraction e = Extract({"insert into a values (0)"}, options);
  EXPECT_EQ(e.status, WitnessStatus::kNotEvaluated);
  EXPECT_NE(e.note.find("dedup_subtrees"), std::string::npos) << e.note;
}

TEST_F(WitnessTest, DedupStillFindsFinalStateWitnesses) {
  // Final-state divergence survives dedup_subtrees: the final-state set is
  // exact in that mode, so the witness lane must still run.
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  ExplorerOptions options;
  options.dedup_subtrees = true;
  WitnessExtraction e = Extract({"insert into a values (0)"}, options);
  ASSERT_EQ(e.status, WitnessStatus::kFound) << e.note;
  EXPECT_EQ(e.witness.kind, DivergenceWitness::Kind::kFinalState);
}

TEST_F(WitnessTest, ExhaustedReconstructionBudgetIsNotEvaluated) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  WitnessOptions tiny;
  tiny.max_total_steps = 1;
  WitnessExtraction e = Extract({"insert into a values (0)"}, {}, tiny);
  EXPECT_EQ(e.status, WitnessStatus::kNotEvaluated);
  EXPECT_NE(e.note.find("budget"), std::string::npos) << e.note;
}

// Regression: an exploration cut by its budget before a second outcome
// shows no divergence, not that none exists. `inc` climbs forever and the
// stop rules fire only once x > 5, so five steps reach no final state.
TEST_F(WitnessTest, CutExplorationIsNotEvaluated) {
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1; "
       "create rule stop1 on a when inserted, updated(x) "
       "if exists (select * from a where x > 5) then delete from a; "
       "create rule stop2 on a when inserted, updated(x) "
       "if exists (select * from a where x > 5) then delete from a;");
  ExplorerOptions explore;
  explore.max_depth = 1000000;
  explore.max_total_steps = 5;
  WitnessOptions budget;
  budget.max_depth = 1000000;
  budget.max_total_steps = 5;
  WitnessExtraction e = Extract({"insert into a values (0)"}, explore, budget);
  EXPECT_EQ(e.status, WitnessStatus::kNotEvaluated);
  EXPECT_EQ(e.note, "witness reconstruction budget exhausted");
}

TEST_F(WitnessTest, ReplayAcceptsGenuineWitnessAndRejectsTampering) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  // Drive the scenario without the convenience wrapper so the replay's
  // (initial_db, initial_transition) exactly match extraction's.
  Database db = *db_;
  Executor executor(&db);
  Transition initial;
  auto stmt = Parser::ParseStatement("insert into a values (0)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto outcome = executor.Execute(*stmt.value(), nullptr, nullptr);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(initial.Compose(outcome.value().delta).ok());
  auto explored = Explorer::Explore(*catalog_, db, initial);
  ASSERT_TRUE(explored.ok()) << explored.status().ToString();
  auto extraction = ExtractWitness(*catalog_, db, initial, explored.value());
  ASSERT_TRUE(extraction.ok()) << extraction.status().ToString();
  ASSERT_EQ(extraction.value().status, WitnessStatus::kFound);
  const DivergenceWitness& w = extraction.value().witness;

  auto genuine = ReplayWitness(*catalog_, db, initial, w);
  ASSERT_TRUE(genuine.ok()) << genuine.status().ToString();
  EXPECT_TRUE(genuine.value().ok) << genuine.value().message;
  EXPECT_EQ(genuine.value().final_a, w.final_a);
  EXPECT_EQ(genuine.value().final_b, w.final_b);

  // Tamper 1: swap the firing order of one sequence — the replayed final
  // state no longer matches the claimed one.
  DivergenceWitness swapped = w;
  std::swap(swapped.sequence_a[0], swapped.sequence_a[1]);
  auto r1 = ReplayWitness(*catalog_, db, initial, swapped);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1.value().ok);

  // Tamper 2: forge the claimed outcome.
  DivergenceWitness forged = w;
  forged.final_b = forged.final_a;
  auto r2 = ReplayWitness(*catalog_, db, initial, forged);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2.value().ok);

  // Tamper 3: claim a rule fires when it is not eligible.
  DivergenceWitness wrong_rule = w;
  wrong_rule.sequence_a = {w.sequence_a[0], w.sequence_a[0]};
  auto r3 = ReplayWitness(*catalog_, db, initial, wrong_rule);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_FALSE(r3.value().ok);
}

TEST_F(WitnessTest, JsonRenderingCoversAllThreeStatuses) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  WitnessExtraction found = Extract({"insert into a values (0)"});
  ASSERT_EQ(found.status, WitnessStatus::kFound);
  std::string json = WitnessExtractionToJson(found, *catalog_);
  EXPECT_NE(json.find("\"status\":\"found\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"final_state\""), std::string::npos);
  EXPECT_NE(json.find("\"pair\":[\"w1\",\"w2\"]"), std::string::npos) << json;

  WitnessExtraction none;
  none.status = WitnessStatus::kNone;
  EXPECT_EQ(WitnessExtractionToJson(none, *catalog_), "{\"status\":\"none\"}");

  WitnessExtraction skipped;
  skipped.status = WitnessStatus::kNotEvaluated;
  skipped.note = "budget exhausted";
  EXPECT_EQ(WitnessExtractionToJson(skipped, *catalog_),
            "{\"status\":\"not_evaluated\",\"note\":\"budget exhausted\"}");
}

}  // namespace
}  // namespace starburst
