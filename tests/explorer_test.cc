#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "testing/reference_explorer.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

class ExplorerTest : public ::testing::Test {
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

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
  std::unique_ptr<Database> db_;
};

TEST_F(ExplorerTest, NoTriggeredRulesIsSingleFinalState) {
  Load("create table a (x int);", "");
  ExplorationResult r = Explore({"insert into a values (1)"});
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.final_states.size(), 1u);
  EXPECT_TRUE(r.unique_final_state());
}

TEST_F(ExplorerTest, ConfluentPairHasOneFinalState) {
  // Two rules writing different tables commute: any order, same result.
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule wc on a when inserted then insert into c values (1);");
  // This test checks the FULL enumeration converges; POR would collapse
  // the orders up front (covered by por_test).
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.final_states.size(), 1u);
  // Both orders were explored (two paths), but they converge.
  EXPECT_GE(r.steps_taken, 3);
}

TEST_F(ExplorerTest, NonConfluentPairHasTwoFinalStates) {
  // Both rules set the same cell to different values: last writer wins.
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  ExplorationResult r = Explore({"insert into a values (0)"});
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.final_states.size(), 2u);
  EXPECT_FALSE(r.unique_final_state());
}

TEST_F(ExplorerTest, PriorityRemovesNondeterminism) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1 "
       "precedes w2; "
       "create rule w2 on a when inserted then update a set x = 2;");
  ExplorationResult r = Explore({"insert into a values (0)"});
  EXPECT_EQ(r.final_states.size(), 1u);
  // The only final value is 2 (w1 then w2).
  const Database& final_db = r.final_databases.begin()->second;
  EXPECT_EQ(final_db.storage(0).rows().begin()->second[0], Value::Int(2));
}

TEST_F(ExplorerTest, CycleIsDetectedAsNontermination) {
  Load("create table a (x int);",
       "create rule flip on a when updated(x) "
       "then update a set x = 1 - x;");
  // Pre-populate so the update is a net update (an insert composed with an
  // update would net to an insert and not trigger the rule).
  ASSERT_TRUE(db_->storage(0).Insert({Value::Int(0)}).ok());
  ExplorationResult r = Explore({"update a set x = 1"});
  EXPECT_TRUE(r.may_not_terminate);
}

TEST_F(ExplorerTest, QuiescingSelfTriggerTerminates) {
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1 where x < 3;");
  ExplorationResult r = Explore({"insert into a values (0)"});
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.final_states.size(), 1u);
}

TEST_F(ExplorerTest, RollbackPathEndsAtInitialDatabase) {
  Load("create table a (x int);",
       "create rule veto on a when inserted then rollback;");
  // Note: the initial database for the exploration is the state AFTER the
  // user statements; rollback restores to that state minus the transition?
  // No: rollback restores the transaction start, which for exploration is
  // the pre-rule state captured as initial_db (user changes applied).
  ExplorationResult r = Explore({"insert into a values (1)"});
  EXPECT_EQ(r.final_states.size(), 1u);
  ASSERT_EQ(r.observable_streams.size(), 1u);
  EXPECT_NE(r.observable_streams.begin()->find("R:rollback"),
            std::string::npos);
}

TEST_F(ExplorerTest, ObservableStreamsDifferWhenOrderMatters) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorationResult r = Explore({"insert into a values (0)"});
  // Same final DB state but two distinct observable streams.
  EXPECT_EQ(r.final_states.size(), 1u);
  EXPECT_EQ(r.observable_streams.size(), 2u);
  EXPECT_FALSE(r.unique_observable_stream());
}

TEST_F(ExplorerTest, ObservableStreamUniqueWhenOrdered) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a precedes s2; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorationResult r = Explore({"insert into a values (0)"});
  EXPECT_EQ(r.observable_streams.size(), 1u);
  EXPECT_TRUE(r.unique_observable_stream());
}

TEST_F(ExplorerTest, DepthLimitReportsIncomplete) {
  Load("create table a (x int);",
       "create rule grow on a when inserted "
       "then insert into a values (1);");
  ExplorerOptions options;
  options.max_depth = 5;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_TRUE(r.may_not_terminate);
  EXPECT_FALSE(r.complete);
}

TEST_F(ExplorerTest, UntriggeredRulesProduceNoBranches) {
  Load("create table a (x int); create table b (x int);",
       "create rule onb on b when inserted then delete from b;");
  ExplorationResult r = Explore({"insert into a values (1)"});
  EXPECT_EQ(r.states_visited, 1);
  EXPECT_EQ(r.final_states.size(), 1u);
}

// Regression (stream-cap accounting): a stream already in the set must not
// mark the result incomplete just because the cap was reached. Two
// commuting rules with no observable actions produce two paths with the
// SAME (empty) stream; with max_streams = 1 the second path is a duplicate
// and the result stays complete.
TEST_F(ExplorerTest, DuplicateStreamAtCapStaysComplete) {
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule wc on a when inserted then insert into c values (1);");
  ExplorerOptions options;
  options.max_streams = 1;
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_EQ(r.observable_streams.size(), 1u);
  EXPECT_TRUE(r.complete);
}

// ...but a genuinely NEW stream beyond the cap still marks incomplete.
TEST_F(ExplorerTest, NewStreamBeyondCapMarksIncomplete) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorerOptions options;
  options.max_streams = 1;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_EQ(r.observable_streams.size(), 1u);
  EXPECT_FALSE(r.complete);
}

// Regression (budget accounting): a state with no triggered rules reached
// exactly as the step budget trips is a real final state and must be
// recorded; the exploration is complete, not truncated.
TEST_F(ExplorerTest, FinalStateAtStepBudgetIsRecorded) {
  Load("create table a (x int); create table b (x int);",
       "create rule wb on a when inserted then insert into b values (1);");
  ExplorerOptions options;
  options.max_total_steps = 1;  // the one and only consideration
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_EQ(r.final_states.size(), 1u);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.may_not_terminate);
}

// Budget edge: a multi-step cascade that quiesces on EXACTLY the last
// budgeted step. The final state is reached with steps_taken == budget and
// has no triggered rules, so the result must be complete -- the budget
// check must not fire on a state that needs no further expansion.
TEST_F(ExplorerTest, QuiescenceExactlyAtStepBudgetIsComplete) {
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1 where x < 3;");
  ExplorerOptions options;
  // Fires at x = 0, 1, 2, plus one no-op consideration at x = 3 that
  // clears the pending transition: quiescence lands on step 4 exactly.
  options.max_total_steps = 4;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.steps_taken, 4);
  ASSERT_EQ(r.final_states.size(), 1u);
  const Database& final_db = r.final_databases.begin()->second;
  EXPECT_EQ(final_db.storage(0).rows().begin()->second[0], Value::Int(3));

  // One step fewer and the same cascade is genuinely truncated.
  options.max_total_steps = 3;
  ExplorationResult truncated = Explore({"insert into a values (0)"}, options);
  EXPECT_FALSE(truncated.complete);
}

// Budget edge: a rollback consumed by EXACTLY the last budgeted step is a
// real final state (the initial database), not a truncation.
TEST_F(ExplorerTest, RollbackExactlyAtStepBudgetIsComplete) {
  Load("create table a (x int); create table b (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule veto on b when inserted then rollback;");
  ExplorerOptions options;
  options.max_total_steps = 2;  // step 1: wb, step 2: veto -> rollback
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.steps_taken, 2);
  EXPECT_EQ(r.final_states.size(), 1u);
  ASSERT_EQ(r.observable_streams.size(), 1u);
  EXPECT_NE(r.observable_streams.begin()->find("R:rollback"),
            std::string::npos);

  // With budget 1 the rollback step itself is cut off.
  options.max_total_steps = 1;
  ExplorationResult truncated = Explore({"insert into a values (1)"}, options);
  EXPECT_FALSE(truncated.complete);
}

// Regression (node accounting): the synthetic rollback state counts in
// states_visited, consistently with the recorded graph's nodes.
TEST_F(ExplorerTest, RollbackStateCountsAsVisited) {
  Load("create table a (x int);",
       "create rule veto on a when inserted then rollback;");
  ExplorerOptions options;
  options.record_graph = true;
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_EQ(r.states_visited, 2);  // initial state + rollback state
  EXPECT_EQ(r.node_is_final.size(), 2u);
  EXPECT_EQ(r.states_visited,
            static_cast<long>(r.node_is_final.size()));
  EXPECT_EQ(r.stats.states_interned, r.states_visited);
}

// The explicit-stack DFS survives rule cascades far deeper than default
// C++ recursion comfort: a linear chain of several hundred updates.
TEST_F(ExplorerTest, DeepLinearCascadeDoesNotOverflowStack) {
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1 where x < 400;");
  ExplorerOptions options;
  options.max_depth = 600;
  ExplorationResult r = Explore({"insert into a values (0)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.may_not_terminate);
  EXPECT_EQ(r.final_states.size(), 1u);
  EXPECT_GE(r.stats.peak_stack_depth, 400);
  const Database& final_db = r.final_databases.begin()->second;
  EXPECT_EQ(final_db.storage(0).rows().begin()->second[0], Value::Int(400));
}

// The re-convergent catalog of DedupSubtreesPreservesFinalStates (tables a
// and b), shared with the dedup thread-count test below.
constexpr const char* kReconvergentRules =
    "create rule n1 on a when inserted "
    "if exists (select * from a where x > 100) "
    "then insert into b values (1); "
    "create rule n2 on a when inserted "
    "if exists (select * from a where x > 200) "
    "then insert into b values (2); "
    "create rule n3 on a when inserted "
    "if exists (select * from a where x > 300) "
    "then insert into b values (3); "
    "create rule act on a when inserted "
    "then insert into b values (9);";

// dedup_subtrees prunes shared subtrees but must preserve the final-state
// set and the termination verdict; streams are intentionally skipped.
TEST_F(ExplorerTest, DedupSubtreesPreservesFinalStates) {
  // Three rules whose conditions are false: considering one only clears
  // its own pending marker, so any permutation of the same subset of
  // rules converges to the same state (2^3 states instead of one state
  // per ordered prefix), plus one acting rule to produce a nontrivial
  // final database. This is the re-convergent shape where visit-once
  // dedup pays off.
  Load("create table a (x int); create table b (x int);", kReconvergentRules);
  // All four rules are silent and commute, so POR would collapse the
  // permutations before dedup ever sees a revisit; this test is about
  // dedup, so reduction is pinned off.
  ExplorerOptions full_options;
  full_options.por = ExplorerOptions::PorMode::kOff;
  ExplorationResult full = Explore({"insert into a values (1)"}, full_options);
  ExplorerOptions options = full_options;
  options.dedup_subtrees = true;
  ExplorationResult dedup = Explore({"insert into a values (1)"}, options);
  EXPECT_EQ(dedup.final_states, full.final_states);
  EXPECT_EQ(dedup.may_not_terminate, full.may_not_terminate);
  EXPECT_TRUE(dedup.complete);
  EXPECT_TRUE(dedup.observable_streams.empty());
  // Satellite regression: dedup mode skips stream enumeration, so the
  // empty set must read as "not evaluated", never as "deterministic".
  EXPECT_FALSE(dedup.streams_evaluated);
  EXPECT_EQ(dedup.observable_determinism(),
            ExplorationResult::ObservableDeterminism::kNotEvaluated);
  EXPECT_FALSE(dedup.unique_observable_stream());
  EXPECT_TRUE(full.streams_evaluated);
  // Permutations of the false-condition rules re-converge, so revisits
  // must actually be skipped and strictly fewer steps taken than the full
  // enumeration.
  EXPECT_GT(dedup.stats.dedup_hits, 0);
  EXPECT_LT(dedup.steps_taken, full.steps_taken);
}

// Satellite regression: with dedup_subtrees on an observably
// NONdeterministic set, the empty stream set must surface as "not
// evaluated" — never as a (vacuously) unique observable stream.
TEST_F(ExplorerTest, DedupObservableVerdictIsNotEvaluated) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorerOptions full_options;
  ExplorationResult full = Explore({"insert into a values (0)"},
                                   full_options);
  EXPECT_TRUE(full.streams_evaluated);
  EXPECT_EQ(full.observable_determinism(),
            ExplorationResult::ObservableDeterminism::kNondeterministic);
  EXPECT_FALSE(full.unique_observable_stream());

  ExplorerOptions dedup_options;
  dedup_options.dedup_subtrees = true;
  ExplorationResult dedup = Explore({"insert into a values (0)"},
                                    dedup_options);
  EXPECT_TRUE(dedup.observable_streams.empty());
  EXPECT_FALSE(dedup.streams_evaluated);
  EXPECT_EQ(dedup.observable_determinism(),
            ExplorationResult::ObservableDeterminism::kNotEvaluated);
  // The historic landmine: an empty set must not read as deterministic.
  EXPECT_FALSE(dedup.unique_observable_stream());
}

TEST_F(ExplorerTest, DedupSubtreesDetectsNontermination) {
  Load("create table a (x int);",
       "create rule flip on a when updated(x) "
       "then update a set x = 1 - x;");
  ASSERT_TRUE(db_->storage(0).Insert({Value::Int(0)}).ok());
  ExplorerOptions options;
  options.dedup_subtrees = true;
  ExplorationResult r = Explore({"update a set x = 1"}, options);
  EXPECT_TRUE(r.may_not_terminate);
}

// dedup_subtrees is a visit-once search on cyclic graphs too: `flip`
// cycles x between 0 and 1 while the false-condition rules n1 / n2 only
// clear their own markers, giving 8 states. Each state is expanded once, so
// no (state, rule) edge is recorded twice; the full enumeration walks 38
// steps, the visit-once search 16.
TEST_F(ExplorerTest, DedupSubtreesVisitsEachStateOnceOnCyclicGraphs) {
  Load("create table a (x int); create table b (x int);",
       "create rule flip on a when updated(x) then update a set x = 1 - x; "
       "create rule n1 on a when updated(x) "
       "if exists (select * from a where x > 100) "
       "then insert into b values (1); "
       "create rule n2 on a when updated(x) "
       "if exists (select * from a where x > 200) "
       "then insert into b values (2);");
  ASSERT_TRUE(db_->storage(0).Insert({Value::Int(0)}).ok());
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  ExplorationResult full = Explore({"update a set x = 1"}, options);
  ASSERT_TRUE(full.complete);
  options.dedup_subtrees = true;
  options.record_graph = true;
  ExplorationResult dedup = Explore({"update a set x = 1"}, options);
  EXPECT_TRUE(dedup.complete);
  EXPECT_EQ(dedup.steps_taken, 16);
  EXPECT_GT(dedup.stats.dedup_hits, 0);
  EXPECT_EQ(dedup.states_visited, full.states_visited);
  EXPECT_EQ(dedup.final_states, full.final_states);
  EXPECT_EQ(dedup.may_not_terminate, full.may_not_terminate);
  std::set<std::pair<int, RuleIndex>> expanded;
  for (const ExplorationResult::RecordedEdge& e : dedup.graph_edges) {
    EXPECT_TRUE(expanded.insert({e.from, e.rule}).second)
        << "state " << e.from << " expanded rule " << e.rule << " twice";
  }
}

// ---------------------------------------------------------------------------
// Engine-vs-reference equivalence: the recursive, string-keyed,
// copy-per-branch reference walk (testing/reference_explorer.h) must agree
// with the iterative undo-log explorer on final_states, observable_streams,
// may_not_terminate, completeness, visit and step accounting over
// randomized workloads.
// ---------------------------------------------------------------------------

TEST(ExplorerEquivalenceTest, MatchesReferenceOnRandomWorkloads) {
  int explored = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomRuleSetParams params;
    params.seed = seed;
    params.num_rules = 3;
    params.num_tables = 3;
    params.columns_per_table = 2;
    params.max_actions_per_rule = 1;
    params.tables_per_rule = 2;
    params.update_bound = 3;
    params.priority_density = 0.2;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto catalog = RuleCatalog::Build(gen.schema.get(), std::move(gen.rules));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

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

    ExplorerOptions options;
    options.max_depth = 24;
    options.max_total_steps = 8000;
    // The reference explorer enumerates every order; compare like-for-like.
    options.por = ExplorerOptions::PorMode::kOff;
    auto expected =
        fuzzing::ReferenceExplore(catalog.value(), db, initial, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto actual = Explorer::Explore(catalog.value(), db, initial, options);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual.value().final_states, expected.value().final_states)
        << "final states diverged, seed " << seed;
    EXPECT_EQ(actual.value().observable_streams,
              expected.value().observable_streams)
        << "observable streams diverged, seed " << seed;
    EXPECT_EQ(actual.value().may_not_terminate,
              expected.value().may_not_terminate)
        << "termination verdicts diverged, seed " << seed;
    EXPECT_EQ(actual.value().complete, expected.value().complete)
        << "completeness diverged, seed " << seed;
    EXPECT_EQ(actual.value().steps_taken, expected.value().steps_taken)
        << "step counts diverged, seed " << seed;
    EXPECT_EQ(actual.value().states_visited, expected.value().states_visited)
        << "visited-state counts diverged, seed " << seed;

    // Dedup mode: final-state set and termination verdict must also agree.
    ExplorerOptions dedup = options;
    dedup.dedup_subtrees = true;
    auto pruned = Explorer::Explore(catalog.value(), db, initial, dedup);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    if (expected.value().complete && pruned.value().complete) {
      EXPECT_EQ(pruned.value().final_states, expected.value().final_states)
          << "dedup final states diverged, seed " << seed;
      EXPECT_EQ(pruned.value().may_not_terminate,
                expected.value().may_not_terminate)
          << "dedup termination diverged, seed " << seed;
    }
    ++explored;
  }
  EXPECT_GE(explored, 20);
}

// --- Parallel (num_threads >= 1) mode: classic-equivalence on fixed
// workloads covering every top-level shape: branching with convergent and
// divergent finals, rollback branches, cycles through the root, observable
// streams, and the no-triggered-rules root-final case.

class ShardedExplorerTest : public ExplorerTest {
 protected:
  // Explores with the classic engine and with 1, 2, and 8 workers,
  // asserting the documented invariant: identical verdicts, final states,
  // observable streams, and visit accounting for every num_threads.
  void ExpectShardedMatchesClassic(const std::vector<std::string>& stmts,
                                   ExplorerOptions options = {}) {
    options.num_threads = 0;
    ExplorationResult classic = Explore(stmts, options);
    for (int threads : {1, 2, 8}) {
      options.num_threads = threads;
      ExplorationResult sharded = Explore(stmts, options);
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      EXPECT_EQ(sharded.final_states, classic.final_states);
      EXPECT_EQ(sharded.observable_streams, classic.observable_streams);
      EXPECT_EQ(sharded.may_not_terminate, classic.may_not_terminate);
      EXPECT_EQ(sharded.complete, classic.complete);
      EXPECT_EQ(sharded.steps_taken, classic.steps_taken);
      // The shared interner makes even the visit accounting identical to
      // classic.
      EXPECT_EQ(sharded.states_visited, classic.states_visited);
      EXPECT_EQ(sharded.stats.states_interned, classic.stats.states_interned);
      EXPECT_EQ(sharded.stats.interner_hits, classic.stats.interner_hits);
      EXPECT_EQ(sharded.stats.delta_reverts, classic.stats.delta_reverts);
      EXPECT_EQ(sharded.stats.canonicalization_bytes,
                classic.stats.canonicalization_bytes);
      EXPECT_EQ(sharded.stats.peak_stack_depth,
                classic.stats.peak_stack_depth);
      EXPECT_EQ(sharded.stats.por_pruned_orders,
                classic.stats.por_pruned_orders);
    }
  }
};

TEST_F(ShardedExplorerTest, RootFinalState) {
  Load("create table a (x int);", "");
  ExpectShardedMatchesClassic({"insert into a values (1)"});
}

TEST_F(ShardedExplorerTest, ConfluentPair) {
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule wc on a when inserted then insert into c values (1);");
  ExpectShardedMatchesClassic({"insert into a values (1)"});
}

TEST_F(ShardedExplorerTest, NonConfluentPair) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2;");
  ExpectShardedMatchesClassic({"insert into a values (0)"});
}

TEST_F(ShardedExplorerTest, RollbackShard) {
  Load("create table a (x int); create table b (x int);",
       "create rule veto on a when inserted then rollback; "
       "create rule wb on a when inserted then insert into b values (1);");
  ExpectShardedMatchesClassic({"insert into a values (1)"});
}

TEST_F(ShardedExplorerTest, CycleThroughRoot) {
  Load("create table a (x int);",
       "create rule flip on a when updated(x) "
       "then update a set x = 1 - x;");
  ASSERT_TRUE(db_->storage(0).Insert({Value::Int(0)}).ok());
  ExpectShardedMatchesClassic({"update a set x = 1"});
}

TEST_F(ShardedExplorerTest, ObservableStreams) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a; "
       "create rule s3 on a when inserted then select 3 from a;");
  ExpectShardedMatchesClassic({"insert into a values (0)"});
}

TEST_F(ShardedExplorerTest, DepthLimitVerdictMatches) {
  Load("create table a (x int);",
       "create rule grow on a when inserted "
       "then insert into a values (1);");
  ExplorerOptions options;
  options.max_depth = 5;
  options.num_threads = 0;
  ExplorationResult classic = Explore({"insert into a values (0)"}, options);
  EXPECT_FALSE(classic.complete);
  EXPECT_TRUE(classic.may_not_terminate);
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult sharded =
        Explore({"insert into a values (0)"}, options);
    // Depth semantics match classic exactly at every worker count.
    EXPECT_FALSE(sharded.complete) << "num_threads=" << threads;
    EXPECT_TRUE(sharded.may_not_terminate) << "num_threads=" << threads;
  }
}

TEST_F(ShardedExplorerTest, StreamCapKeepsLexicographicallyFirst) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  ExplorerOptions options;
  options.max_streams = 1;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult r = Explore({"insert into a values (0)"}, options);
    ASSERT_EQ(r.observable_streams.size(), 1u) << "num_threads=" << threads;
    EXPECT_FALSE(r.complete) << "num_threads=" << threads;
    // The kept stream is the lexicographically-first of the union,
    // regardless of which worker produced it or in which order.
    EXPECT_NE(r.observable_streams.begin()->find("1"), std::string::npos);
  }
}

TEST_F(ShardedExplorerTest, RecordGraphFallsBackToClassic) {
  Load("create table a (x int); create table b (x int);",
       "create rule wb on a when inserted then insert into b values (1);");
  ExplorerOptions options;
  options.record_graph = true;
  options.num_threads = 8;
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  // The recorded graph is only produced by the classic engine; num_threads
  // is ignored rather than silently dropping the graph.
  EXPECT_FALSE(r.graph_edges.empty());
  EXPECT_EQ(r.final_states.size(), 1u);
}

// Parallel edge: rules exist in the catalog but the initial transition
// triggers none of them, so the root is final and there is nothing to
// distribute. Every pool size must degrade to the single root-final
// answer, matching classic.
TEST_F(ShardedExplorerTest, RulesPresentButNoneTriggered) {
  Load("create table a (x int); create table b (x int);",
       "create rule onb on b when inserted then delete from b; "
       "create rule onb2 on b when deleted then insert into b values (2);");
  ExpectShardedMatchesClassic({"insert into a values (1)"});
  ExplorerOptions options;
  options.num_threads = 8;
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.final_states.size(), 1u);
  EXPECT_EQ(r.steps_taken, 0);
}

// Sharded edge: the budget-boundary quiescence semantics carry over to
// every pool size.
TEST_F(ShardedExplorerTest, QuiescenceAtStepBudgetMatchesClassic) {
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "then update a set x = x + 1 where x < 3;");
  ExplorerOptions options;
  options.max_total_steps = 4;  // see QuiescenceExactlyAtStepBudgetIsComplete
  ExpectShardedMatchesClassic({"insert into a values (0)"}, options);
}

// Satellite regression (budget division): the classic `max_total_steps`
// budget is shared by all workers, not handed out per worker — a per-shard
// budget once let num_threads=8 get up to 8x the classic exploration
// budget and report complete where the classic walk tripped. Three
// non-commuting rules give a 15-step full tree; a budget of 8 trips the
// classic walk, so every pool size must trip too, with identical results
// at 1 vs 8 threads.
TEST_F(ShardedExplorerTest, StepBudgetIsDividedAcrossShards) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2; "
       "create rule w3 on a when inserted then update a set x = 3;");
  ExplorerOptions options;
  options.max_total_steps = 8;
  options.num_threads = 0;
  ExplorationResult classic = Explore({"insert into a values (0)"}, options);
  EXPECT_FALSE(classic.complete);

  options.num_threads = 1;
  ExplorationResult one = Explore({"insert into a values (0)"}, options);
  options.num_threads = 8;
  ExplorationResult eight = Explore({"insert into a values (0)"}, options);
  // The regression: with a per-shard budget, 3 shards x 8 steps >= 15
  // total and both parallel runs would (wrongly) come back complete.
  EXPECT_FALSE(one.complete);
  EXPECT_FALSE(eight.complete);
  // 1-vs-8-thread equivalence holds even on the truncated enumeration.
  EXPECT_EQ(one.final_states, eight.final_states);
  EXPECT_EQ(one.observable_streams, eight.observable_streams);
  EXPECT_EQ(one.may_not_terminate, eight.may_not_terminate);
  EXPECT_EQ(one.steps_taken, eight.steps_taken);

  // With the full 15-step budget everything completes and the shared
  // budget leaves the classic equivalence intact.
  options.max_total_steps = 15;
  ExpectShardedMatchesClassic({"insert into a values (0)"}, options);
}

// Satellite regression (stream-cap merge boundary): a merged union of
// EXACTLY max_streams fully enumerated streams is complete — only the
// cap-plus-one union truncates. Pins the `>` (not `>=`) comparison in the
// work-stealing merge.
TEST_F(ShardedExplorerTest, StreamCapExactlyAtCapStaysComplete) {
  Load("create table a (x int);",
       "create rule s1 on a when inserted then select 1 from a; "
       "create rule s2 on a when inserted then select 2 from a;");
  // Two observable rules, two orders: the union holds exactly 2 streams.
  ExplorerOptions options;
  options.max_streams = 2;
  for (int threads : {0, 1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult r = Explore({"insert into a values (0)"}, options);
    EXPECT_EQ(r.observable_streams.size(), 2u) << "num_threads=" << threads;
    EXPECT_TRUE(r.complete) << "num_threads=" << threads;
  }
  // Cap-plus-one: the same union against max_streams = 1 truncates.
  options.max_streams = 1;
  for (int threads : {0, 1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult r = Explore({"insert into a values (0)"}, options);
    EXPECT_EQ(r.observable_streams.size(), 1u) << "num_threads=" << threads;
    EXPECT_FALSE(r.complete) << "num_threads=" << threads;
  }
}

TEST_F(ShardedExplorerTest, MoreThreadsThanShards) {
  Load("create table a (x int); create table b (x int);",
       "create rule wb on a when inserted then insert into b values (1);");
  ExplorerOptions options;
  options.num_threads = 16;  // only one eligible rule at the root
  ExplorationResult r = Explore({"insert into a values (1)"}, options);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.final_states.size(), 1u);
}

// Satellite regression (POR x parallel degenerate case): two commuting
// rules with commutativity certified, so the reduction collapses the root
// to a SINGLE eligible rule. There is nothing to parallelize; the engine
// must degrade to the classic walk's exact answer — including the pruned
// count and visit accounting — for every pool size, in dedup mode too.
TEST_F(ShardedExplorerTest, PorSingleEligibleRootDegradesToClassic) {
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule wb on a when inserted then insert into b values (1); "
       "create rule wc on a when inserted then insert into c values (1);");
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kCommute;
  options.num_threads = 0;
  ExplorationResult classic = Explore({"insert into a values (1)"}, options);
  ASSERT_TRUE(classic.complete);
  EXPECT_GT(classic.stats.por_pruned_orders, 0);
  ExpectShardedMatchesClassic({"insert into a values (1)"}, options);

  // Same degenerate root under dedup mode, which runs at one worker at
  // every pool size.
  options.dedup_subtrees = true;
  options.num_threads = 0;
  ExplorationResult dedup_classic =
      Explore({"insert into a values (1)"}, options);
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult dedup = Explore({"insert into a values (1)"}, options);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    EXPECT_EQ(dedup.final_states, dedup_classic.final_states);
    EXPECT_EQ(dedup.complete, dedup_classic.complete);
    EXPECT_EQ(dedup.steps_taken, dedup_classic.steps_taken);
    EXPECT_EQ(dedup.states_visited, dedup_classic.states_visited);
    EXPECT_EQ(dedup.stats.dedup_hits, dedup_classic.stats.dedup_hits);
  }
}

// Satellite regression (global step budget): under the legacy top-level
// sharding the budget was SLICED across shards, so an asymmetric tree —
// one heavy subtree, one light — could trip the heavy shard's slice and
// report incomplete where the classic walk finishes comfortably inside
// the same total budget. The shared atomic budget hands every step to
// whichever worker claims it, so a budget exactly equal to the classic
// step count completes at every pool size with identical results.
TEST_F(ShardedExplorerTest, GlobalBudgetHasNoPerShardPessimism) {
  // Root eligible = {small, big}: the `small` subtree quiesces quickly,
  // the `big` subtree cascades through b and c, so the two top-level
  // shards need very different step counts.
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule small on a when inserted then select 1 from a; "
       "create rule big on a when inserted then insert into b values (1); "
       "create rule bb on b when inserted then insert into c values (1);");
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.num_threads = 0;
  ExplorationResult classic = Explore({"insert into a values (0)"}, options);
  ASSERT_TRUE(classic.complete);
  const long total_steps = classic.steps_taken;
  ASSERT_GT(total_steps, 2);

  // An even split would starve the heavy shard: it needs more than half
  // the total. The global budget must not reintroduce that pessimism.
  options.max_total_steps = total_steps;
  ExpectShardedMatchesClassic({"insert into a values (0)"}, options);
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    ExplorationResult r = Explore({"insert into a values (0)"}, options);
    EXPECT_TRUE(r.complete) << "num_threads=" << threads;
    EXPECT_EQ(r.steps_taken, total_steps) << "num_threads=" << threads;
  }
}

// Satellite regression (dedup x threads): dedup_subtrees runs the classic
// walk at every num_threads, so every result field and every counter but
// wall time is identical at 0/1/2/8 threads — at the default budget and
// when the budget trips.
TEST_F(ShardedExplorerTest, DedupResultsIdenticalAcrossThreadCounts) {
  Load("create table a (x int); create table b (x int);", kReconvergentRules);
  auto expect_identical = [](const ExplorationResult& r,
                             const ExplorationResult& c) {
    EXPECT_EQ(r.complete, c.complete);
    EXPECT_EQ(r.may_not_terminate, c.may_not_terminate);
    EXPECT_EQ(r.final_states, c.final_states);
    ASSERT_EQ(r.final_databases.size(), c.final_databases.size());
    for (const auto& [key, db] : r.final_databases) {
      auto it = c.final_databases.find(key);
      ASSERT_NE(it, c.final_databases.end());
      EXPECT_EQ(db.CanonicalString(), it->second.CanonicalString());
    }
    EXPECT_EQ(r.observable_streams, c.observable_streams);
    EXPECT_EQ(r.streams_evaluated, c.streams_evaluated);
    EXPECT_EQ(r.states_visited, c.states_visited);
    EXPECT_EQ(r.steps_taken, c.steps_taken);
    ASSERT_EQ(r.graph_edges.size(), c.graph_edges.size());
    for (size_t i = 0; i < r.graph_edges.size(); ++i) {
      EXPECT_EQ(r.graph_edges[i].from, c.graph_edges[i].from);
      EXPECT_EQ(r.graph_edges[i].to, c.graph_edges[i].to);
      EXPECT_EQ(r.graph_edges[i].rule, c.graph_edges[i].rule);
    }
    EXPECT_EQ(r.node_is_final, c.node_is_final);
    EXPECT_EQ(r.graph_truncated, c.graph_truncated);
    const ExplorationStats& rs = r.stats;
    const ExplorationStats& cs = c.stats;
    EXPECT_EQ(rs.states_interned, cs.states_interned);
    EXPECT_EQ(rs.dedup_hits, cs.dedup_hits);
    EXPECT_EQ(rs.interner_hits, cs.interner_hits);
    EXPECT_EQ(rs.peak_stack_depth, cs.peak_stack_depth);
    EXPECT_EQ(rs.canonicalization_bytes, cs.canonicalization_bytes);
    EXPECT_EQ(rs.delta_reverts, cs.delta_reverts);
    EXPECT_EQ(rs.por_pruned_orders, cs.por_pruned_orders);
    EXPECT_EQ(rs.steals, cs.steals);
    EXPECT_EQ(rs.helper_threads, cs.helper_threads);
    EXPECT_EQ(rs.parallel_fallbacks, cs.parallel_fallbacks);
  };
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.dedup_subtrees = true;
  for (long budget : {ExplorerOptions{}.max_total_steps, 20L}) {
    options.max_total_steps = budget;
    options.num_threads = 0;
    ExplorationResult classic = Explore({"insert into a values (1)"}, options);
    EXPECT_GT(classic.stats.dedup_hits, 0) << "budget=" << budget;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " num_threads=" + std::to_string(threads));
      options.num_threads = threads;
      expect_identical(Explore({"insert into a values (1)"}, options),
                       classic);
    }
  }
}

}  // namespace
}  // namespace starburst
