#include <gtest/gtest.h>

#include "rulelang/parser.h"
#include "rules/processor.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

/// Builds a schema + catalog from scripts. The returned pointers are owned
/// by the fixture.
class ProcessorTest : public ::testing::Test {
 protected:
  void Load(const std::string& ddl, const std::string& rules_src) {
    auto ddl_script = Parser::ParseScript(ddl);
    ASSERT_TRUE(ddl_script.ok()) << ddl_script.status().ToString();
    for (const StmtPtr& stmt : ddl_script.value().statements) {
      ASSERT_EQ(stmt->kind, StmtKind::kCreateTable);
      ASSERT_TRUE(schema_.AddTable(stmt->table, stmt->create_columns).ok());
    }
    auto rules_script = Parser::ParseScript(rules_src);
    ASSERT_TRUE(rules_script.ok()) << rules_script.status().ToString();
    auto catalog =
        RuleCatalog::Build(&schema_, std::move(rules_script.value().rules));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog_ = std::make_unique<RuleCatalog>(std::move(catalog).value());
    db_ = std::make_unique<Database>(&schema_);
    processor_ = std::make_unique<RuleProcessor>(db_.get(), catalog_.get());
  }

  void Exec(const std::string& sql) {
    auto out = processor_->ExecuteUserStatement(sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString() << " for " << sql;
  }

  ProcessingResult Assert() {
    auto r = processor_->AssertRules();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ProcessingResult{};
  }

  int64_t Count(const std::string& table) {
    TableId t = schema_.FindTable(table);
    return static_cast<int64_t>(db_->storage(t).size());
  }

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<RuleProcessor> processor_;
};

TEST_F(ProcessorTest, SimpleCascadeTerminates) {
  Load("create table a (x int); create table b (x int);",
       "create rule copy_ab on a when inserted "
       "then insert into b select x from inserted;");
  Exec("insert into a values (1), (2)");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.steps, 1);
  EXPECT_EQ(Count("b"), 2);
}

TEST_F(ProcessorTest, ConditionFalseStillCountsAsConsidered) {
  Load("create table a (x int);",
       "create rule never on a when inserted "
       "if exists (select * from inserted where x > 100) "
       "then delete from a;");
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.steps, 1);  // considered once, condition false
  EXPECT_EQ(Count("a"), 1);
}

TEST_F(ProcessorTest, RuleSeesNetEffectSinceLastConsideration) {
  // Rule fires on update of a.x; its own action updates a.y only, so it
  // must not re-trigger itself.
  Load("create table a (x int, y int);",
       "create rule bump_y on a when updated(x) "
       "then update a set y = y + 1;");
  Exec("insert into a values (1, 0)");
  ProcessingResult setup = Assert();
  EXPECT_EQ(setup.steps, 0);  // inserts don't trigger it
  Exec("update a set x = 2");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(r.steps, 1);
}

TEST_F(ProcessorTest, TransitionTablesReflectCompositeTransition) {
  // Two user updates to the same row: the rule sees one composite update.
  Load("create table a (x int); create table log (oldx int, newx int);",
       "create rule track on a when updated(x) "
       "then insert into log select old_updated.x, new_updated.x "
       "from old_updated, new_updated;");
  Exec("insert into a values (10)");
  Assert();
  Exec("update a set x = 20");
  Exec("update a set x = 30");
  ProcessingResult r = Assert();
  EXPECT_EQ(r.steps, 1);
  ASSERT_EQ(Count("log"), 1);
  const Tuple& logged = db_->storage(1).rows().begin()->second;
  EXPECT_EQ(logged[0], Value::Int(10));  // original value
  EXPECT_EQ(logged[1], Value::Int(30));  // final value
}

TEST_F(ProcessorTest, NetEffectInsertThenDeleteDoesNotTrigger) {
  Load("create table a (x int); create table b (x int);",
       "create rule on_ins on a when inserted "
       "then insert into b values (1);");
  Exec("insert into a values (5)");
  Exec("delete from a where x = 5");
  ProcessingResult r = Assert();
  EXPECT_EQ(r.steps, 0);  // insert+delete nets to nothing
  EXPECT_EQ(Count("b"), 0);
}

TEST_F(ProcessorTest, PriorityOrdersConsideration) {
  Load("create table a (x int); create table log (who int);",
       "create rule second on a when inserted then insert into log values (2) "
       "follows first; "
       "create rule first on a when inserted then insert into log values (1);");
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  ASSERT_EQ(r.considered.size(), 2u);
  EXPECT_EQ(catalog_->prelim().rule(r.considered[0]).name, "first");
  EXPECT_EQ(catalog_->prelim().rule(r.considered[1]).name, "second");
}

TEST_F(ProcessorTest, SelfTriggeringRuleReachesFixpoint) {
  // Increment x until it reaches 3: re-triggers itself, quiesces.
  Load("create table a (x int);",
       "create rule inc on a when inserted, updated(x) "
       "if exists (select * from a where x < 3) "
       "then update a set x = x + 1 where x < 3;");
  Exec("insert into a values (0)");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(db_->storage(0).rows().begin()->second[0], Value::Int(3));
  // considered: ins-trigger, then per-update retriggers, final false check.
  EXPECT_GE(r.steps, 4);
}

TEST_F(ProcessorTest, NonterminatingRuleHitsStepLimit) {
  ProcessorOptions options;
  options.max_steps = 20;
  Load("create table a (x int);",
       "create rule flip on a when updated(x) "
       "then update a set x = 1 - x;");
  processor_ = std::make_unique<RuleProcessor>(db_.get(), catalog_.get(),
                                               options);
  Exec("insert into a values (0)");
  Assert();  // insert does not trigger
  Exec("update a set x = 1 - x");
  auto r = processor_->AssertRules();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kLimitExceeded);
}

TEST_F(ProcessorTest, RollbackRestoresTransactionStart) {
  Load("create table a (x int);",
       "create rule cap on a when inserted "
       "if exists (select * from inserted where x > 10) then rollback;");
  Exec("insert into a values (1)");
  ProcessingResult ok = Assert();
  EXPECT_FALSE(ok.rolled_back);
  processor_->Commit();
  EXPECT_EQ(Count("a"), 1);

  Exec("insert into a values (99)");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.rolled_back);
  EXPECT_FALSE(processor_->in_transaction());
  EXPECT_EQ(Count("a"), 1);  // back to committed state
  ASSERT_FALSE(r.observables.empty());
  EXPECT_EQ(r.observables.back().kind, ObservableEvent::Kind::kRollback);
}

TEST_F(ProcessorTest, ObservableSelectStreamsFromRules) {
  Load("create table a (x int);",
       "create rule peek on a when inserted then select x from inserted;");
  Exec("insert into a values (7)");
  ProcessingResult r = Assert();
  ASSERT_EQ(r.observables.size(), 1u);
  EXPECT_EQ(r.observables[0].payload, "[(7)]");
}

TEST_F(ProcessorTest, UntriggeringByDeletion) {
  // high_priority deletes the inserted rows before low_priority runs;
  // low_priority becomes untriggered (Section 3, Can-Untrigger).
  Load("create table a (x int); create table log (who int);",
       "create rule cleaner on a when inserted "
       "then delete from a where x in (select x from inserted) "
       "precedes logger; "
       "create rule logger on a when inserted "
       "then insert into log values (1);");
  Exec("insert into a values (5)");
  ProcessingResult r = Assert();
  EXPECT_TRUE(r.terminated);
  EXPECT_EQ(Count("log"), 0);  // logger was untriggered
  EXPECT_EQ(Count("a"), 0);
  ASSERT_EQ(r.considered.size(), 1u);
  EXPECT_EQ(catalog_->prelim().rule(r.considered[0]).name, "cleaner");
}

TEST_F(ProcessorTest, AssertionPointResetsCompositeTransitions) {
  Load("create table a (x int); create table b (x int);",
       "create rule on_ins on a when inserted "
       "then insert into b values (1);");
  Exec("insert into a values (1)");
  Assert();
  EXPECT_EQ(Count("b"), 1);
  // Second assertion point with no new changes: nothing re-fires.
  ProcessingResult r2 = Assert();
  EXPECT_EQ(r2.steps, 0);
  EXPECT_EQ(Count("b"), 1);
}

TEST_F(ProcessorTest, UserRollbackAbortsTransaction) {
  Load("create table a (x int);", "");
  Exec("insert into a values (1)");
  auto rb = processor_->ExecuteUserStatement("rollback");
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(rb.value().rollback);
  EXPECT_FALSE(processor_->in_transaction());
  EXPECT_EQ(Count("a"), 0);
}

TEST_F(ProcessorTest, FailedRuleActionAbortsTransaction) {
  // The rule's second statement divides by zero after the first statement
  // already ran: the whole transaction must be rolled back, leaving no
  // partial rule effects and no partial user effects.
  Load("create table a (x int); create table log (x int);",
       "create rule boom on a when inserted "
       "then insert into log values (1); "
       "     update a set x = 1 / 0;");
  Exec("insert into a values (7)");
  auto r = processor_->AssertRules();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_FALSE(processor_->in_transaction());
  EXPECT_EQ(Count("a"), 0);    // user insert rolled back
  EXPECT_EQ(Count("log"), 0);  // partial rule effect rolled back
}

TEST_F(ProcessorTest, FailedActionAfterCommittedWorkKeepsCommitted) {
  Load("create table a (x int); create table log (x int);",
       "create rule boom on a when updated(x) "
       "then update a set x = x / (x - x);");
  Exec("insert into a values (3)");
  ASSERT_TRUE(processor_->AssertRules().ok());  // insert doesn't trigger
  processor_->Commit();
  Exec("update a set x = 5");
  auto r = processor_->AssertRules();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Count("a"), 1);
  EXPECT_EQ(db_->storage(0).rows().begin()->second[0], Value::Int(3))
      << "committed value must survive the aborted transaction";
}

TEST_F(ProcessorTest, MultiRowInsertIsAtomicUnderBadRow) {
  Load("create table a (x int);", "");
  // Second row has a type error; the first row must not survive.
  auto r = processor_->ExecuteUserStatement(
      "insert into a values (1), ('oops')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Count("a"), 0);
}

TEST_F(ProcessorTest, DeactivatedRuleDoesNotRun) {
  Load("create table a (x int); create table log (x int);",
       "create rule logger on a when inserted "
       "then insert into log values (1);");
  ASSERT_TRUE(processor_->SetRuleEnabled("logger", false).ok());
  EXPECT_FALSE(processor_->IsRuleEnabled(0));
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  EXPECT_EQ(r.steps, 0);
  EXPECT_EQ(Count("log"), 0);
}

TEST_F(ProcessorTest, ReactivatedRuleSeesCompositeTransition) {
  Load("create table a (x int); create table log (x int);",
       "create rule logger on a when inserted "
       "then insert into log select x from inserted;");
  ASSERT_TRUE(processor_->SetRuleEnabled("logger", false).ok());
  Exec("insert into a values (1)");
  Assert();  // deactivated: nothing happens, pending keeps accumulating
  Exec("insert into a values (2)");
  ASSERT_TRUE(processor_->SetRuleEnabled("logger", true).ok());
  ProcessingResult r = Assert();
  EXPECT_EQ(r.steps, 1);
  // The first assertion point ended with no (enabled) triggered rules and
  // reset composite transitions, so the reactivated rule sees only the
  // changes since that point — the paper's "transition since the last
  // rule assertion point" semantics for never-considered rules.
  EXPECT_EQ(Count("log"), 1);
}

TEST_F(ProcessorTest, TraceRecordsConsiderations) {
  ProcessorOptions options;
  options.record_trace = true;
  Load("create table a (x int); create table b (x int);",
       "create rule copy on a when inserted "
       "then insert into b select x from inserted; "
       "create rule never on a when inserted "
       "if exists (select * from inserted where x > 100) "
       "then delete from a;");
  processor_ =
      std::make_unique<RuleProcessor>(db_.get(), catalog_.get(), options);
  Exec("insert into a values (1), (2)");
  ProcessingResult r = Assert();
  ASSERT_EQ(r.trace.size(), 2u);
  // First consideration: `copy`, inserts two tuples, both rules triggered.
  EXPECT_EQ(catalog_->prelim().rule(r.trace[0].rule).name, "copy");
  EXPECT_TRUE(r.trace[0].condition_was_true);
  EXPECT_EQ(r.trace[0].tuples_inserted, 2);
  EXPECT_EQ(r.trace[0].triggered_count, 2);
  // Second: `never`, condition false, no changes.
  EXPECT_EQ(catalog_->prelim().rule(r.trace[1].rule).name, "never");
  EXPECT_FALSE(r.trace[1].condition_was_true);
  EXPECT_EQ(r.trace[1].tuples_inserted, 0);

  std::string text = TraceToString(r.trace, *catalog_);
  EXPECT_NE(text.find("copy"), std::string::npos);
  EXPECT_NE(text.find("never"), std::string::npos);
  EXPECT_NE(text.find("false"), std::string::npos);
}

TEST_F(ProcessorTest, TraceMarksRollback) {
  ProcessorOptions options;
  options.record_trace = true;
  Load("create table a (x int);",
       "create rule veto on a when inserted then rollback;");
  processor_ =
      std::make_unique<RuleProcessor>(db_.get(), catalog_.get(), options);
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_TRUE(r.trace[0].rolled_back);
  EXPECT_NE(TraceToString(r.trace, *catalog_).find("ROLLBACK"),
            std::string::npos);
}

TEST_F(ProcessorTest, TraceOffByDefault) {
  Load("create table a (x int);",
       "create rule touch on a when inserted then delete from a;");
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  EXPECT_GE(r.steps, 1);
  EXPECT_TRUE(r.trace.empty());
}

TEST_F(ProcessorTest, SetRuleEnabledUnknownNameFails) {
  Load("create table a (x int);", "");
  EXPECT_EQ(processor_->SetRuleEnabled("ghost", false).code(),
            StatusCode::kNotFound);
}

TEST_F(ProcessorTest, ChoiceStrategyPicksAmongEligible) {
  Load("create table a (x int); create table l1 (x int); "
       "create table l2 (x int);",
       "create rule w1 on a when inserted then insert into l1 values (1); "
       "create rule w2 on a when inserted then insert into l2 values (1);");
  ProcessorOptions options;
  options.choice = [](const std::vector<RuleIndex>& eligible,
                      int /*step*/) -> size_t {
    return eligible.size() - 1;  // always pick the last eligible rule
  };
  processor_ = std::make_unique<RuleProcessor>(db_.get(), catalog_.get(),
                                               options);
  Exec("insert into a values (1)");
  ProcessingResult r = Assert();
  ASSERT_EQ(r.considered.size(), 2u);
  EXPECT_EQ(catalog_->prelim().rule(r.considered[0]).name, "w2");
}

/// Own-table markers: rule r's pending transition holds no change to any
/// table but the one r is defined on.
void ExpectOwnTableMarker(const RuleCatalog& catalog, RuleIndex r,
                          const Transition& pending) {
  for (const auto& [table, tt] : pending.tables()) {
    EXPECT_TRUE(tt.empty() || table == catalog.prelim().rule(r).table)
        << "rule " << catalog.rule(r).name << " holds changes to table "
        << catalog.schema().table(table).name();
  }
}

TEST_F(ProcessorTest, UserStatementsComposeOnlyIntoOwnTableMarkers) {
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule on_a on a when inserted then insert into b values (1); "
       "create rule on_b on b when inserted, deleted "
       "then insert into c values (1); "
       "create rule on_c on c when updated(x) then delete from a;");
  for (const char* sql :
       {"insert into a values (1)", "insert into b values (2)",
        "insert into c values (3)", "update c set x = 4",
        "delete from b", "delete from a"}) {
    SCOPED_TRACE(sql);
    Exec(sql);
    for (RuleIndex r = 0; r < catalog_->num_rules(); ++r) {
      ExpectOwnTableMarker(*catalog_, r, processor_->pending(r));
    }
  }
  // Each rule still sees the net change to its own table: c's insert
  // then update is an insert of 4; a's and b's inserts were deleted.
  const TableTransition* c = processor_->pending(2).Find(2);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->InsertedTuples(), std::vector<Tuple>{{Value::Int(4)}});
  EXPECT_TRUE(processor_->pending(0).empty());
  EXPECT_TRUE(processor_->pending(1).empty());
}

// Every ConsiderRule from InitialProcessingState keeps the markers on their
// own tables, whether it composes plainly (the processor) or through the
// undo log (the explorer); both give the same state.
TEST(OwnTableMarkerTest, ConsiderRuleComposesOnlyIntoOwnTables) {
  int steps_checked = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomRuleSetParams params;
    params.seed = seed;
    params.num_rules = 5;
    params.num_tables = 4;
    params.columns_per_table = 2;
    params.tables_per_rule = 3;
    params.update_bound = 3;
    params.p_insert_action = 0.3;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto catalog = RuleCatalog::Build(gen.schema.get(), std::move(gen.rules));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    Database db(gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    // The initial transition inserts into every table.
    Transition initial;
    for (TableId t = 0; t < gen.schema->num_tables(); ++t) {
      Tuple tuple(gen.schema->table(t).num_columns(), Value::Int(1));
      auto rid = db.storage(t).Insert(tuple);
      ASSERT_TRUE(rid.ok());
      ASSERT_TRUE(initial.ForTable(t).ApplyInsert(rid.value(), tuple).ok());
    }
    RuleProcessingState plain =
        InitialProcessingState(catalog.value(), db, initial);
    RuleProcessingState logged = plain;
    TransitionUndoLog undo;
    logged.pending_undo = &undo;
    auto expect_own_tables = [&] {
      for (RuleIndex r = 0; r < catalog.value().num_rules(); ++r) {
        ExpectOwnTableMarker(catalog.value(), r, plain.pending[r]);
      }
    };
    expect_own_tables();
    for (int step = 0; step < 30; ++step) {
      std::vector<RuleIndex> eligible = EligibleRules(
          catalog.value(), TriggeredRules(catalog.value(), plain));
      if (eligible.empty()) break;
      RuleIndex r = eligible[(seed + static_cast<uint64_t>(step)) %
                             eligible.size()];
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      Result<StepOutcome> a = ConsiderRule(catalog.value(), &plain, r);
      Result<StepOutcome> b = ConsiderRule(catalog.value(), &logged, r);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      if (a.value().rollback) break;
      expect_own_tables();
      EXPECT_EQ(CanonicalStateKey(logged), CanonicalStateKey(plain));
      ++steps_checked;
    }
  }
  EXPECT_GE(steps_checked, 40);
}

}  // namespace
}  // namespace starburst
