#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/fingerprint.h"
#include "engine/table.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "testing/reference_explorer.h"

namespace starburst {
namespace {

class DeltaTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_
                    .AddTable("t", {{"a", ColumnType::kInt},
                                    {"b", ColumnType::kString}})
                    .ok());
  }

  Rid Insert(TableStorage* storage, int64_t a, const std::string& b) {
    auto rid = storage->Insert({Value::Int(a), Value::String(b)});
    EXPECT_TRUE(rid.ok()) << rid.status().ToString();
    return rid.ok() ? rid.value() : static_cast<Rid>(-1);
  }

  Schema schema_;
};

TEST_F(DeltaTableTest, RevertUndoesInsertDeleteUpdateInLifoOrder) {
  TableStorage storage(&schema_.table(0));
  Rid base = Insert(&storage, 1, "x");
  std::string before = storage.CanonicalString();
  Hash128 hash_before = storage.content_hash();

  storage.BeginDelta();
  Rid added = Insert(&storage, 2, "y");
  ASSERT_TRUE(storage.Update(base, {Value::Int(9), Value::String("z")}).ok());
  ASSERT_TRUE(storage.Delete(added).ok());
  ASSERT_TRUE(storage.Update(base, {Value::Int(7), Value::String("w")}).ok());
  storage.RevertDelta();

  EXPECT_EQ(storage.size(), 1u);
  const Tuple* t = storage.Get(base);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ((*t)[0], Value::Int(1));
  EXPECT_EQ(storage.CanonicalString(), before);
  EXPECT_EQ(storage.content_hash(), hash_before);
}

TEST_F(DeltaTableTest, NestedDeltasRevertToTheirOwnMarks) {
  TableStorage storage(&schema_.table(0));
  Insert(&storage, 1, "x");

  storage.BeginDelta();
  Insert(&storage, 2, "outer");
  std::string outer_state = storage.CanonicalString();
  Hash128 outer_hash = storage.content_hash();

  storage.BeginDelta();
  Insert(&storage, 3, "inner");
  ASSERT_TRUE(storage.delta_active());
  storage.RevertDelta();
  EXPECT_EQ(storage.CanonicalString(), outer_state);
  EXPECT_EQ(storage.content_hash(), outer_hash);

  storage.RevertDelta();
  EXPECT_EQ(storage.size(), 1u);
  EXPECT_FALSE(storage.delta_active());
}

TEST_F(DeltaTableTest, CommitMergesIntoEnclosingDelta) {
  TableStorage storage(&schema_.table(0));
  std::string empty_state = storage.CanonicalString();

  storage.BeginDelta();
  Insert(&storage, 1, "outer");
  storage.BeginDelta();
  Insert(&storage, 2, "inner");
  storage.CommitDelta();  // inner ops now belong to the outer delta
  EXPECT_EQ(storage.size(), 2u);
  storage.RevertDelta();  // and revert with it

  EXPECT_EQ(storage.size(), 0u);
  EXPECT_EQ(storage.CanonicalString(), empty_state);
}

TEST_F(DeltaTableTest, RevertRestoresTheRidCounter) {
  TableStorage storage(&schema_.table(0));
  Insert(&storage, 1, "x");

  storage.BeginDelta();
  Rid first_try = Insert(&storage, 2, "y");
  Insert(&storage, 3, "z");
  storage.RevertDelta();

  // The same logical insert replayed after a revert gets the same rid, so
  // rid-sensitive renderings (pending transitions) are byte-identical
  // across re-explorations of the same path.
  Rid second_try = Insert(&storage, 2, "y");
  EXPECT_EQ(first_try, second_try);
}

TEST_F(DeltaTableTest, CopyIsALogicalSnapshotWithoutOpenDeltas) {
  TableStorage storage(&schema_.table(0));
  Insert(&storage, 1, "x");
  storage.BeginDelta();
  Insert(&storage, 2, "y");

  TableStorage snapshot = storage;  // rows copied, undo log dropped
  EXPECT_FALSE(snapshot.delta_active());
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.content_hash(), storage.content_hash());

  // Reverting the original must not disturb the snapshot.
  storage.RevertDelta();
  EXPECT_EQ(storage.size(), 1u);
  EXPECT_EQ(snapshot.size(), 2u);
}

class DeltaDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddTable("a", {{"x", ColumnType::kInt}}).ok());
    ASSERT_TRUE(schema_.AddTable("b", {{"x", ColumnType::kInt}}).ok());
  }
  Schema schema_;
};

TEST_F(DeltaDatabaseTest, FingerprintIgnoresRidsAndBuildOrder) {
  Database d1(&schema_);
  Database d2(&schema_);
  ASSERT_TRUE(d1.storage(0).Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(d1.storage(0).Insert({Value::Int(2)}).ok());
  ASSERT_TRUE(d1.storage(1).Insert({Value::Int(3)}).ok());
  // Same logical contents, different insertion order and a burned rid.
  ASSERT_TRUE(d2.storage(1).Insert({Value::Int(3)}).ok());
  auto burner = d2.storage(0).Insert({Value::Int(99)});
  ASSERT_TRUE(burner.ok());
  ASSERT_TRUE(d2.storage(0).Insert({Value::Int(2)}).ok());
  ASSERT_TRUE(d2.storage(0).Delete(burner.value()).ok());
  ASSERT_TRUE(d2.storage(0).Insert({Value::Int(1)}).ok());

  EXPECT_EQ(d1.ContentFingerprint(), d2.ContentFingerprint());
  EXPECT_EQ(d1.CanonicalString(), d2.CanonicalString());
}

TEST_F(DeltaDatabaseTest, FingerprintIsTablePositionSensitive) {
  // The same multiset of tuples in table a vs table b must fingerprint
  // differently (the per-table hashes are salted by table index).
  Database d1(&schema_);
  Database d2(&schema_);
  ASSERT_TRUE(d1.storage(0).Insert({Value::Int(5)}).ok());
  ASSERT_TRUE(d2.storage(1).Insert({Value::Int(5)}).ok());
  EXPECT_FALSE(d1.ContentFingerprint() == d2.ContentFingerprint());
}

TEST_F(DeltaDatabaseTest, DatabaseDeltaSpansAllTablesAndNests) {
  Database db(&schema_);
  ASSERT_TRUE(db.storage(0).Insert({Value::Int(1)}).ok());
  Hash128 before = db.ContentFingerprint();

  db.BeginDelta();
  ASSERT_TRUE(db.storage(0).Insert({Value::Int(2)}).ok());
  db.BeginDelta();
  ASSERT_TRUE(db.storage(1).Insert({Value::Int(3)}).ok());
  EXPECT_EQ(db.delta_depth(), 2);
  db.RevertDelta();
  EXPECT_EQ(db.storage(1).size(), 0u);
  EXPECT_EQ(db.storage(0).size(), 2u);
  db.RevertDelta();
  EXPECT_EQ(db.delta_depth(), 0);
  EXPECT_EQ(db.ContentFingerprint(), before);
}

/// Processor + explorer scenarios: cascaded rule firings nest deltas, a
/// ROLLBACK action reverts across every nested level, and an exhausted
/// step budget leaves no delta open.
class DeltaEngineTest : public ::testing::Test {
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
  }

  /// The reference walk's counterpart of Explorer::ExploreAfterStatements.
  Result<ExplorationResult> ReferenceAfterStatements(
      const Database& initial_db, const std::vector<std::string>& stmts,
      const ExplorerOptions& options) {
    Database db = initial_db;
    STARBURST_ASSIGN_OR_RETURN(Transition initial,
                               ApplyUserStatements(&db, stmts));
    return fuzzing::ReferenceExplore(*catalog_, db, initial, options);
  }

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
};

TEST_F(DeltaEngineTest, ProcessorRollbackRevertsAcrossCascadedFirings) {
  // A two-level cascade whose tail rolls back: the revert must unwind the
  // user statement AND both rule firings in one shot.
  Load("create table a (x int); create table b (x int); "
       "create table c (x int);",
       "create rule ab on a when inserted "
       "then insert into b select x from inserted; "
       "create rule bc on b when inserted if exists "
       "(select * from inserted where x > 1) then rollback;");
  Database db(&schema_);
  ASSERT_TRUE(db.storage(0).Insert({Value::Int(0)}).ok());
  Hash128 before = db.ContentFingerprint();
  std::string before_str = db.CanonicalString();

  RuleProcessor processor(&db, catalog_.get());
  auto exec = processor.ExecuteUserStatement("insert into a values (5)");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  auto result = processor.AssertRules();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().rolled_back);

  EXPECT_EQ(db.ContentFingerprint(), before);
  EXPECT_EQ(db.CanonicalString(), before_str);
  EXPECT_EQ(db.delta_depth(), 0);

  // The processor stays usable: a non-rollback transaction commits.
  auto exec2 = processor.ExecuteUserStatement("insert into a values (1)");
  ASSERT_TRUE(exec2.ok()) << exec2.status().ToString();
  auto result2 = processor.AssertRules();
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_FALSE(result2.value().rolled_back);
  EXPECT_EQ(db.storage(1).size(), 1u);
  // The transaction (and its delta) stays open until Commit.
  EXPECT_EQ(db.delta_depth(), 1);
  processor.Commit();
  EXPECT_EQ(db.delta_depth(), 0);
  EXPECT_EQ(db.storage(1).size(), 1u);
}

TEST_F(DeltaEngineTest, ExplorerBackendsAgreeWhenBudgetTripsMidPath) {
  // An unbounded counter loop: every budget from 0 to a handful trips at a
  // different depth, so reverts fire at every unwind shape, including
  // "budget exhausted with the whole path still open".
  Load("create table a (x int);",
       "create rule grow on a when inserted "
       "then insert into a select x + 1 from inserted;");
  Database db(&schema_);

  for (long budget = 0; budget <= 6; ++budget) {
    ExplorerOptions options;
    options.por = ExplorerOptions::PorMode::kOff;
    options.max_total_steps = budget;

    auto copy = ReferenceAfterStatements(db, {"insert into a values (1)"},
                                         options);
    auto undo = Explorer::ExploreAfterStatements(
        *catalog_, db, {"insert into a values (1)"}, options);
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    ASSERT_TRUE(undo.ok()) << undo.status().ToString();
    EXPECT_FALSE(undo.value().complete) << "budget=" << budget;
    EXPECT_EQ(undo.value().complete, copy.value().complete);
    EXPECT_EQ(undo.value().may_not_terminate, copy.value().may_not_terminate);
    EXPECT_EQ(undo.value().final_states, copy.value().final_states);
    EXPECT_EQ(undo.value().observable_streams,
              copy.value().observable_streams);
    EXPECT_EQ(undo.value().states_visited, copy.value().states_visited);
    EXPECT_EQ(undo.value().steps_taken, copy.value().steps_taken);
    EXPECT_EQ(copy.value().stats.delta_reverts, 0);
  }
}

TEST_F(DeltaEngineTest, ExplorerBackendsAgreeOnDivergentFinalStates) {
  // Two unordered rules racing on the same trigger: multiple final states
  // and observable streams, plus rollback paths mixed in.
  Load("create table a (x int); create table b (x int);",
       "create rule keep_small on a when inserted if exists "
       "(select * from a where x > 3) then delete from a where x > 3; "
       "create rule mirror on a when inserted "
       "then insert into b select x from inserted; "
       "create rule guard on b when inserted if exists "
       "(select * from b where x > 8) then rollback;");
  Database db(&schema_);

  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  const std::vector<std::string> stmts = {"insert into a values (2), (9)"};

  auto copy = ReferenceAfterStatements(db, stmts, options);
  auto undo =
      Explorer::ExploreAfterStatements(*catalog_, db, stmts, options);
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  ASSERT_TRUE(undo.ok()) << undo.status().ToString();
  EXPECT_TRUE(undo.value().complete);
  EXPECT_EQ(undo.value().final_states, copy.value().final_states);
  EXPECT_EQ(undo.value().observable_streams, copy.value().observable_streams);
  EXPECT_EQ(undo.value().states_visited, copy.value().states_visited);
  EXPECT_GT(undo.value().stats.delta_reverts, 0);
  EXPECT_EQ(copy.value().stats.delta_reverts, 0);
}

}  // namespace
}  // namespace starburst
