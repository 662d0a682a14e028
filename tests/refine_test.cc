#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/refine.h"
#include "common/strings.h"
#include "rulelang/parser.h"
#include "rules/processor.h"

namespace starburst {
namespace {

class RefineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_
                    .AddTable("t", {{"k", ColumnType::kInt},
                                    {"v", ColumnType::kInt}})
                    .ok());
    ASSERT_TRUE(schema_
                    .AddTable("s", {{"k", ColumnType::kInt},
                                    {"v", ColumnType::kInt}})
                    .ok());
  }

  void Load(const std::string& rules_src) {
    auto script = Parser::ParseScript(rules_src);
    ASSERT_TRUE(script.ok()) << script.status().ToString();
    rules_ = std::move(script.value().rules);
    auto prelim = PrelimAnalysis::Compute(schema_, rules_);
    ASSERT_TRUE(prelim.ok()) << prelim.status().ToString();
    prelim_ = std::move(prelim).value();
  }

  bool SyntacticCommute(int i, int j) {
    return CommutativityAnalyzer::SyntacticallyCommutePair(prelim_, i, j);
  }

  bool Refined(int i, int j) {
    PredicateRefiner refiner(schema_, rules_, prelim_);
    return refiner.PairCommutes(i, j);
  }

  Schema schema_;
  std::vector<RuleDef> rules_;
  PrelimAnalysis prelim_;
};

TEST(IntervalTest, Basics) {
  EXPECT_TRUE(Interval::All().Contains(0));
  EXPECT_TRUE(Interval::AtMost(5).Contains(5));
  EXPECT_FALSE(Interval::AtMost(5).Contains(6));
  EXPECT_TRUE(Interval::AtLeast(5).Contains(5));
  EXPECT_FALSE(Interval::AtLeast(5).Contains(4));
  EXPECT_TRUE(Interval::Exactly(3).Contains(3));
  EXPECT_FALSE(Interval::Exactly(3).Contains(4));
  EXPECT_TRUE(
      Interval::AtMost(2).Intersect(Interval::AtLeast(3)).empty());
  EXPECT_FALSE(
      Interval::AtMost(3).Intersect(Interval::AtLeast(3)).empty());
}

TEST_F(RefineTest, ExtractSimpleConjunction) {
  auto where = Parser::ParseExpression("k > 5 and k <= 9 and v = 2");
  ASSERT_TRUE(where.ok());
  ColumnConstraints c = PredicateRefiner::ExtractConstraints(
      schema_, 0, "t", where.value().get());
  ASSERT_TRUE(c.simple);
  EXPECT_EQ(c.intervals.at(0).lo, 6);
  EXPECT_EQ(c.intervals.at(0).hi, 9);
  EXPECT_EQ(c.intervals.at(1).lo, 2);
  EXPECT_EQ(c.intervals.at(1).hi, 2);
}

TEST_F(RefineTest, ExtractLiteralOnLeftAndNegatives) {
  auto where = Parser::ParseExpression("5 < k and v >= -3");
  ASSERT_TRUE(where.ok());
  ColumnConstraints c = PredicateRefiner::ExtractConstraints(
      schema_, 0, "t", where.value().get());
  ASSERT_TRUE(c.simple);
  EXPECT_EQ(c.intervals.at(0).lo, 6);
  EXPECT_EQ(c.intervals.at(1).lo, -3);
}

TEST_F(RefineTest, ExtractRejectsComplexPredicates) {
  for (const char* src :
       {"k > 5 or v = 1", "k <> 3", "k + 1 > 2", "k > v",
        "k in (select k from s)", "not k = 1", "k > 2.5"}) {
    auto where = Parser::ParseExpression(src);
    ASSERT_TRUE(where.ok()) << src;
    ColumnConstraints c = PredicateRefiner::ExtractConstraints(
        schema_, 0, "t", where.value().get());
    EXPECT_FALSE(c.simple) << src;
  }
}

TEST_F(RefineTest, NullWhereIsSimpleAndUnconstrained) {
  ColumnConstraints c =
      PredicateRefiner::ExtractConstraints(schema_, 0, "t", nullptr);
  EXPECT_TRUE(c.simple);
  EXPECT_TRUE(c.intervals.empty());
}

TEST_F(RefineTest, PaperExample1InsertNeverMatchesDelete) {
  // Section 6.1 example 1: ri inserts into t, rj deletes from t, but the
  // inserted tuples never satisfy the delete condition.
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted then delete from t where k > 10;");
  EXPECT_FALSE(SyntacticCommute(0, 1));  // flagged by Lemma 6.1
  EXPECT_TRUE(Refined(0, 1)) << "refinement should prove commutativity";
}

TEST_F(RefineTest, InsertMatchingDeleteStaysNoncommutative) {
  Load("create rule ri on s when inserted then insert into t values (99, 0); "
       "create rule rj on s when deleted then delete from t where k > 10;");
  EXPECT_FALSE(Refined(0, 1)) << "99 > 10 matches the delete";
}

TEST_F(RefineTest, InsertVsUnconditionalDeleteStaysNoncommutative) {
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted then delete from t;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, InsertSelectIsNotRefutable) {
  Load("create rule ri on s when inserted "
       "then insert into t select k, v from inserted; "
       "create rule rj on s when deleted then delete from t where k > 10;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, PaperExample2DisjointUpdates) {
  // Section 6.1 example 2: both update t but never the same tuples.
  Load("create rule lo on s when inserted "
       "then update t set v = 1 where k < 5; "
       "create rule hi on s when deleted "
       "then update t set v = 2 where k >= 5;");
  EXPECT_FALSE(SyntacticCommute(0, 1));  // condition 5
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, OverlappingUpdatesStayNoncommutative) {
  Load("create rule lo on s when inserted "
       "then update t set v = 1 where k < 7; "
       "create rule hi on s when deleted "
       "then update t set v = 2 where k >= 5;");
  EXPECT_FALSE(Refined(0, 1)) << "ranges overlap at k in [5, 6]";
}

TEST_F(RefineTest, UpdateMovingRowsBetweenRangesStaysNoncommutative) {
  // lo SETS k (the column hi's WHERE constrains): it can move rows into
  // hi's range, so order matters even though the WHEREs are disjoint.
  Load("create rule lo on s when inserted "
       "then update t set k = 9, v = 1 where k < 5; "
       "create rule hi on s when deleted "
       "then update t set v = 2 where k >= 5;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, UpdatesOnEquallyConstrainedDistinctKeys) {
  Load("create rule a on s when inserted "
       "then update t set v = 1 where k = 1; "
       "create rule b on s when deleted "
       "then update t set v = 2 where k = 2;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, ConditionReadingTargetBlocksInsertRefinement) {
  // rj's condition reads t's current state; ri's insert changes it.
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted "
       "if (select count(*) from t) > 3 "
       "then delete from t where k > 10;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, TransitionTableReadsDoNotBlockWhenOnOtherTable) {
  // rj's condition reads its OWN transition tables (table s), not t.
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted "
       "if exists (select * from deleted where v > 0) "
       "then delete from t where k > 10;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, TriggeringIsNeverRefuted) {
  // ri triggers rj (condition 1): no interval reasoning helps.
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on t when inserted then delete from t where k > 10;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, InsertWithColumnListLeavesOthersNullWhichNeverMatch) {
  // The insert omits k; k is NULL, so `k > 10` is unknown -> row filtered.
  Load("create rule ri on s when inserted then insert into t (v) values (7); "
       "create rule rj on s when deleted then delete from t where k > 10;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, ExplicitNullInsertNeverMatches) {
  Load("create rule ri on s when inserted "
       "then insert into t values (null, 7); "
       "create rule rj on s when deleted then delete from t where k > 10;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, UnsatisfiableWhereRefutesEverything) {
  // k > 5 and k < 3 can never hold: the delete touches nothing.
  Load("create rule ri on s when inserted "
       "then insert into t values (99, 0); "
       "create rule rj on s when deleted "
       "then delete from t where k > 5 and k < 3;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, EqualityConstraintsRefuteExactly) {
  Load("create rule ri on s when inserted then insert into t values (2, 0); "
       "create rule rj on s when deleted then delete from t where k = 3;");
  EXPECT_TRUE(Refined(0, 1));
  Load("create rule ri on s when inserted then insert into t values (3, 0); "
       "create rule rj on s when deleted then delete from t where k = 3;");
  EXPECT_FALSE(Refined(0, 1));
}

TEST_F(RefineTest, InsertVsUpdateRefinement) {
  // Condition 4's update arm: the inserted row never matches the update's
  // WHERE, and the update's WHERE is the only read of t.
  Load("create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted "
       "then update t set v = 9 where k >= 100;");
  EXPECT_FALSE(SyntacticCommute(0, 1));
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, BothUpdatesUnsatisfiableWhereDisjoint) {
  Load("create rule a on s when inserted "
       "then update t set v = 1 where k > 5 and k < 3; "
       "create rule b on s when deleted "
       "then update t set v = 2 where k >= 0;");
  EXPECT_TRUE(Refined(0, 1));
}

TEST_F(RefineTest, RefineProducesCertificationsOnlyForProvablePairs) {
  Load(
      // provable pair (0, 1)
      "create rule ri on s when inserted then insert into t values (1, 0); "
      "create rule rj on s when deleted then delete from t where k > 10; "
      // unprovable pair with both (same column v updates, overlapping)
      "create rule rk on s when updated(v) then update t set v = 7;");
  PredicateRefiner refiner(schema_, rules_, prelim_);
  CommutativityCertifications certs = refiner.Refine();
  EXPECT_TRUE(certs.Contains("ri", "rj"));
  EXPECT_FALSE(certs.Contains("ri", "rk"));
  EXPECT_FALSE(certs.Contains("rj", "rk"));
}

TEST_F(RefineTest, AnalyzerIntegration) {
  auto script = Parser::ParseScript(
      "create rule ri on s when inserted then insert into t values (1, 0); "
      "create rule rj on s when deleted then delete from t where k > 10;");
  ASSERT_TRUE(script.ok());
  auto analyzer_or = Analyzer::Create(&schema_, std::move(script.value().rules));
  ASSERT_TRUE(analyzer_or.ok());
  Analyzer analyzer = std::move(analyzer_or).value();
  EXPECT_FALSE(analyzer.AnalyzeConfluence().confluent);
  int added = analyzer.ApplyAutoRefinement();
  EXPECT_EQ(added, 1);
  EXPECT_TRUE(analyzer.AnalyzeConfluence().confluent);
  // Idempotent.
  EXPECT_EQ(analyzer.ApplyAutoRefinement(), 0);
}

/// The decisive soundness check: every pair the refiner certifies really
/// does commute when executed in both orders from assorted states.
TEST_F(RefineTest, RefinedPairsCommuteEmpirically) {
  struct Case {
    const char* rules;
    const char* seed_rows;  // rows for t: "k,v;k,v;..."
  };
  const Case cases[] = {
      {"create rule ri on s when inserted then insert into t values (1, 0); "
       "create rule rj on s when deleted then delete from t where k > 10;",
       "0,0;11,1;20,2"},
      {"create rule lo on s when inserted "
       "then update t set v = 1 where k < 5; "
       "create rule hi on s when deleted "
       "then update t set v = 2 where k >= 5;",
       "1,9;4,9;5,9;9,9"},
  };
  for (const Case& c : cases) {
    Load(c.rules);
    PredicateRefiner refiner(schema_, rules_, prelim_);
    ASSERT_TRUE(refiner.PairCommutes(0, 1)) << c.rules;

    std::vector<RuleDef> cloned;
    for (const RuleDef& r : rules_) cloned.push_back(r.Clone());
    auto catalog = RuleCatalog::Build(&schema_, std::move(cloned));
    ASSERT_TRUE(catalog.ok());

    Database db(&schema_);
    for (const std::string& row : SplitAndTrim(c.seed_rows, ';')) {
      auto parts = SplitAndTrim(row, ',');
      ASSERT_TRUE(db.storage(0)
                      .Insert({Value::Int(std::stoll(parts[0])),
                               Value::Int(std::stoll(parts[1]))})
                      .ok());
    }
    // Trigger both rules: insert into s and delete from s... build an
    // initial transition with one insert and one delete on s.
    Transition initial;
    Tuple s_row = {Value::Int(1), Value::Int(1)};
    auto rid = db.storage(1).Insert(s_row);
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE(
        initial.ForTable(1).ApplyInsert(rid.value(), s_row).ok());
    ASSERT_TRUE(initial.ForTable(1).ApplyDelete(999, s_row).ok());

    RuleProcessingState forward =
        InitialProcessingState(catalog.value(), db, initial);
    RuleProcessingState backward = forward;
    ASSERT_TRUE(ConsiderRule(catalog.value(), &forward, 0).ok());
    ASSERT_TRUE(ConsiderRule(catalog.value(), &forward, 1).ok());
    ASSERT_TRUE(ConsiderRule(catalog.value(), &backward, 1).ok());
    ASSERT_TRUE(ConsiderRule(catalog.value(), &backward, 0).ok());
    EXPECT_EQ(forward.db.CanonicalString(), backward.db.CanonicalString())
        << c.rules;
  }
}

}  // namespace
}  // namespace starburst
