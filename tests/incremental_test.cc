#include <gtest/gtest.h>

#include <optional>

#include "analysis/incremental.h"
#include "analysis/priority.h"
#include "rulelang/parser.h"

namespace starburst {
namespace {

RuleDef ParseRule(const std::string& src) {
  auto r = Parser::ParseRule(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : RuleDef{};
}

std::string Indices(const std::vector<RuleIndex>& rules) {
  std::string out = "{";
  for (RuleIndex r : rules) out += std::to_string(r) + ",";
  return out + "}";
}

/// Every field of both reports, rule indices included.
std::string Digest(const TerminationReport& term,
                   const ConfluenceReport& conf) {
  std::string out = "guaranteed=" + std::to_string(term.guaranteed) +
                    " acyclic=" + std::to_string(term.acyclic) + "\n";
  for (const CycleReport& cycle : term.cycles) {
    out += "cycle " + Indices(cycle.rules) + Indices(cycle.certified) +
           std::to_string(cycle.discharged) + "\n";
  }
  out += "requirement=" + std::to_string(conf.requirement_holds) +
         " confluent=" + std::to_string(conf.confluent) +
         " pairs=" + std::to_string(conf.unordered_pairs_checked) +
         " max_set=" + std::to_string(conf.max_set_size) + "\n";
  for (const ConfluenceViolation& v : conf.violations) {
    out += "violation " + std::to_string(v.pair_i) + "," +
           std::to_string(v.pair_j) + " " + std::to_string(v.r1) + "," +
           std::to_string(v.r2) + " " + Indices(v.set_r1) +
           Indices(v.set_r2);
    for (const NoncommutativityCause& cause : v.causes) {
      out += " (" + std::to_string(cause.condition) + "," +
             std::to_string(cause.actor) + "," +
             std::to_string(cause.affected) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string Digest(const IncrementalAnalyzer::RunResult& run) {
  return Digest(run.termination, run.confluence);
}

/// A from-scratch (dense) analysis of `sources` in order; on a rejected
/// catalog, the error instead.
std::string ColdDigest(const Schema& schema,
                       const std::vector<std::string>& sources,
                       const TerminationCertifications& quiescent = {},
                       const CommutativityCertifications& commute = {},
                       int max_violations = -1) {
  std::vector<RuleDef> rules;
  for (const std::string& src : sources) rules.push_back(ParseRule(src));
  auto prelim = PrelimAnalysis::Compute(schema, rules);
  if (!prelim.ok()) return prelim.status().ToString();
  auto priority = PriorityOrder::Build(prelim.value(), rules);
  if (!priority.ok()) return priority.status().ToString();
  CommutativityAnalyzer commutativity(prelim.value(), schema, commute);
  TerminationReport term =
      TerminationAnalyzer::Analyze(prelim.value(), quiescent);
  ConfluenceAnalyzer confluence(commutativity, priority.value());
  return Digest(term, confluence.Analyze(term.guaranteed, max_violations));
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"t", "s", "u"}) {
      ASSERT_TRUE(schema_
                      .AddTable(name, {{"a", ColumnType::kInt},
                                       {"b", ColumnType::kInt}})
                      .ok());
    }
  }
  Schema schema_;
};

TEST_F(IncrementalTest, AddRuleValidates) {
  IncrementalAnalyzer analyzer(&schema_);
  EXPECT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  // Unknown table: rejected, rule set unchanged.
  auto bad = analyzer.AddRule(
      ParseRule("create rule r1 on nope when inserted then rollback"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(analyzer.num_rules(), 1);
  // Duplicate name: rejected.
  auto dup = analyzer.AddRule(
      ParseRule("create rule r0 on s when inserted then rollback"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(analyzer.num_rules(), 1);
}

TEST_F(IncrementalTest, FirstAnalysisComputesAllPairs) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = " +
                                       std::to_string(i)))
                    .ok());
  }
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().stats.pair_checks_computed, 6);  // C(4,2)
  EXPECT_EQ(run.value().stats.pair_checks_reused, 0);
  EXPECT_FALSE(run.value().confluence.requirement_holds);
}

TEST_F(IncrementalTest, SecondAnalysisReusesEverything) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());
  auto second = analyzer.Analyze();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(second.value().stats.pair_checks_reused, 6);
}

TEST_F(IncrementalTest, AddingOneRuleCostsLinearPairChecks) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());  // 10 pairs computed
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule extra on s when deleted "
                                     "then update u set a = 1"))
                  .ok());
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.pair_checks_computed, 5);  // new rule x 5 old
  EXPECT_EQ(run.value().stats.pair_checks_reused, 10);
}

TEST_F(IncrementalTest, RemoveRuleDropsItsCacheEntries) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  ASSERT_TRUE(analyzer.Analyze().ok());  // 3 pairs
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  EXPECT_EQ(analyzer.num_rules(), 2);
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  // Only (r0, r2) was cached and survives.
  EXPECT_EQ(run.value().stats.pair_checks_reused, 1);
  EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
  // Re-adding a rule named r1 with a DIFFERENT definition is safe: its
  // cache entries are gone.
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 2"))
                  .ok());
  auto run2 = analyzer.Analyze();
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value().stats.pair_checks_computed, 2);
  EXPECT_FALSE(run2.value().confluence.requirement_holds);  // b=1 vs b=2
}

TEST_F(IncrementalTest, RemoveUnknownRuleFails) {
  IncrementalAnalyzer analyzer(&schema_);
  EXPECT_EQ(analyzer.RemoveRule("ghost").code(), StatusCode::kNotFound);
}

// Regression (pair-cache audit): a duplicate rule name must be rejected
// even when it differs only in case — pair-cache keys are lowercased, so a
// case-variant duplicate would alias the existing rule's cached verdicts
// and serve stale pairs for the new definition.
TEST_F(IncrementalTest, AddRuleRejectsCaseVariantDuplicate) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer.Analyze().ok());  // caches (r0, r1)
  auto dup = analyzer.AddRule(
      ParseRule("create rule R0 on s when deleted then rollback"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(analyzer.num_rules(), 2);
  // The rejected add must not have perturbed the cache.
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.pair_checks_reused, 1);
  EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
}

// Regression (pair-cache audit): removal is case-insensitive and must drop
// the removed rule's cache entries under the normalized key, so re-adding
// the name (any case) with a different definition recomputes its pairs
// instead of reusing stale verdicts.
TEST_F(IncrementalTest, RemoveByDifferentCaseDropsCacheEntries) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer.Analyze().ok());   // (r0, r1) commutes, cached
  ASSERT_TRUE(analyzer.RemoveRule("R1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule R1 on t when inserted "
                                     "then update u set b = 2"))
                  .ok());
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  // Stale reuse would report reused = 1 and miss the conflict.
  EXPECT_EQ(run.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(run.value().stats.pair_checks_reused, 0);
  EXPECT_FALSE(run.value().confluence.requirement_holds);  // b=1 vs b=2
}

// Pins the self-pair convention: the diagonal is implicitly true and is
// neither computed nor cached — with a single rule both counters stay 0,
// and analysis still succeeds with a (trivially) confluent verdict.
TEST_F(IncrementalTest, SelfPairIsNeverCountedOrCached) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule solo on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  for (int round = 0; round < 2; ++round) {
    auto run = analyzer.Analyze();
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().stats.pair_checks_computed, 0) << "round " << round;
    EXPECT_EQ(run.value().stats.pair_checks_reused, 0) << "round " << round;
    EXPECT_TRUE(run.value().confluence.requirement_holds);
  }
}

// Regression (stats audit): the counters cover the full pair matrix build,
// which happens before confluence reporting — truncating the violation list
// via max_violations must not change computed/reused, and every analysis
// maintains computed + reused == C(n, 2).
TEST_F(IncrementalTest, StatsUnaffectedByMaxViolationsTruncation) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = " +
                                       std::to_string(i)))
                    .ok());
  }
  auto truncated = analyzer.Analyze({}, /*max_violations=*/1);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated.value().confluence.violations.size(), 1u);
  EXPECT_EQ(truncated.value().stats.pair_checks_computed, 10);  // C(5,2)
  EXPECT_EQ(truncated.value().stats.pair_checks_reused, 0);

  auto again = analyzer.Analyze({}, /*max_violations=*/1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(again.value().stats.pair_checks_reused, 10);
}

// Regression (stats audit): exact counter accounting across a
// RemoveRule -> Analyze -> AddRule -> Analyze sequence; each run maintains
// computed + reused == C(n, 2) with reuse exactly on the surviving pairs.
TEST_F(IncrementalTest, StatsExactAcrossRemoveThenAddSequence) {
  IncrementalAnalyzer analyzer(&schema_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update u "
                                       "set b = 1"))
                    .ok());
  }
  auto first = analyzer.Analyze();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.pair_checks_computed, 6);  // C(4,2)
  EXPECT_EQ(first.value().stats.pair_checks_reused, 0);

  ASSERT_TRUE(analyzer.RemoveRule("r2").ok());
  auto after_remove = analyzer.Analyze();
  ASSERT_TRUE(after_remove.ok());
  // 3 rules left; all C(3,2) pairs among {r0, r1, r3} were cached.
  EXPECT_EQ(after_remove.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(after_remove.value().stats.pair_checks_reused, 3);

  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule fresh on s when inserted "
                                     "then update u set a = 1"))
                  .ok());
  auto after_add = analyzer.Analyze();
  ASSERT_TRUE(after_add.ok());
  // C(4,2) = 6 pairs: 3 old ones reused, 3 new ones against `fresh`.
  EXPECT_EQ(after_add.value().stats.pair_checks_computed, 3);
  EXPECT_EQ(after_add.value().stats.pair_checks_reused, 3);
}

// Satellite (O(k) registration): building a k-rule catalog one AddRule at
// a time performs exactly k single-rule validations — no revalidation of
// the existing catalog per add. A rejected rule costs exactly one more.
TEST_F(IncrementalTest, AddRuleDoesLinearValidationWork) {
  IncrementalAnalyzer analyzer(&schema_);
  constexpr int kRules = 20;
  for (int i = 0; i < kRules; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t when inserted then update s "
                                       "set a = 1"))
                    .ok());
    EXPECT_EQ(analyzer.rule_validations(), i + 1);
  }
  // Semantic rejection (unknown table) still validates once; a duplicate
  // name is rejected before validation and costs nothing.
  EXPECT_FALSE(analyzer
                   .AddRule(ParseRule("create rule bad on nope when "
                                      "inserted then rollback"))
                   .ok());
  EXPECT_EQ(analyzer.rule_validations(), kRules + 1);
  EXPECT_FALSE(analyzer
                   .AddRule(ParseRule("create rule r0 on t when inserted "
                                      "then rollback"))
                   .ok());
  EXPECT_EQ(analyzer.rule_validations(), kRules + 1);
}

// Regression (pair-cache redefinition): Remove -> Add of the same name
// with different reads/writes must recompute the pair verdict, in both
// directions — a conflicting pair redefined to commute, then redefined to
// conflict again. Stale reuse would freeze the first verdict.
TEST_F(IncrementalTest, RedefinitionFlipsVerdictBothWays) {
  IncrementalAnalyzer analyzer(&schema_);
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 2"))
                  .ok());
  auto v1 = analyzer.Analyze();
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(analyzer.PairCommutes(0, 1));  // a = 1 vs a = 2
  EXPECT_FALSE(v1.value().confluence.requirement_holds);

  // Redefine r1 to write a different table: the pair now commutes.
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update u set b = 1"))
                  .ok());
  auto v2 = analyzer.Analyze();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(v2.value().stats.pair_checks_reused, 0);
  EXPECT_TRUE(analyzer.PairCommutes(0, 1));
  EXPECT_TRUE(v2.value().confluence.requirement_holds);

  // Redefine back to a conflicting write: the verdict flips again.
  ASSERT_TRUE(analyzer.RemoveRule("r1").ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set a = 3"))
                  .ok());
  auto v3 = analyzer.Analyze();
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value().stats.pair_checks_computed, 1);
  EXPECT_FALSE(analyzer.PairCommutes(0, 1));
  EXPECT_FALSE(v3.value().confluence.requirement_holds);
}

// Tentpole invariant: pairs with disjoint table footprints commute by
// construction and are never materialized — they appear in neither the
// computed nor the reused counter, while the confluence report still
// covers every unordered pair.
TEST_F(IncrementalTest, DisjointFootprintPairsCostNothing) {
  IncrementalAnalyzer analyzer(&schema_);
  // r0, r1 share footprint {t, s}; r2's footprint is {u}, disjoint.
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r0 on t when inserted "
                                     "then update s set a = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r1 on t when inserted "
                                     "then update s set b = 1"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AddRule(ParseRule("create rule r2 on u when inserted "
                                     "then update u set a = 1"))
                  .ok());
  auto first = analyzer.Analyze();
  ASSERT_TRUE(first.ok());
  // Only the (r0, r1) overlap is checked; (r0, r2) and (r1, r2) cost 0.
  EXPECT_EQ(first.value().stats.pair_checks_computed, 1);
  EXPECT_EQ(first.value().stats.pair_checks_reused, 0);
  // The report still accounts for all C(3, 2) unordered pairs.
  EXPECT_EQ(first.value().confluence.unordered_pairs_checked, 3);
  EXPECT_TRUE(analyzer.PairCommutes(0, 2));
  EXPECT_TRUE(analyzer.PairCommutes(1, 2));

  auto second = analyzer.Analyze();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(second.value().stats.pair_checks_reused, 1);
}

TEST_F(IncrementalTest, VerdictsMatchFromScratchAnalysis) {
  IncrementalAnalyzer incremental(&schema_);
  std::vector<std::string> sources = {
      "create rule a on t when inserted then update s set a = 1",
      "create rule b on s when updated(a) then insert into u values (1, 2)",
      "create rule c on u when inserted then update s set b = 1",
      "create rule d on t when deleted then update s set a = 2",
  };
  std::vector<RuleDef> rules;
  for (const auto& src : sources) {
    ASSERT_TRUE(incremental.AddRule(ParseRule(src)).ok());
    rules.push_back(ParseRule(src));
  }
  auto inc_run = incremental.Analyze();
  ASSERT_TRUE(inc_run.ok());

  auto prelim = PrelimAnalysis::Compute(schema_, rules);
  ASSERT_TRUE(prelim.ok());
  auto priority = PriorityOrder::Build(prelim.value(), rules);
  ASSERT_TRUE(priority.ok());
  CommutativityAnalyzer commutativity(prelim.value(), schema_);
  ConfluenceAnalyzer scratch(commutativity, priority.value());
  TerminationReport term = TerminationAnalyzer::Analyze(prelim.value());
  ConfluenceReport scratch_report = scratch.Analyze(term.guaranteed);

  EXPECT_EQ(inc_run.value().termination.guaranteed, term.guaranteed);
  EXPECT_EQ(inc_run.value().confluence.requirement_holds,
            scratch_report.requirement_holds);
  EXPECT_EQ(inc_run.value().confluence.violations.size(),
            scratch_report.violations.size());
}

// A catalog with a two-rule cycle (q, r), a self-loop (loop), a priority
// clause (lo follows hi) and noncommuting pairs. The first and last rules
// and r are named in no clause, so removing them leaves it analyzable.
class SlotTest : public IncrementalTest {
 protected:
  void SetUp() override {
    IncrementalTest::SetUp();
    sources_ = InitialSources();
    quiescent_.quiescent_rules = {"q", "loop"};
    commute_.Certify("q", "z");
  }

  static std::vector<std::string> InitialSources() {
    return {
        "create rule p on t when inserted then update s set a = 1",
        "create rule q on s when updated(a) then insert into u values (1, 2)",
        "create rule r on u when inserted then update s set a = 2",
        "create rule hi on t when inserted then update s set b = 1",
        "create rule lo on t when inserted then update s set b = 2 "
        "follows hi",
        "create rule loop on u when deleted then delete from u",
        "create rule z on s when inserted then update u set a = 3",
    };
  }

  void Register(IncrementalAnalyzer* analyzer) {
    for (const std::string& src : sources_) {
      ASSERT_TRUE(analyzer->AddRule(ParseRule(src)).ok()) << src;
    }
  }

  /// Removes `name` from the analyzer and from `sources_`.
  void Remove(IncrementalAnalyzer* analyzer, const std::string& name) {
    ASSERT_TRUE(analyzer->RemoveRule(name).ok()) << name;
    std::erase_if(sources_, [&](const std::string& src) {
      return src.starts_with("create rule " + name + " ");
    });
  }

  void ExpectEqualsCold(IncrementalAnalyzer* analyzer) {
    for (int cap : {-1, 1}) {
      auto run = analyzer->Analyze(quiescent_, cap);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(Digest(run.value()),
                ColdDigest(schema_, sources_, quiescent_, commute_, cap))
          << "max_violations=" << cap;
    }
  }

  std::vector<std::string> sources_;
  TerminationCertifications quiescent_;
  CommutativityCertifications commute_;
};

// Removing the first, a middle or the last rule retires its slot in place;
// the reports still use dense indices and equal a cold analysis.
TEST_F(SlotTest, RemoveFirstMiddleOrLastEqualsColdAnalysis) {
  for (const char* victim : {"p", "r", "z"}) {
    sources_ = InitialSources();
    IncrementalAnalyzer analyzer(&schema_, commute_);
    Register(&analyzer);
    ExpectEqualsCold(&analyzer);
    Remove(&analyzer, victim);
    EXPECT_EQ(analyzer.num_rules(), 6) << victim;
    EXPECT_EQ(analyzer.num_slots(), 7) << victim;
    ExpectEqualsCold(&analyzer);
  }
}

// Removing a rule that a clause names leaves the same dangling-reference
// error as a cold analysis; re-adding it makes the catalog analyzable again.
TEST_F(SlotTest, RemovingANamedRuleReportsTheDanglingClause) {
  IncrementalAnalyzer analyzer(&schema_, commute_);
  Register(&analyzer);
  ASSERT_TRUE(analyzer.Analyze(quiescent_).ok());
  std::string hi = sources_[3];
  Remove(&analyzer, "hi");
  auto run = analyzer.Analyze(quiescent_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().message(), "rule 'lo' follows unknown rule 'hi'");
  EXPECT_EQ(run.status().ToString(), ColdDigest(schema_, sources_));
  // The error persists until the name is back.
  EXPECT_FALSE(analyzer.Analyze(quiescent_).ok());
  ASSERT_TRUE(analyzer.AddRule(ParseRule(hi)).ok());
  sources_.push_back(hi);
  ExpectEqualsCold(&analyzer);
}

// A removed name can be added again; it gets a fresh slot, and its pairs
// are computed anew.
TEST_F(SlotTest, ReaddingARemovedName) {
  IncrementalAnalyzer analyzer(&schema_, commute_);
  Register(&analyzer);
  auto first = analyzer.Analyze(quiescent_);
  ASSERT_TRUE(first.ok());
  std::string q = sources_[1];
  Remove(&analyzer, "q");
  ASSERT_TRUE(analyzer.AddRule(ParseRule(q)).ok());
  sources_.push_back(q);
  EXPECT_EQ(analyzer.num_rules(), 7);
  EXPECT_EQ(analyzer.num_slots(), 8);
  auto run = analyzer.Analyze(quiescent_);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.value().stats.pair_checks_computed, 0);
  EXPECT_EQ(run.value().stats.pair_checks_computed +
                run.value().stats.pair_checks_reused,
            first.value().stats.pair_checks_computed);
  ExpectEqualsCold(&analyzer);
}

// rule_name and PairCommutes take dense indices (ranks among the live
// rules), not slots.
TEST_F(SlotTest, DenseIndicesAfterRemovals) {
  IncrementalAnalyzer analyzer(&schema_, commute_);
  Register(&analyzer);
  ASSERT_TRUE(analyzer.Analyze(quiescent_).ok());
  Remove(&analyzer, "p");
  Remove(&analyzer, "r");
  ASSERT_EQ(analyzer.compactions(), 0);
  ASSERT_TRUE(analyzer.Analyze(quiescent_).ok());

  std::vector<RuleDef> rules;
  for (const std::string& src : sources_) rules.push_back(ParseRule(src));
  auto prelim = PrelimAnalysis::Compute(schema_, rules);
  ASSERT_TRUE(prelim.ok());
  CommutativityAnalyzer cold(prelim.value(), schema_, commute_);
  ASSERT_EQ(analyzer.num_rules(), prelim.value().num_rules());
  for (RuleIndex i = 0; i < analyzer.num_rules(); ++i) {
    EXPECT_EQ(analyzer.rule_name(i), rules[i].name);
    for (RuleIndex j = 0; j < analyzer.num_rules(); ++j) {
      EXPECT_EQ(analyzer.PairCommutes(i, j), cold.Commute(i, j))
          << rules[i].name << ", " << rules[j].name;
    }
  }
  // The certified pair (q, z) commutes although Lemma 6.1 fails for it.
  EXPECT_EQ(analyzer.rule_name(0), "q");
  EXPECT_EQ(analyzer.rule_name(4), "z");
  EXPECT_TRUE(analyzer.PairCommutes(0, 4));
}

// Add/remove churn: once retired slots outnumber the live rules, one
// compaction renumbers the slots densely. The slots stay within twice the
// live rules, compaction keeps every pair verdict, and the reports still
// equal a cold analysis.
TEST_F(SlotTest, ChurnCompactsWithoutRecomputingPairs) {
  IncrementalAnalyzer analyzer(&schema_, commute_);
  Register(&analyzer);
  auto base = analyzer.Analyze(quiescent_);
  ASSERT_TRUE(base.ok());
  const long base_pairs = base.value().stats.pair_checks_computed;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 10; ++k) {
      std::string src = "create rule x" + std::to_string(k) +
                        " on s when inserted then update s set a = " +
                        std::to_string(k);
      ASSERT_TRUE(analyzer.AddRule(ParseRule(src)).ok());
      sources_.push_back(src);
    }
    ExpectEqualsCold(&analyzer);
    for (int k = 0; k < 10; ++k) {
      long before = analyzer.compactions();
      Remove(&analyzer, "x" + std::to_string(k));
      EXPECT_LE(analyzer.num_slots(), 2 * analyzer.num_rules() + 1);
      if (analyzer.compactions() > before) {
        EXPECT_EQ(analyzer.num_slots(), analyzer.num_rules());
        auto run = analyzer.Analyze(quiescent_);
        ASSERT_TRUE(run.ok());
        EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
        ExpectEqualsCold(&analyzer);
      }
    }
    auto run = analyzer.Analyze(quiescent_);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
    EXPECT_EQ(run.value().stats.pair_checks_reused, base_pairs);
    ExpectEqualsCold(&analyzer);
  }
  EXPECT_GE(analyzer.compactions(), 2);
}

// The termination component cache keeps only the verdicts the latest
// Analyze() looked up: redefining a rule of a certified cycle over and
// over recomputes that one component each time, reuses the other, and
// leaves one entry per certified cyclic component.
TEST_F(SlotTest, ComponentCacheStaysBoundedAcrossRedefinitions) {
  IncrementalAnalyzer analyzer(&schema_, commute_);
  Register(&analyzer);
  auto first = analyzer.Analyze(quiescent_);
  ASSERT_TRUE(first.ok());
  const size_t cyclic = first.value().termination.cycles.size();
  ASSERT_EQ(cyclic, 2u);  // {q, r} and {loop}
  EXPECT_TRUE(first.value().termination.guaranteed);
  EXPECT_EQ(first.value().stats.termination_components_recomputed, 2);
  const std::string r = sources_[2];
  for (int edit = 0; edit < 1000; ++edit) {
    ASSERT_TRUE(analyzer.RemoveRule("r").ok());
    ASSERT_TRUE(analyzer.AddRule(ParseRule(r)).ok());
    auto run = analyzer.Analyze(quiescent_);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run.value().stats.termination_components_recomputed, 1);
    ASSERT_EQ(run.value().stats.termination_components_reused, 1);
    ASSERT_TRUE(run.value().termination.guaranteed);
    ASSERT_LE(analyzer.cached_components(), cyclic);
  }
  EXPECT_GT(analyzer.compactions(), 0);
}

// Regression: the closed-form unordered pair count is 64-bit. 65,537 rules
// on 65,537 distinct tables (no overlapping pair) give 65,537 · 65,536 / 2
// = 2,147,516,416 unordered pairs, above INT_MAX.
TEST(IncrementalPairCountTest, CountsAboveIntMaxDoNotOverflow) {
  constexpr int kRules = 65537;
  Schema schema;
  IncrementalAnalyzer analyzer(&schema);
  for (int i = 0; i < kRules; ++i) {
    ASSERT_TRUE(
        schema.AddTable("t" + std::to_string(i), {{"a", ColumnType::kInt}})
            .ok());
  }
  for (int i = 0; i < kRules; ++i) {
    ASSERT_TRUE(analyzer
                    .AddRule(ParseRule("create rule r" + std::to_string(i) +
                                       " on t" + std::to_string(i) +
                                       " when inserted then rollback"))
                    .ok());
  }
  auto run = analyzer.Analyze();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().stats.pair_checks_computed, 0);
  EXPECT_TRUE(run.value().confluence.requirement_holds);
  EXPECT_EQ(run.value().confluence.unordered_pairs_checked,
            int64_t{2147516416});
}

}  // namespace
}  // namespace starburst
