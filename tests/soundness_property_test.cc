#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/partial_confluence.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

/// End-to-end soundness: the static analysis verdicts of Sections 5-8 are
/// validated against the actual execution semantics via the engine and the
/// execution-graph explorer, over seeded random rule sets.

struct Loaded {
  GeneratedRuleSet gen;
  std::unique_ptr<RuleCatalog> catalog;
};

Loaded LoadSeed(uint64_t seed, int num_rules, double priority_density,
                double observable_fraction = 0.0) {
  RandomRuleSetParams params;
  params.seed = seed;
  params.num_rules = num_rules;
  params.num_tables = 4;
  params.columns_per_table = 2;
  params.max_actions_per_rule = 1;
  params.tables_per_rule = 2;
  params.update_bound = 3;
  params.priority_density = priority_density;
  params.observable_fraction = observable_fraction;
  Loaded loaded;
  loaded.gen = RandomRuleSetGenerator::Generate(params);
  std::vector<RuleDef> rules;
  for (const RuleDef& r : loaded.gen.rules) rules.push_back(r.Clone());
  auto catalog = RuleCatalog::Build(loaded.gen.schema.get(), std::move(rules));
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  loaded.catalog =
      std::make_unique<RuleCatalog>(std::move(catalog).value());
  return loaded;
}

/// Builds an initial transition by running a couple of user statements.
Result<Transition> MakeInitialTransition(Database* db, uint64_t seed) {
  Executor executor(db);
  Transition initial;
  const Schema& schema = db->schema();
  // Touch two tables: one insert, one bounded update, one delete.
  TableId t0 = static_cast<TableId>(seed % schema.num_tables());
  TableId t1 = static_cast<TableId>((seed / 3) % schema.num_tables());
  {
    Tuple tuple(schema.table(t0).num_columns(), Value::Int(1));
    auto rid = db->storage(t0).Insert(tuple);
    if (!rid.ok()) return rid.status();
    STARBURST_RETURN_IF_ERROR(
        initial.ForTable(t0).ApplyInsert(rid.value(), tuple));
  }
  {
    // Update the first column of every row of t1 (pre-populated).
    TableStorage& storage = db->storage(t1);
    std::vector<std::pair<Rid, Tuple>> updates;
    for (const auto& [rid, tuple] : storage.rows()) {
      Tuple updated = tuple;
      updated[0] = Value::Int(static_cast<int64_t>((seed + 1) % 4));
      if (!(updated[0] == tuple[0])) updates.emplace_back(rid, updated);
    }
    for (auto& [rid, updated] : updates) {
      Tuple old_tuple = *storage.Get(rid);
      STARBURST_RETURN_IF_ERROR(storage.Update(rid, updated));
      STARBURST_RETURN_IF_ERROR(initial.ForTable(t1).ApplyUpdate(
          rid, std::move(old_tuple), std::move(updated)));
    }
  }
  return initial;
}

/// Property (Figure 1): pairs classified commutative by Lemma 6.1 really
/// do commute — considering ri then rj from any state equals rj then ri.
TEST(SoundnessTest, CommutativePairsProduceIdenticalStates) {
  int pairs_checked = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/2, /*priority_density=*/0.0);
    const RuleCatalog& catalog = *loaded.catalog;
    CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
    if (!commutativity.Commute(0, 1)) continue;
    ++pairs_checked;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 3, seed).ok());
    auto initial = MakeInitialTransition(&db, seed);
    ASSERT_TRUE(initial.ok()) << initial.status().ToString();

    RuleProcessingState forward =
        InitialProcessingState(catalog, db, initial.value());
    RuleProcessingState backward = forward;

    auto s1 = ConsiderRule(catalog, &forward, 0);
    ASSERT_TRUE(s1.ok()) << s1.status().ToString();
    auto s2 = ConsiderRule(catalog, &forward, 1);
    ASSERT_TRUE(s2.ok()) << s2.status().ToString();
    auto s3 = ConsiderRule(catalog, &backward, 1);
    ASSERT_TRUE(s3.ok()) << s3.status().ToString();
    auto s4 = ConsiderRule(catalog, &backward, 0);
    ASSERT_TRUE(s4.ok()) << s4.status().ToString();

    EXPECT_EQ(forward.db.CanonicalString(), backward.db.CanonicalString())
        << "commutative pair diverged, seed " << seed;
    // Triggered sets must also agree (state = (D, TR) in the paper).
    std::vector<RuleIndex> tf = TriggeredRules(catalog, forward);
    std::vector<RuleIndex> tb = TriggeredRules(catalog, backward);
    EXPECT_EQ(tf, tb) << "triggered sets diverged, seed " << seed;
  }
  // The sweep must actually exercise the property.
  EXPECT_GE(pairs_checked, 10) << "too few commutative pairs generated";
}

/// Property (Theorem 5.1): acyclic triggering graph => every execution
/// terminates (no execution-graph cycles, no unbounded growth).
TEST(SoundnessTest, TerminationVerdictIsSound) {
  int guaranteed_checked = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/4, /*priority_density=*/0.3);
    const RuleCatalog& catalog = *loaded.catalog;
    TerminationReport verdict = TerminationAnalyzer::Analyze(catalog.prelim());
    if (!verdict.guaranteed) continue;
    ++guaranteed_checked;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    auto initial = MakeInitialTransition(&db, seed);
    ASSERT_TRUE(initial.ok());
    ExplorerOptions options;
    options.max_depth = 48;
    options.max_total_steps = 40000;
    auto result =
        Explorer::Explore(catalog, db, initial.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result.value().may_not_terminate)
        << "termination-guaranteed set did not terminate, seed " << seed;
  }
  EXPECT_GE(guaranteed_checked, 10);
}

/// Property (Theorem 6.7): Confluence Requirement + termination => exactly
/// one final state in exhaustive exploration.
TEST(SoundnessTest, ConfluenceVerdictIsSound) {
  int confluent_checked = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/3, /*priority_density=*/0.5);
    const RuleCatalog& catalog = *loaded.catalog;
    TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
    if (!term.guaranteed) continue;
    CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
    ConfluenceAnalyzer analyzer(commutativity, catalog.priority());
    ConfluenceReport verdict = analyzer.Analyze(term.guaranteed);
    if (!verdict.confluent) continue;
    ++confluent_checked;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    auto initial = MakeInitialTransition(&db, seed);
    ASSERT_TRUE(initial.ok());
    ExplorerOptions options;
    options.max_depth = 48;
    options.max_total_steps = 40000;
    auto result = Explorer::Explore(catalog, db, initial.value(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result.value().complete) << "seed " << seed;
    EXPECT_EQ(result.value().final_states.size(), 1u)
        << "confluent-verdict set diverged, seed " << seed;
  }
  EXPECT_GE(confluent_checked, 8);
}

/// Property (Theorem 7.2): partial confluence w.r.t. T' => all final
/// states agree on the tables in T'.
TEST(SoundnessTest, PartialConfluenceVerdictIsSound) {
  int checked = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/3, /*priority_density=*/0.2);
    const RuleCatalog& catalog = *loaded.catalog;
    CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
    PartialConfluenceAnalyzer partial(commutativity, catalog.priority());
    std::vector<TableId> important = {0};
    auto verdict = partial.Analyze(important);
    if (!verdict.partially_confluent) continue;
    // Whole-set termination needed for exploration to finish.
    if (!TerminationAnalyzer::Analyze(catalog.prelim()).guaranteed) continue;
    ++checked;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    auto initial = MakeInitialTransition(&db, seed);
    ASSERT_TRUE(initial.ok());
    ExplorerOptions options;
    options.max_depth = 48;
    options.max_total_steps = 40000;
    auto result = Explorer::Explore(catalog, db, initial.value(), options);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value().complete) << "seed " << seed;
    std::set<std::string> projections;
    for (const auto& [key, final_db] : result.value().final_databases) {
      projections.insert(final_db.CanonicalStringFor(important));
    }
    EXPECT_EQ(projections.size(), 1u)
        << "partially-confluent set diverged on T', seed " << seed;
  }
  EXPECT_GE(checked, 8);
}

/// Property (Theorem 8.1): observable-determinism verdict => a unique
/// stream of observable actions across all execution orders.
TEST(SoundnessTest, ObservableDeterminismVerdictIsSound) {
  int checked = 0;
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/3, /*priority_density=*/0.5,
                             /*observable_fraction=*/0.5);
    const RuleCatalog& catalog = *loaded.catalog;
    TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
    if (!term.guaranteed) continue;
    auto verdict = ObservableDeterminismAnalyzer::Analyze(
        catalog.schema(), catalog.prelim(), catalog.priority(), {},
        term.guaranteed);
    if (!verdict.deterministic) continue;
    // Only interesting when something is observable.
    if (verdict.observable_rules.empty()) continue;
    ++checked;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    auto initial = MakeInitialTransition(&db, seed);
    ASSERT_TRUE(initial.ok());
    ExplorerOptions options;
    options.max_depth = 48;
    options.max_total_steps = 40000;
    auto result = Explorer::Explore(catalog, db, initial.value(), options);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value().complete) << "seed " << seed;
    EXPECT_LE(result.value().observable_streams.size(), 1u)
        << "observably-deterministic set produced multiple streams, seed "
        << seed;
  }
  EXPECT_GE(checked, 3);
}

/// Sanity in the other direction (not a theorem, but evidence the tests
/// bite): some generated sets that FAIL the Confluence Requirement really
/// do diverge, so the soundness sweeps aren't vacuous.
TEST(SoundnessTest, SomeRejectedSetsActuallyDiverge) {
  int diverged = 0;
  for (uint64_t seed = 0; seed < 300 && diverged == 0; ++seed) {
    Loaded loaded = LoadSeed(seed, /*num_rules=*/3, /*priority_density=*/0.0);
    const RuleCatalog& catalog = *loaded.catalog;
    TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
    if (!term.guaranteed) continue;
    CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
    ConfluenceAnalyzer analyzer(commutativity, catalog.priority());
    if (analyzer.Analyze(true).requirement_holds) continue;

    Database db(loaded.gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 2, seed).ok());
    // Trigger as many rules as possible: insert into and update every
    // table as the initial user transaction.
    Transition initial;
    bool setup_ok = true;
    for (TableId t = 0;
         t < loaded.gen.schema->num_tables() && setup_ok; ++t) {
      Tuple tuple(loaded.gen.schema->table(t).num_columns(), Value::Int(2));
      auto rid = db.storage(t).Insert(tuple);
      setup_ok = rid.ok() &&
                 initial.ForTable(t).ApplyInsert(rid.value(), tuple).ok();
      TableStorage& storage = db.storage(t);
      std::vector<std::pair<Rid, Tuple>> updates;
      for (const auto& [r, row] : storage.rows()) {
        if (r == rid.value()) continue;
        Tuple updated = row;
        updated[0] = Value::Int(static_cast<int64_t>((seed + 1) % 3));
        if (!(updated[0] == row[0])) updates.emplace_back(r, updated);
      }
      for (auto& [r, updated] : updates) {
        Tuple old_tuple = *storage.Get(r);
        setup_ok = setup_ok && storage.Update(r, updated).ok() &&
                   initial.ForTable(t)
                       .ApplyUpdate(r, std::move(old_tuple),
                                    std::move(updated))
                       .ok();
      }
    }
    ASSERT_TRUE(setup_ok);
    auto result = Explorer::Explore(catalog, db, initial);
    ASSERT_TRUE(result.ok());
    if (result.value().final_states.size() > 1) ++diverged;
  }
  EXPECT_GE(diverged, 1) << "no rejected set diverged in the sweep; the "
                            "soundness tests may be vacuous";
}

}  // namespace
}  // namespace starburst
