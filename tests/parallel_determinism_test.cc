#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/json_report.h"
#include "common/thread_pool.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "testing/reference_explorer.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

// Restores the shared pool to the environment-derived thread count when a
// test exits, so thread-count fiddling cannot leak across tests.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override {
    ThreadPool::SetDefaultThreadCount(ThreadPool::DefaultThreadCount());
  }

  static RandomRuleSetParams ParamsForSeed(uint64_t seed) {
    RandomRuleSetParams params;
    params.seed = seed;
    // Alternate between sets small enough to stay on the sequential pair
    // sweep (< 16 rules) and sets large enough to take the parallel one.
    params.num_rules = (seed % 2 == 0) ? 18 : 8;
    params.num_tables = 4 + static_cast<int>(seed % 3);
    params.priority_density = (seed % 3 == 0) ? 0.3 : 0.0;
    params.observable_fraction = (seed % 2 == 0) ? 0.25 : 0.0;
    params.p_condition = 0.5;
    return params;
  }

  // Full analysis of the seed's generated rule set, rendered as JSON. The
  // generator is deterministic, so calling this twice with the same seed
  // analyzes identical rule sets.
  static std::string AnalyzeSeed(uint64_t seed) {
    GeneratedRuleSet gen =
        RandomRuleSetGenerator::Generate(ParamsForSeed(seed));
    auto analyzer = Analyzer::Create(gen.schema.get(), std::move(gen.rules));
    EXPECT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    if (!analyzer.ok()) return "";
    FullReport report = analyzer.value().AnalyzeAll();
    return FullReportToJson(report, analyzer.value().catalog());
  }
};

TEST_F(ParallelDeterminismTest, FullReportsIdenticalAcrossThreadCounts) {
  constexpr uint64_t kNumSeeds = 20;
  std::vector<std::string> baseline(kNumSeeds);
  ThreadPool::SetDefaultThreadCount(1);
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    baseline[seed] = AnalyzeSeed(seed + 1);
    ASSERT_FALSE(baseline[seed].empty());
  }
  for (int threads : {2, 8}) {
    ThreadPool::SetDefaultThreadCount(threads);
    for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
      EXPECT_EQ(AnalyzeSeed(seed + 1), baseline[seed])
          << "seed=" << (seed + 1) << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, FacadeMatchesSequentialAnalysis) {
  constexpr uint64_t kNumSets = 6;
  // The specs' schemas must outlive the call; keep the generated sets.
  std::vector<GeneratedRuleSet> generated;
  std::vector<RuleSetSpec> specs;
  for (uint64_t seed = 1; seed <= kNumSets; ++seed) {
    generated.push_back(RandomRuleSetGenerator::Generate(ParamsForSeed(seed)));
    specs.push_back(
        RuleSetSpec{generated.back().schema.get(), std::move(generated.back().rules)});
  }
  // One spec that fails to compile must not poison the batch: its slot
  // carries the error, every other slot is analyzed normally.
  auto bad = Parser::ParseScript(
      "create rule broken on nonexistent when inserted "
      "then delete from nonexistent;");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  specs.push_back(
      RuleSetSpec{generated.front().schema.get(),
                  std::move(bad.value().rules)});

  ThreadPool::SetDefaultThreadCount(4);
  std::vector<Result<FullReport>> results =
      ParallelAnalyzeRuleSets(std::move(specs));
  ASSERT_EQ(results.size(), kNumSets + 1);
  EXPECT_FALSE(results.back().ok());

  ThreadPool::SetDefaultThreadCount(1);
  for (uint64_t seed = 1; seed <= kNumSets; ++seed) {
    ASSERT_TRUE(results[seed - 1].ok())
        << results[seed - 1].status().ToString();
    // Re-generate (deterministic) to re-derive the catalog for rendering.
    GeneratedRuleSet gen =
        RandomRuleSetGenerator::Generate(ParamsForSeed(seed));
    auto analyzer = Analyzer::Create(gen.schema.get(), std::move(gen.rules));
    ASSERT_TRUE(analyzer.ok());
    EXPECT_EQ(FullReportToJson(results[seed - 1].value(),
                               analyzer.value().catalog()),
              AnalyzeSeed(seed))
        << "seed=" << seed;
  }
}

struct ExplorerOutcome {
  bool ok = false;
  bool complete = false;
  bool may_not_terminate = false;
  std::set<std::string> final_states;
  std::set<std::string> observable_streams;

  bool operator==(const ExplorerOutcome& other) const {
    return ok == other.ok && complete == other.complete &&
           may_not_terminate == other.may_not_terminate &&
           final_states == other.final_states &&
           observable_streams == other.observable_streams;
  }
};

std::ostream& operator<<(std::ostream& os, const ExplorerOutcome& o) {
  os << "{ok=" << o.ok << " complete=" << o.complete
     << " may_not_terminate=" << o.may_not_terminate << " finals={";
  for (const std::string& f : o.final_states) os << f << ";";
  os << "} streams={";
  for (const std::string& s : o.observable_streams) os << s << ";";
  return os << "}}";
}

TEST_F(ParallelDeterminismTest, ExplorerFinalStatesIdenticalAcrossThreadCounts) {
  constexpr uint64_t kNumSeeds = 20;
  ExplorerOptions base;
  base.max_depth = 24;
  base.max_total_steps = 20000;

  auto explore_seed = [&](uint64_t seed, int num_threads) {
    RandomRuleSetParams params = ParamsForSeed(seed);
    params.num_rules = 4 + static_cast<int>(seed % 3);
    params.observable_fraction = 0.5;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto catalog = RuleCatalog::Build(gen.schema.get(), std::move(gen.rules));
    ExplorerOutcome outcome;
    if (!catalog.ok()) return outcome;
    Database db(gen.schema.get());
    if (!PopulateRandomDatabase(&db, 2, seed).ok()) return outcome;
    ExplorerOptions options = base;
    options.num_threads = num_threads;
    auto r = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into t0 values (1, 2, 3)"}, options);
    if (!r.ok()) return outcome;
    outcome.ok = true;
    outcome.complete = r.value().complete;
    outcome.may_not_terminate = r.value().may_not_terminate;
    outcome.final_states = r.value().final_states;
    outcome.observable_streams = r.value().observable_streams;
    return outcome;
  };

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ExplorerOutcome classic = explore_seed(seed, 0);
    ASSERT_TRUE(classic.ok) << "seed=" << seed;
    // The work-stealing engine is contracted to match the classic walk
    // UNCONDITIONALLY — even truncated runs: any bound trip aborts the
    // parallel attempt and reruns classic, so there is no "different
    // frontier" escape hatch (there was one when the budget was sliced
    // per top-level shard).
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(explore_seed(seed, threads), classic)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Reference x thread-count sweep: the undo-log explorer must agree with the
// reference walk (testing/reference_explorer.h) on every result the
// explorer is contracted to keep deterministic, in classic mode and at
// every parallel pool size. The reference enumerates every order, so POR
// is pinned off.
TEST_F(ParallelDeterminismTest, ExplorerBackendsIdenticalAcrossThreadCounts) {
  constexpr uint64_t kNumSeeds = 20;
  ExplorerOptions base;
  base.max_depth = 24;
  base.max_total_steps = 20000;
  base.por = ExplorerOptions::PorMode::kOff;

  auto explore_seed = [&](uint64_t seed, int num_threads, bool reference) {
    RandomRuleSetParams params = ParamsForSeed(seed);
    params.num_rules = 4 + static_cast<int>(seed % 3);
    params.observable_fraction = 0.5;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto catalog = RuleCatalog::Build(gen.schema.get(), std::move(gen.rules));
    ExplorerOutcome outcome;
    if (!catalog.ok()) return outcome;
    Database db(gen.schema.get());
    if (!PopulateRandomDatabase(&db, 2, seed).ok()) return outcome;
    auto initial =
        ApplyUserStatements(&db, {"insert into t0 values (1, 2, 3)"});
    if (!initial.ok()) return outcome;
    ExplorerOptions options = base;
    options.num_threads = num_threads;
    auto r = reference
                 ? fuzzing::ReferenceExplore(catalog.value(), db,
                                             initial.value(), options)
                 : Explorer::Explore(catalog.value(), db, initial.value(),
                                     options);
    if (!r.ok()) return outcome;
    outcome.ok = true;
    outcome.complete = r.value().complete;
    outcome.may_not_terminate = r.value().may_not_terminate;
    outcome.final_states = r.value().final_states;
    outcome.observable_streams = r.value().observable_streams;
    return outcome;
  };

  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    ExplorerOutcome reference = explore_seed(seed, 0, /*reference=*/true);
    ASSERT_TRUE(reference.ok) << "seed=" << seed;
    EXPECT_EQ(explore_seed(seed, 0, false), reference) << "seed=" << seed;
    // Every pool size agrees with the reference walk outright — the
    // abort-and-rerun fallback covers the truncated runs, so completeness
    // does not gate the comparison.
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(explore_seed(seed, threads, false), reference)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Seeded concurrency sweep. The explorer starts its helper threads only
// once a walk claims 64 steps, and most random catalogs finish well before
// that — so the randomized oracles above rarely run two workers at once.
// This sweep keeps random catalogs whose classic walk takes at least 256
// steps and explores each at 2/4/8 threads x POR off/on, comparing every
// result and determinism-contract counter bit-for-bit with the classic
// walk of the same POR mode.
TEST_F(ParallelDeterminismTest, LargeRandomTreesMatchClassicAcrossWorkers) {
  constexpr long kMinSteps = 256;
  constexpr long kMaxSteps = 512;  // the budget; keeps the sweep short under TSan
  constexpr int kCases = 4;
  constexpr uint64_t kMaxSeeds = 200;
  constexpr auto kPorOff = ExplorerOptions::PorMode::kOff;
  constexpr auto kPorOn = ExplorerOptions::PorMode::kCommute;

  int cases = 0;
  long helper_runs = 0;
  for (uint64_t seed = 1; seed <= kMaxSeeds && cases < kCases; ++seed) {
    // Acyclic triggering keeps most of these walks finite, so more seeds
    // reach the wide interleaving trees this sweep is after.
    RandomRuleSetParams params;
    params.seed = seed;
    params.num_rules = 6 + static_cast<int>(seed % 3);
    params.num_tables = 3;
    params.columns_per_table = 2;
    params.observable_fraction = (seed % 2 == 0) ? 0.3 : 0.0;
    params.update_bound = 4;
    params.dag_triggering = true;
    GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
    auto catalog = RuleCatalog::Build(gen.schema.get(), std::move(gen.rules));
    if (!catalog.ok()) continue;
    Database db(gen.schema.get());
    ASSERT_TRUE(PopulateRandomDatabase(&db, 1, seed).ok());
    auto explore = [&](ExplorerOptions::PorMode por, int num_threads) {
      ExplorerOptions options;
      options.max_depth = 32;
      options.max_total_steps = kMaxSteps;
      options.por = por;
      options.num_threads = num_threads;
      return Explorer::ExploreAfterStatements(
          catalog.value(), db,
          {"insert into t0 values (1, 2)", "insert into t1 values (3, 1)"},
          options);
    };
    auto probe = explore(kPorOff, 0);
    if (!probe.ok() || !probe.value().complete ||
        probe.value().steps_taken < kMinSteps) {
      continue;
    }
    ++cases;
    for (auto por : {kPorOff, kPorOn}) {
      // The probe already is the POR-off classic walk.
      auto classic = por == kPorOff ? probe : explore(por, 0);
      ASSERT_TRUE(classic.ok()) << classic.status().ToString();
      const ExplorationResult& c = classic.value();
      for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " por=" +
                     std::to_string(por == kPorOn) +
                     " threads=" + std::to_string(threads));
        auto parallel = explore(por, threads);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        const ExplorationResult& p = parallel.value();
        EXPECT_EQ(p.final_states, c.final_states);
        EXPECT_EQ(p.observable_streams, c.observable_streams);
        EXPECT_EQ(p.complete, c.complete);
        EXPECT_EQ(p.may_not_terminate, c.may_not_terminate);
        EXPECT_EQ(p.steps_taken, c.steps_taken);
        EXPECT_EQ(p.states_visited, c.states_visited);
        EXPECT_EQ(p.stats.states_interned, c.stats.states_interned);
        EXPECT_EQ(p.stats.interner_hits, c.stats.interner_hits);
        EXPECT_EQ(p.stats.delta_reverts, c.stats.delta_reverts);
        EXPECT_EQ(p.stats.canonicalization_bytes,
                  c.stats.canonicalization_bytes);
        EXPECT_EQ(p.stats.por_pruned_orders, c.stats.por_pruned_orders);
        EXPECT_EQ(p.stats.peak_stack_depth, c.stats.peak_stack_depth);
        EXPECT_EQ(p.stats.parallel_fallbacks, 0);
        // Helpers start exactly when the walk reaches 64 steps; a
        // POR-reduced tree may stay under that.
        EXPECT_EQ(p.stats.helper_threads,
                  c.steps_taken >= 64 ? threads - 1 : 0);
        if (p.stats.helper_threads > 0) ++helper_runs;
      }
    }
  }
  EXPECT_EQ(cases, kCases) << "too few seeds produced a tree of "
                           << kMinSteps << ".." << kMaxSteps << " steps";
  // POR off alone gives 3 thread counts per case.
  EXPECT_GE(helper_runs, 3L * kCases);
}

}  // namespace
}  // namespace starburst
