// B6: the parallel backend (common/thread_pool.h). Three hot paths, each
// swept over thread counts via Args({size, threads}) so one JSON run
// (BENCH_parallel.json) records the before/after: threads = 1 is the exact
// sequential baseline (ThreadPool(1) runs inline), larger thread counts
// exercise the pool. Results are deterministic by construction, so the
// thread axis changes only wall time, never verdicts.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/commutativity.h"
#include "common/thread_pool.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

GeneratedRuleSet MakeRuleSet(int num_rules, uint64_t seed) {
  RandomRuleSetParams params;
  params.num_rules = num_rules;
  params.num_tables = std::max(4, num_rules / 4);
  params.priority_density = 0.1;
  params.p_condition = 0.8;
  params.seed = seed;
  return RandomRuleSetGenerator::Generate(params);
}

// Hot path 1: the Lemma 6.1 pair matrix (O(n^2) SyntacticallyCommutePair
// sweeps in the CommutativityAnalyzer constructor).
void BM_PairSweep(benchmark::State& state) {
  int num_rules = static_cast<int>(state.range(0));
  ThreadPool::SetDefaultThreadCount(static_cast<int>(state.range(1)));
  GeneratedRuleSet gen = MakeRuleSet(num_rules, 31);
  PrelimAnalysis prelim =
      PrelimAnalysis::Compute(*gen.schema, gen.rules).value();
  for (auto _ : state) {
    CommutativityAnalyzer analyzer(prelim, *gen.schema);
    benchmark::DoNotOptimize(analyzer.Commute(0, 0));
  }
  long pairs = static_cast<long>(num_rules) * (num_rules - 1) / 2;
  state.counters["pairs_per_s"] = benchmark::Counter(
      static_cast<double>(pairs * state.iterations()),
      benchmark::Counter::kIsRate);
  ThreadPool::SetDefaultThreadCount(ThreadPool::DefaultThreadCount());
}
BENCHMARK(BM_PairSweep)
    ->ArgsProduct({{40, 80, 160}, {1, 2, 4, 8}})
    ->ArgNames({"rules", "threads"})
    ->UseRealTime();

// Hot path 2: batch analysis of independent rule sets through the
// ParallelAnalyzeRuleSets facade (one full AnalyzeAll per set).
void BM_BatchAnalyzeRuleSets(benchmark::State& state) {
  ThreadPool::SetDefaultThreadCount(static_cast<int>(state.range(1)));
  int batch = static_cast<int>(state.range(0));
  std::vector<GeneratedRuleSet> sets;
  sets.reserve(batch);
  for (int k = 0; k < batch; ++k) {
    sets.push_back(MakeRuleSet(24, 100 + static_cast<uint64_t>(k)));
  }
  for (auto _ : state) {
    std::vector<RuleSetSpec> specs;
    specs.reserve(sets.size());
    for (GeneratedRuleSet& gen : sets) {
      RuleSetSpec spec;
      spec.schema = gen.schema.get();
      for (const RuleDef& rule : gen.rules) {
        spec.rules.push_back(rule.Clone());
      }
      specs.push_back(std::move(spec));
    }
    auto reports = ParallelAnalyzeRuleSets(std::move(specs), 0);
    benchmark::DoNotOptimize(reports.size());
  }
  state.counters["rule_sets_per_s"] = benchmark::Counter(
      static_cast<double>(batch * state.iterations()),
      benchmark::Counter::kIsRate);
  ThreadPool::SetDefaultThreadCount(ThreadPool::DefaultThreadCount());
}
BENCHMARK(BM_BatchAnalyzeRuleSets)
    ->ArgsProduct({{8}, {1, 2, 4, 8}})
    ->ArgNames({"batch", "threads"})
    ->UseRealTime();

// Shared reporting for the explorer scaling curves: states/s plus the
// scheduling telemetry that shows whether helper threads started and the
// work really moved between workers. `helpers` is per exploration.
void ReportExplorerRun(benchmark::State& state, long steps, long steals,
                       long fallbacks, long helpers) {
  state.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
  state.counters["steals"] = static_cast<double>(steals);
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
  state.counters["helpers"] = benchmark::Counter(
      static_cast<double>(helpers), benchmark::Counter::kAvgIterations);
}

// Hot path 3: the work-stealing explorer on N unordered commuting rules —
// N! path-sensitive interleavings, with every state interned once in the
// shared striped set. num_threads = 0 is the classic engine for
// reference; 1/2/4/8 sweep the scaling curve (parallel efficiency =
// steps_per_s(T) / (T * steps_per_s(1)), derived in BENCH_parallel.json).
// The POR axis (range(2)) collapses the commuting fan-out to one chain,
// so it measures reduction overhead inside the parallel walk rather than
// raw throughput.
void BM_WorkStealingExplorer(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Schema schema;
  (void)schema.AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int i = 0; i < n; ++i) {
    std::string table = "t" + std::to_string(i);
    (void)schema.AddTable(table, {{"a", ColumnType::kInt}});
    rules_src += "create rule r" + std::to_string(i) +
                 " on src when inserted then insert into " + table +
                 " values (1);";
  }
  auto script = Parser::ParseScript(rules_src);
  auto catalog = RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  ExplorerOptions options;
  options.max_total_steps = 2000000;
  options.max_streams = 100000;
  options.num_threads = static_cast<int>(state.range(1));
  options.por = state.range(2) != 0 ? ExplorerOptions::PorMode::kCommute
                                    : ExplorerOptions::PorMode::kOff;
  long steps = 0, steals = 0, fallbacks = 0, helpers = 0;
  for (auto _ : state) {
    auto r = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into src values (1)"}, options);
    steps += r.value().steps_taken;
    steals += r.value().stats.steals;
    fallbacks += r.value().stats.parallel_fallbacks;
    helpers += r.value().stats.helper_threads;
    benchmark::DoNotOptimize(r.value().final_states.size());
  }
  ReportExplorerRun(state, steps, steals, fallbacks, helpers);
}
BENCHMARK(BM_WorkStealingExplorer)
    ->ArgsProduct({{6, 7}, {0, 1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"rules", "threads", "por"})
    ->UseRealTime();

// Deep-cascade workload: two independent trigger chains of depth 8 fan
// out from the root, so the tree is DEEP (16-step paths, C(16,8) = 12870
// interleavings, ~48.6k edges) rather than wide at the top — the shape
// the old top-level sharding could not balance (two shards, arbitrarily
// unequal subtrees) and the steal-from-the-shallowest-frame policy is
// built for. Each firing enables the next chain rule, which keeps the
// commute certificates inapplicable — the POR axis (range(1)) therefore
// measures the reduction check's overhead on a POR-resistant shape, not
// pruning (steps are identical on both axes).
void BM_DeepCascadeExplorer(benchmark::State& state) {
  constexpr int kChains = 2;
  constexpr int kDepth = 8;
  Schema schema;
  (void)schema.AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int c = 0; c < kChains; ++c) {
    for (int i = 0; i <= kDepth; ++i) {
      (void)schema.AddTable("c" + std::to_string(c) + "_" + std::to_string(i),
                            {{"a", ColumnType::kInt}});
    }
    rules_src += "create rule root" + std::to_string(c) +
                 " on src when inserted then insert into c" +
                 std::to_string(c) + "_0 values (1);";
    for (int i = 0; i < kDepth; ++i) {
      std::string from = "c" + std::to_string(c) + "_" + std::to_string(i);
      std::string to = "c" + std::to_string(c) + "_" + std::to_string(i + 1);
      rules_src += "create rule step" + std::to_string(c) + "_" +
                   std::to_string(i) + " on " + from +
                   " when inserted then insert into " + to + " values (1);";
    }
  }
  auto script = Parser::ParseScript(rules_src);
  auto catalog = RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  ExplorerOptions options;
  options.max_total_steps = 2000000;
  options.max_depth = 64;
  options.num_threads = static_cast<int>(state.range(0));
  options.por = state.range(1) != 0 ? ExplorerOptions::PorMode::kCommute
                                    : ExplorerOptions::PorMode::kOff;
  long steps = 0, steals = 0, fallbacks = 0, helpers = 0;
  for (auto _ : state) {
    auto r = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into src values (1)"}, options);
    steps += r.value().steps_taken;
    steals += r.value().stats.steals;
    fallbacks += r.value().stats.parallel_fallbacks;
    helpers += r.value().stats.helper_threads;
    benchmark::DoNotOptimize(r.value().final_states.size());
  }
  ReportExplorerRun(state, steps, steals, fallbacks, helpers);
}
BENCHMARK(BM_DeepCascadeExplorer)
    ->ArgsProduct({{0, 1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"threads", "por"})
    ->UseRealTime();

}  // namespace
}  // namespace starburst
