// B5: frontend throughput (lexer + parser) and execution-graph explorer
// speed (steps per second, with the state count next to it).

#include <benchmark/benchmark.h>

#include "rulelang/lexer.h"
#include "rulelang/parser.h"
#include "rulelang/printer.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"

namespace starburst {
namespace {

std::string MakeScript(int num_rules, uint64_t seed) {
  RandomRuleSetParams params;
  params.num_rules = num_rules;
  params.num_tables = std::max(4, num_rules / 4);
  params.priority_density = 0.1;
  params.p_condition = 0.8;
  params.seed = seed;
  GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
  std::string out;
  for (const RuleDef& rule : gen.rules) {
    out += RuleToString(rule);
    out += ";\n";
  }
  return out;
}

void BM_LexerThroughput(benchmark::State& state) {
  std::string script = MakeScript(static_cast<int>(state.range(0)), 71);
  for (auto _ : state) {
    auto tokens = Lexer::Tokenize(script);
    benchmark::DoNotOptimize(tokens.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(script.size()));
}
BENCHMARK(BM_LexerThroughput)->Range(8, 256);

void BM_ParserThroughput(benchmark::State& state) {
  std::string script = MakeScript(static_cast<int>(state.range(0)), 71);
  for (auto _ : state) {
    auto parsed = Parser::ParseScript(script);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(script.size()));
}
BENCHMARK(BM_ParserThroughput)->Range(8, 256);

void BM_PrinterRoundTrip(benchmark::State& state) {
  std::string script = MakeScript(64, 73);
  auto parsed = Parser::ParseScript(script);
  for (auto _ : state) {
    std::string out = ScriptToString(parsed.value());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_PrinterRoundTrip);

// Explorer speed is steps per second: every order is stepped whatever the
// state count, and states/s falls whenever more orders reach one state.
benchmark::Counter StepsPerSecond(const benchmark::State& state, long steps) {
  return benchmark::Counter(
      static_cast<double>(steps) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// Explorer: N unordered commuting rules create N! interleavings but far
// fewer distinct states; measures full path-sensitive state expansion
// with partial-order reduction off (`range(1) == 0`) and on
// (`range(1) == 1`). Every rule is reduction-safe, so POR walks one
// chain of N+1 states where the full enumeration expands all 2^N rule
// subsets — the confluent-workload headline for `ExplorerOptions::por`.
void BM_ExplorerUnorderedRules(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool por = state.range(1) != 0;
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
  auto catalog =
      RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  ExplorerOptions options;
  options.por = por ? ExplorerOptions::PorMode::kCommute
                    : ExplorerOptions::PorMode::kOff;
  long states = 0;
  long steps = 0;
  long canon_bytes = 0;
  long por_pruned = 0;
  for (auto _ : state) {
    auto result = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into src values (1)"}, options);
    states = result.value().states_visited;
    steps = result.value().steps_taken;
    canon_bytes = result.value().stats.canonicalization_bytes;
    por_pruned = result.value().stats.por_pruned_orders;
    benchmark::DoNotOptimize(result.value().final_states.size());
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["canon_bytes"] = static_cast<double>(canon_bytes);
  state.counters["por_pruned"] = static_cast<double>(por_pruned);
  state.counters["steps_per_sec"] = StepsPerSecond(state, steps);
}
BENCHMARK(BM_ExplorerUnorderedRules)
    ->ArgsProduct({benchmark::CreateDenseRange(1, 7, 1), {0, 1}});

// Re-convergent workload with ExplorerOptions::dedup_subtrees: N rules
// whose conditions are false only reset their own pending marker when
// considered, so every permutation of the same subset converges to the
// same state (2^N distinct states under N! interleavings). With dedup on,
// each shared state is expanded once and a revisit is skipped (a
// dedup hit); without it the full-stream explorer re-walks every
// interleaving for path-sensitive observable streams.
void BM_ExplorerRevisitedSubtreesDedup(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Schema schema;
  (void)schema.AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int i = 0; i < n; ++i) {
    rules_src += "create rule r" + std::to_string(i) +
                 " on src when inserted if exists (select * from src "
                 "where a > " +
                 std::to_string(100 * (i + 1)) +
                 ") then delete from src;";
  }
  auto script = Parser::ParseScript(rules_src);
  auto catalog =
      RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  ExplorerOptions options;
  options.dedup_subtrees = true;
  long states = 0;
  long dedup_hits = 0;
  long steps = 0;
  for (auto _ : state) {
    auto result = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into src values (1)"}, options);
    states = result.value().states_visited;
    dedup_hits = result.value().stats.dedup_hits;
    steps = result.value().steps_taken;
    benchmark::DoNotOptimize(result.value().final_states.size());
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["dedup_hits"] = static_cast<double>(dedup_hits);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["steps_per_sec"] = StepsPerSecond(state, steps);
}
BENCHMARK(BM_ExplorerRevisitedSubtreesDedup)->DenseRange(2, 8)->Arg(10);

// The same re-convergent workload under full path-sensitive enumeration,
// for a same-workload baseline against the dedup run above. Capped at
// n=6: the full walk revisits one path per ordered prefix (about n!·e of
// them), which is exactly the blow-up visit-once dedup removes.
void BM_ExplorerRevisitedSubtreesFull(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Schema schema;
  (void)schema.AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int i = 0; i < n; ++i) {
    rules_src += "create rule r" + std::to_string(i) +
                 " on src when inserted if exists (select * from src "
                 "where a > " +
                 std::to_string(100 * (i + 1)) +
                 ") then delete from src;";
  }
  auto script = Parser::ParseScript(rules_src);
  auto catalog =
      RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  long states = 0;
  long steps = 0;
  for (auto _ : state) {
    auto result = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into src values (1)"});
    states = result.value().states_visited;
    steps = result.value().steps_taken;
    benchmark::DoNotOptimize(result.value().final_states.size());
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["steps_per_sec"] = StepsPerSecond(state, steps);
}
BENCHMARK(BM_ExplorerRevisitedSubtreesFull)->DenseRange(2, 6);

void BM_ExplorerFixpointChain(benchmark::State& state) {
  Schema schema;
  (void)schema.AddTable("t", {{"a", ColumnType::kInt}});
  auto script = Parser::ParseScript(
      "create rule inc on t when inserted, updated(a) "
      "then update t set a = a + 1 where a < " +
      std::to_string(state.range(0)) + ";");
  auto catalog =
      RuleCatalog::Build(&schema, std::move(script.value().rules));
  Database db(&schema);
  int peak_depth = 0;
  for (auto _ : state) {
    auto result = Explorer::ExploreAfterStatements(
        catalog.value(), db, {"insert into t values (0)"});
    peak_depth = result.value().stats.peak_stack_depth;
    benchmark::DoNotOptimize(result.value().final_states.size());
  }
  state.counters["peak_stack_depth"] = static_cast<double>(peak_depth);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExplorerFixpointChain)->Range(4, 32);

}  // namespace
}  // namespace starburst
