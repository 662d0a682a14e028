// bench_delta: plain-chrono timing of the explorer's undo-log walk on the
// unordered-rules workload, with a --check mode the CI perf-smoke job runs
// against the checked-in BENCH_delta.json baseline.
//
// Usage:
//   bench_delta                                  print a timing report
//   bench_delta --json                           print the report as JSON
//   bench_delta --check FILE [--max-regression R]
//       re-time the undo-log walk and exit 1 when it is more than R
//       times slower than the baseline's undo_ns (default R = 5; the wide
//       margin absorbs machine-to-machine variance while still catching
//       order-of-magnitude regressions).

#include <algorithm>
#include <chrono>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"

using namespace starburst;  // NOLINT: tool brevity

namespace {

/// N unordered commuting rules on one trigger table: N! interleavings over
/// far fewer distinct states — the same shape as the explorer
/// micro-benchmark BM_ExplorerUnorderedRules.
struct Workload {
  // Heap-held so the schema's address is stable across the struct's moves.
  std::unique_ptr<Schema> schema;
  std::unique_ptr<RuleCatalog> catalog;
  std::unique_ptr<Database> db;
};

Workload MakeWorkload(int n) {
  Workload w;
  w.schema = std::make_unique<Schema>();
  (void)w.schema->AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int i = 0; i < n; ++i) {
    std::string table = "t" + std::to_string(i);
    (void)w.schema->AddTable(table, {{"a", ColumnType::kInt}});
    rules_src += "create rule r" + std::to_string(i) +
                 " on src when inserted then insert into " + table +
                 " values (1);";
  }
  auto script = Parser::ParseScript(rules_src);
  auto built =
      RuleCatalog::Build(w.schema.get(), std::move(script.value().rules));
  w.catalog = std::make_unique<RuleCatalog>(std::move(built).value());
  w.db = std::make_unique<Database>(w.schema.get());
  return w;
}

struct Timing {
  double ns_per_exploration = 0;
  long states = 0;
  long delta_reverts = 0;
};

/// Median-of-repetitions wall time for one full exploration.
Timing Time(const Workload& w) {
  ExplorerOptions options;
  Timing timing;
  std::vector<double> runs;
  constexpr int kReps = 5;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    int iters = 0;
    double elapsed = 0;
    // At least 0.2s of work per repetition.
    while (elapsed < 0.2) {
      auto result = Explorer::ExploreAfterStatements(
          *w.catalog, *w.db, {"insert into src values (1)"}, options);
      if (!result.ok()) {
        std::fprintf(stderr, "exploration failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(2);
      }
      timing.states = result.value().states_visited;
      timing.delta_reverts = result.value().stats.delta_reverts;
      ++iters;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    }
    runs.push_back(elapsed * 1e9 / iters);
  }
  std::sort(runs.begin(), runs.end());
  timing.ns_per_exploration = runs[runs.size() / 2];
  return timing;
}

/// Minimal extraction of `"key": <number>` from the baseline JSON; good
/// enough for the file this tool writes itself.
double JsonNumber(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  std::string check_path;
  double max_regression = 5.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--max-regression" && i + 1 < argc) {
      max_regression = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_delta [--json] [--check FILE "
                   "[--max-regression R]]\n");
      return 2;
    }
  }

  constexpr int kNumRules = 5;
  Workload workload = MakeWorkload(kNumRules);
  Timing undo = Time(workload);

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", check_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    double baseline_ns = JsonNumber(buffer.str(), "undo_ns");
    if (baseline_ns <= 0) {
      std::fprintf(stderr, "baseline %s has no undo_ns\n",
                   check_path.c_str());
      return 2;
    }
    double ratio = undo.ns_per_exploration / baseline_ns;
    std::printf("undo-log walk: %.0f ns/exploration (baseline %.0f, "
                "%.2fx, limit %.1fx)\n",
                undo.ns_per_exploration, baseline_ns, ratio, max_regression);
    if (ratio > max_regression) {
      std::fprintf(stderr, "PERF REGRESSION: %.2fx > %.1fx\n", ratio,
                   max_regression);
      return 1;
    }
    return 0;
  }

  double undo_states_per_sec =
      undo.states * 1e9 / undo.ns_per_exploration;
  if (as_json) {
    std::printf(
        "{\n"
        "  \"workload\": \"unordered_rules_n%d\",\n"
        "  \"states\": %ld,\n"
        "  \"delta_reverts\": %ld,\n"
        "  \"undo_ns\": %.0f,\n"
        "  \"undo_states_per_sec\": %.0f\n"
        "}\n",
        kNumRules, undo.states, undo.delta_reverts, undo.ns_per_exploration,
        undo_states_per_sec);
  } else {
    std::printf("workload: %d unordered rules, %ld states/exploration\n",
                kNumRules, undo.states);
    std::printf("undo-log walk: %10.0f ns  (%.0f states/sec, %ld delta "
                "reverts)\n",
                undo.ns_per_exploration, undo_states_per_sec,
                undo.delta_reverts);
  }
  return 0;
}
