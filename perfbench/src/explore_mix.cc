// explore_mix: a fixed, seeded list of Explorer::ExploreAfterStatements
// jobs, each run twice: 0 threads with POR off (the default a user gets)
// and parallel workers with POR on (the opt-in fast path). Most jobs are
// random catalogs over PopulateRandomDatabase data; three are structured:
// 7 unordered rules (large, POR-reducible) and two-chain cascades of depth
// 7 and 6 (large, POR-resistant). A round builds every job's catalog
// (set-up) and runs each job five times back to back; rounds repeat until
// the run's time is up.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/exec.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/processor.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using starburst::Database;
using starburst::ExplorationResult;
using starburst::Explorer;
using starburst::ExplorerOptions;
using starburst::Result;
using starburst::RuleCatalog;
using starburst::RuleDef;
using starburst::RuleIndex;
using starburst::Schema;
using starburst::SplitMix64;
using starburst::Status;

constexpr int kRepeats = 5;
// Step budget for random jobs; candidates the default walk cannot finish
// within it are replaced at generation time, so every job completes.
constexpr long kRandomBudget = 1024;
constexpr int kCascadeChains = 2;
constexpr int kCascadeDepth = 7;
// Per-job cap on the traced stepwise walk.
constexpr int64_t kWalkSteps = 200;

struct JobSpec {
  std::string name;
  std::unique_ptr<Schema> schema;
  std::vector<RuleDef> rules;
  int rows = 0;
  uint64_t data_seed = 0;
  std::vector<std::string> statements;
  long budget = kRandomBudget;
};

struct Job {
  const JobSpec* spec = nullptr;
  std::optional<RuleCatalog> catalog;
  std::optional<Database> db;
};

Result<Job> BuildJob(const JobSpec& spec) {
  Job job;
  job.spec = &spec;
  std::vector<RuleDef> rules;
  for (const RuleDef& rule : spec.rules) rules.push_back(rule.Clone());
  Result<RuleCatalog> catalog = RuleCatalog::Build(spec.schema.get(), std::move(rules));
  if (!catalog.ok()) return catalog.status();
  job.catalog.emplace(std::move(catalog).value());
  job.db.emplace(spec.schema.get());
  if (spec.rows > 0) {
    Status populated = starburst::PopulateRandomDatabase(&*job.db, spec.rows, spec.data_seed);
    if (!populated.ok()) return populated;
  }
  return job;
}

ExplorerOptions Options(const JobSpec& spec, bool parallel, int threads) {
  ExplorerOptions options;
  options.max_total_steps = spec.budget;
  options.num_threads = parallel ? threads : 0;
  options.por = parallel ? ExplorerOptions::PorMode::kCommute : ExplorerOptions::PorMode::kOff;
  return options;
}

Result<ExplorationResult> RunJob(const Job& job, bool parallel, int threads) {
  return Explorer::ExploreAfterStatements(*job.catalog, *job.db, job.spec->statements,
                                          Options(*job.spec, parallel, threads));
}

/// A structured shape: a `src` table whose insert fans out to rule chains.
/// chains x depth with depth 0 is `chains` unordered rules.
JobSpec StructuredSpec(const std::string& name, int chains, int depth) {
  JobSpec spec;
  spec.name = name;
  spec.budget = 2000000;
  spec.schema = std::make_unique<Schema>();
  (void)spec.schema->AddTable("src", {{"a", starburst::ColumnType::kInt}});
  std::string text;
  for (int c = 0; c < chains; ++c) {
    const std::string chain = "c" + std::to_string(c) + "_";
    for (int i = 0; i <= depth; ++i) {
      (void)spec.schema->AddTable(chain + std::to_string(i), {{"a", starburst::ColumnType::kInt}});
    }
    text += "create rule root" + std::to_string(c) + " on src when inserted then insert into " +
            chain + "0 values (1);";
    for (int i = 0; i < depth; ++i) {
      text += "create rule step" + std::to_string(c) + "_" + std::to_string(i) + " on " + chain +
              std::to_string(i) + " when inserted then insert into " + chain +
              std::to_string(i + 1) + " values (1);";
    }
  }
  auto script = starburst::Parser::ParseScript(text);
  if (script.ok()) spec.rules = std::move(script.value().rules);
  spec.statements = {"insert into src values (1)"};
  return spec;
}

/// Random jobs come in size classes (steps of the 0-thread, POR-off walk)
/// with fixed quotas, so every seed gets the same mix of tiny, small and
/// medium trees; the large trees are the three structured shapes. Most
/// jobs are tiny, so the median job is one of many alike. With 250 jobs a
/// round holds 1250 runs per configuration, so its tail (p99, ten or more
/// runs beyond) is the middle run of the third-largest job, unordered7
/// (after the two cascades), whatever the seed.
struct SizeClass {
  long min_steps;
  long max_steps;  // exclusive
  int quota;
};
constexpr SizeClass kSizeClasses[] = {{1, 16, 230}, {16, 128, 9}, {128, 1024, 8}};
constexpr int kMaxAttempts = 20000;

/// The seeded job list: random catalogs filling kSizeClasses (each checked
/// to finish within its budget at 0 threads) plus the structured shapes.
std::vector<JobSpec> GenerateSpecs(uint64_t seed, int threads) {
  std::vector<JobSpec> specs;
  int filled[std::size(kSizeClasses)] = {};
  int missing = 0;
  for (const SizeClass& c : kSizeClasses) missing += c.quota;
  SplitMix64 rng(seed * 0xd1b54a32d192ed03ULL + 0x5eed);
  for (int attempt = 0; missing > 0 && attempt < kMaxAttempts; ++attempt) {
    starburst::RandomRuleSetParams params;
    params.num_rules = 4 + rng.Below(4);
    params.num_tables = 2 + rng.Below(3);
    params.columns_per_table = 2;
    const double densities[] = {0.0, 0.15, 0.4};
    params.priority_density = densities[rng.Below(3)];
    params.observable_fraction = rng.Chance(0.3) ? 0.3 : 0.0;
    params.dag_triggering = rng.Chance(0.5);
    params.update_bound = 4;
    params.seed = rng.Next();
    starburst::GeneratedRuleSet set = starburst::RandomRuleSetGenerator::Generate(params);
    JobSpec spec;
    spec.schema = std::move(set.schema);
    spec.rules = std::move(set.rules);
    spec.rows = 3;
    spec.data_seed = rng.Next();
    const int statements = 1 + rng.Below(spec.schema->num_tables());
    for (int s = 0; s < statements; ++s) {
      const auto& table = spec.schema->tables()[static_cast<size_t>(rng.Below(spec.schema->num_tables()))];
      std::string stmt = "insert into " + table.name() + " values (";
      for (int c = 0; c < table.num_columns(); ++c) {
        stmt += (c > 0 ? ", " : "") + std::to_string(rng.Below(4));
      }
      spec.statements.push_back(stmt + ")");
    }
    Result<Job> job = BuildJob(spec);
    if (!job.ok()) continue;
    Result<ExplorationResult> probe = RunJob(job.value(), false, threads);
    if (!probe.ok() || !probe.value().complete) continue;
    const long steps = probe.value().steps_taken;
    for (size_t k = 0; k < std::size(kSizeClasses); ++k) {
      const SizeClass& c = kSizeClasses[k];
      if (steps >= c.min_steps && steps < c.max_steps && filled[k] < c.quota) {
        ++filled[k];
        --missing;
        spec.name = "random" + std::to_string(specs.size()) + "_steps" + std::to_string(steps);
        specs.push_back(std::move(spec));
        break;
      }
    }
  }
  specs.push_back(StructuredSpec("cascade2x6", 2, 6));
  specs.push_back(StructuredSpec("unordered7", 7, 0));
  specs.push_back(StructuredSpec("cascade" + std::to_string(kCascadeChains) + "x" +
                                     std::to_string(kCascadeDepth),
                                 kCascadeChains, kCascadeDepth));
  return specs;
}

/// Accumulated ExplorationStats of one configuration over the job list.
struct StatsSum {
  double seconds = 0;
  long steps = 0;
  long states_visited = 0;
  long states_interned = 0;
  long interner_hits = 0;
  long delta_reverts = 0;
  long canonical_bytes = 0;
  long por_pruned = 0;
  long steals = 0;
  long fallbacks = 0;

  void Add(const ExplorationResult& r, double s) {
    seconds += s;
    steps += r.steps_taken;
    states_visited += r.states_visited;
    states_interned += r.stats.states_interned;
    interner_hits += r.stats.interner_hits;
    delta_reverts += r.stats.delta_reverts;
    canonical_bytes += r.stats.canonicalization_bytes;
    por_pruned += r.stats.por_pruned_orders;
    steals += r.stats.steals;
    fallbacks += r.stats.parallel_fallbacks;
  }
};

struct Round {
  std::string error;
  std::string mismatch;
  double setup_s = 0;
  int64_t runs = 0;
  int64_t failed = 0;
  std::vector<double> serial_ms;
  std::vector<double> parallel_ms;
  std::vector<double> cascade_ms;
  std::vector<double> cascade_par_ms;
  double job_ms = 0;  // both configurations, every repeat
  /// Per job: its first repeat's time over its last repeat's.
  std::vector<double> repeat_ratio;
  StatsSum serial_stats;  // first repeat of every job
  StatsSum parallel_stats;
  std::vector<Job> jobs;
};

Round RunRound(const std::vector<JobSpec>& specs, const PassConfig& config) {
  Round round;
  TraceLane* lane = config.tracer ? config.tracer->NewLane("explore jobs") : nullptr;
  const int64_t setup_start = NowNs();
  for (const JobSpec& spec : specs) {
    Span span(lane, "rules.catalog_build");
    Result<Job> job = BuildJob(spec);
    if (!job.ok()) {
      round.error = spec.name + ": " + job.status().ToString();
      return round;
    }
    round.jobs.push_back(std::move(job).value());
  }
  round.setup_s = SecondsSince(setup_start);

  for (size_t j = 0; j < round.jobs.size(); ++j) {
    const Job& job = round.jobs[j];
    const bool cascade = j + 1 == round.jobs.size();
    const int64_t id = static_cast<int64_t>(j);
    double first_ms = 0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const int64_t t0 = NowNs();
      std::optional<Result<ExplorationResult>> serial;
      {
        Span span(lane, "explore.serial", id);
        serial.emplace(RunJob(job, false, config.threads));
      }
      const int64_t t1 = NowNs();
      std::optional<Result<ExplorationResult>> parallel;
      {
        Span span(lane, "explore.parallel", id);
        parallel.emplace(RunJob(job, true, config.threads));
      }
      const int64_t t2 = NowNs();
      round.runs += 2;
      if (!serial->ok() || !parallel->ok()) {
        round.failed += (serial->ok() ? 0 : 1) + (parallel->ok() ? 0 : 1);
        if (round.mismatch.empty()) round.mismatch = job.spec->name + ": exploration failed";
        continue;
      }
      const double s_ms = static_cast<double>(t1 - t0) / 1e6;
      const double p_ms = static_cast<double>(t2 - t1) / 1e6;
      round.serial_ms.push_back(s_ms);
      round.parallel_ms.push_back(p_ms);
      round.job_ms += s_ms + p_ms;
      if (repeat == 0) first_ms = s_ms + p_ms;
      if (repeat == kRepeats - 1 && first_ms > 0) {
        round.repeat_ratio.push_back(first_ms / (s_ms + p_ms));
      }
      if (cascade) {
        round.cascade_ms.push_back(s_ms);
        round.cascade_par_ms.push_back(p_ms);
      }
      if (repeat == 0) {
        round.serial_stats.Add(serial->value(), s_ms / 1e3);
        round.parallel_stats.Add(parallel->value(), p_ms / 1e3);
      }
      if (repeat == 0 && j == 0 && config.tamper == "final_state" &&
          !parallel->value().final_states.empty()) {
        parallel->value().final_states.erase(parallel->value().final_states.begin());
      }
      if (round.mismatch.empty()) {
        std::string mismatch = CheckExploreJob(serial->value(), parallel->value());
        if (!mismatch.empty()) round.mismatch = job.spec->name + ": " + mismatch;
      }
    }
  }
  return round;
}

/// Walks one job's execution graph step by step through the public
/// processor calls the explorer is built from, timing each call. Depth
/// first with undo, no interning; stops after kWalkSteps considerations.
void Walk(const RuleCatalog& catalog, starburst::RuleProcessingState* state,
          starburst::TransitionUndoLog* undo, int depth, int64_t* budget, TraceLane* lane,
          int64_t id) {
  if (*budget <= 0 || depth >= 64) return;
  std::vector<RuleIndex> triggered;
  {
    Span span(lane, "rules.triggered", id);
    triggered = starburst::TriggeredRules(catalog, *state);
  }
  if (triggered.empty()) return;
  std::vector<RuleIndex> eligible;
  {
    Span span(lane, "rules.eligible", id);
    eligible = starburst::EligibleRules(catalog, triggered);
  }
  for (RuleIndex r : eligible) {
    if (*budget <= 0) return;
    --*budget;
    undo->Mark();
    state->db.BeginDelta();
    Result<starburst::StepOutcome> step = [&] {
      Span span(lane, "rules.consider", id);
      return starburst::ConsiderRule(catalog, state, r);
    }();
    if (step.ok()) {
      {
        Span span(lane, "engine.fingerprint", id);
        (void)state->db.ContentFingerprint();
      }
      if (!step.value().rollback) Walk(catalog, state, undo, depth + 1, budget, lane, id);
    }
    Span span(lane, "engine.revert", id);
    state->db.RevertDelta();
    undo->RevertToMark();
  }
}

/// Runs the stepwise walk over every job; returns the number of
/// considerations walked.
int64_t WalkJobs(const std::vector<Job>& jobs, TraceLane* lane) {
  int64_t walked = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    Span span(lane, "walk", static_cast<int64_t>(j));
    Database db = *job.db;
    starburst::Executor executor(&db);
    starburst::Transition initial;
    bool ok = true;
    for (const std::string& sql : job.spec->statements) {
      auto stmt = starburst::Parser::ParseStatement(sql);
      if (!stmt.ok()) {
        ok = false;
        break;
      }
      auto outcome = executor.Execute(*stmt.value(), nullptr, nullptr);
      if (!outcome.ok() || !initial.Compose(outcome.value().delta).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    starburst::RuleProcessingState state(&job.catalog->schema(), job.catalog->num_rules());
    state.db = std::move(db);
    for (starburst::Transition& t : state.pending) t = initial;
    starburst::TransitionUndoLog undo;
    state.pending_undo = &undo;
    int64_t budget = kWalkSteps;
    Walk(*job.catalog, &state, &undo, 0, &budget, lane, static_cast<int64_t>(j));
    walked += kWalkSteps - budget;
  }
  return walked;
}

void TracedLayers(const Round& round, Tracer* tracer, MetricList* layers) {
  const int64_t walked = WalkJobs(round.jobs, tracer->NewLane("stepwise walk"));
  const auto totals = tracer->Totals();
  auto per_step = [&](const char* name) {
    return static_cast<double>(Lookup(totals, name).total_ns) /
           static_cast<double>(std::max<int64_t>(1, walked));
  };
  const StatsSum& s = round.serial_stats;
  const StatsSum& p = round.parallel_stats;
  const double ns_per_step = s.seconds * 1e9 / static_cast<double>(std::max(1L, s.steps));
  const double walk_sum = per_step("rules.triggered") + per_step("rules.eligible") +
                          per_step("rules.consider") + per_step("engine.fingerprint") +
                          per_step("engine.revert");
  const double jobs = static_cast<double>(round.jobs.size());
  layers->insert(
      layers->end(),
      {
          {"explorer.states_per_s", static_cast<double>(s.states_visited) / s.seconds, "1/s",
           "0 threads, POR off, first repeats"},
          {"explorer.ns_per_step", ns_per_step, "ns", "0 threads, POR off"},
          {"explorer.steps", static_cast<double>(s.steps), "count", "first repeats, 0 threads, POR off"},
          {"explorer.states_visited", static_cast<double>(s.states_visited), "count", "first repeats"},
          {"explorer.interner_hit_ratio",
           static_cast<double>(s.interner_hits) /
               static_cast<double>(std::max(1L, s.interner_hits + s.states_interned)),
           "ratio", "hits / (hits + interned)"},
          {"explorer.delta_reverts", static_cast<double>(s.delta_reverts), "count", "first repeats"},
          {"explorer.canonical_bytes", static_cast<double>(s.canonical_bytes), "bytes", "first repeats"},
          {"explorer.por_pruned_orders", static_cast<double>(p.por_pruned), "count",
           "first repeats, parallel, POR on"},
          {"explorer.steals", static_cast<double>(p.steals), "count", "first repeats, parallel"},
          {"explorer.parallel_fallbacks", static_cast<double>(p.fallbacks) / jobs, "ratio",
           "discarded parallel attempts per job"},
          {"rules.triggered_ns", per_step("rules.triggered"), "ns", "TriggeredRules, per walk step"},
          {"rules.eligible_ns", per_step("rules.eligible"), "ns", "EligibleRules, per walk step"},
          {"rules.consider_ns", per_step("rules.consider"), "ns", "ConsiderRule, per walk step"},
          {"engine.fingerprint_ns", per_step("engine.fingerprint"), "ns",
           "ContentFingerprint, per walk step"},
          {"engine.revert_ns", per_step("engine.revert"), "ns", "RevertDelta + pending revert"},
          {"explorer.self_ns", ns_per_step - walk_sum, "ns", "ns_per_step minus the walk's sum"},
          {"rules.catalog_build_us", Lookup(totals, "rules.catalog_build").MeanUs(), "us",
           "RuleCatalog::Build per job"},
          {"explorer.cascade_speedup", Median(round.cascade_ms) / Median(round.cascade_par_ms),
           "ratio", "deep cascade, 0 threads / parallel"},
          {"explore_mix.layer_coverage", walk_sum / ns_per_step, "ratio",
           "walk per-step sum over explorer ns_per_step"},
      });
}

}  // namespace

PassResult RunExploreMix(const PassConfig& config) {
  PassResult result;
  const int threads = std::max(1, std::min(2, config.threads));
  const std::vector<JobSpec> specs = GenerateSpecs(config.seed, threads);
  result.threads_note = "explorer workers: 0 (default config) and " + std::to_string(threads) +
                        " (parallel config), " + std::to_string(specs.size()) + " jobs";

  std::vector<double> setup, ops, s_p50, s_tail, p_p50, p_tail, steady, cascade, cascade_par;
  double s_q = 0.5, p_q = 0.5;
  size_t n = 0;
  const int64_t start = NowNs();
  std::optional<Round> last;
  while (result.rounds == 0 || SecondsSince(start) < config.seconds) {
    Round round = RunRound(specs, config);
    ++result.rounds;
    if (!round.error.empty()) {
      result.mismatch = round.error;
      return result;
    }
    result.attempted += round.runs;
    result.failed += round.failed;
    if (result.mismatch.empty()) result.mismatch = round.mismatch;
    Summary s = Summarize(round.serial_ms);
    Summary p = Summarize(round.parallel_ms);
    setup.push_back(round.setup_s);
    ops.push_back(static_cast<double>(round.runs) / (round.job_ms / 1e3));
    s_p50.push_back(s.p50);
    s_tail.push_back(s.tail);
    p_p50.push_back(p.p50);
    p_tail.push_back(p.tail);
    // Last-repeat / first-repeat throughput, median over jobs. The repeats
    // of a job run back to back, so host speed drifts cancel out.
    steady.push_back(Median(round.repeat_ratio));
    cascade.push_back(Median(round.cascade_ms));
    cascade_par.push_back(Median(round.cascade_par_ms));
    s_q = s.tail_quantile;
    p_q = p.tail_quantile;
    n = s.count;
    last.emplace(std::move(round));
  }

  EndToEnd& e = result.e2e;
  e.setup_s = Median(setup);
  e.peak_rss_mb = PeakRssMb();
  e.ops_per_s = Median(ops);
  e.op_p50_ms = Median(s_p50);
  e.op_tail_ms = Median(s_tail);
  e.op2_p50_ms = Median(p_p50);
  e.steady_ratio = Median(steady);
  const std::string per_round = std::to_string(n) + " job runs per round, median of " +
                                std::to_string(result.rounds) + " rounds";
  result.named = {
      {"setup_s", e.setup_s, "s", "RuleCatalog::Build + data for every job"},
      {"peak_rss_mb", e.peak_rss_mb, "MB", ""},
      {"explore_jobs_per_s", e.ops_per_s, "1/s", "both configurations"},
      {"explore_p50_ms", e.op_p50_ms, "ms", "0 threads, POR off; of " + per_round},
      {"explore_p99_ms", e.op_tail_ms, "ms", QuantileLabel(s_q) + " of " + per_round},
      {"explore_par_p50_ms", e.op2_p50_ms, "ms",
       std::to_string(threads) + " threads, POR on; of " + per_round},
      {"explore_par_p99_ms", Median(p_tail), "ms", QuantileLabel(p_q) + " of " + per_round},
      {"explore_steady_ratio", e.steady_ratio, "ratio", "median over jobs of first-repeat / last-repeat time"},
      {"cascade_ms", Median(cascade), "ms", specs.back().name + ", 0 threads, POR off"},
      {"cascade_par_ms", Median(cascade_par), "ms", specs.back().name + ", parallel, POR on"},
  };
  if (config.tracer != nullptr) TracedLayers(*last, config.tracer, &result.layers);
  return result;
}

}  // namespace perfbench
