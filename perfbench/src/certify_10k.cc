// certify_10k: the script text of a GenerateSparseCatalog catalog (10k
// rules, default parameters) is parsed, registered rule by rule into an
// IncrementalAnalyzer (set-up) and analyzed cold. Then comes a seeded
// sequence of one-rule edits (redefine, add, remove) drawn across
// clusters, each followed by Analyze. Rounds repeat until the run's time
// is up; every round starts again from the text.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/incremental.h"
#include "checks.h"
#include "common/metrics.h"
#include "testing/oracles.h"
#include "workload/random_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using starburst::GeneratedRuleSet;
using starburst::IncrementalAnalyzer;
using starburst::Result;
using starburst::RuleDef;
using starburst::SplitMix64;
using starburst::Status;

constexpr int kEdits = 1000;
// Cold certifications per round: set-up and cold time are medians of many.
constexpr int kColdPerRound = 3;
constexpr int kFifths = 5;
// The sparse catalogs are not confluent by design (clusters share
// tables); a small violation cap keeps every report the same size.
constexpr int kMaxViolations = 8;

struct Edit {
  enum class Kind { kRedefine, kAdd, kRemove };
  Kind kind = Kind::kAdd;
  std::string name;
  RuleDef rule;  // the new definition (redefine, add)
};

struct Inputs {
  std::string text;
  std::vector<Edit> edits;
  /// A cold analysis of the catalog the edit sequence ends with.
  std::string final_digest;
};

RuleDef Renamed(const RuleDef& donor, const std::string& name) {
  RuleDef rule = donor.Clone();
  rule.name = name;
  rule.precedes.clear();
  rule.follows.clear();
  return rule;
}

Status BuildInputs(uint64_t seed, Inputs* in) {
  starburst::SparseCatalogParams params;
  params.seed = seed;
  GeneratedRuleSet set = starburst::RandomRuleSetGenerator::GenerateSparseCatalog(params);
  in->text = starburst::fuzzing::RuleSetToScript(set);
  starburst::SparseCatalogParams donor_params = params;
  donor_params.seed = seed ^ 0xa5a5a5a5a5a5ULL;
  GeneratedRuleSet donors =
      starburst::RandomRuleSetGenerator::GenerateSparseCatalog(donor_params);

  // Rules in a priority clause (on either side) are never edited, so no
  // edit leaves a dangling reference.
  std::set<std::string> pinned;
  for (const RuleDef& rule : set.rules) {
    if (!rule.follows.empty() || !rule.precedes.empty()) pinned.insert(rule.name);
    for (const std::string& name : rule.follows) pinned.insert(name);
    for (const std::string& name : rule.precedes) pinned.insert(name);
  }
  std::vector<RuleDef> current;  // mirrors the analyzer's registration order
  std::vector<std::string> editable;
  for (const RuleDef& rule : set.rules) {
    current.push_back(rule.Clone());
    if (pinned.count(rule.name) == 0) editable.push_back(rule.name);
  }
  auto erase = [&](const std::string& name) {
    current.erase(std::find_if(current.begin(), current.end(),
                               [&](const RuleDef& r) { return r.name == name; }));
  };
  SplitMix64 rng(seed * 0xbf58476d1ce4e5b9ULL + 0xed17);
  const int num_donors = static_cast<int>(donors.rules.size());
  for (int e = 0; e < kEdits; ++e) {
    Edit edit;
    const int kind = rng.Below(3);
    const RuleDef& donor = donors.rules[static_cast<size_t>(rng.Below(num_donors))];
    if (kind == 0 || editable.size() < 2) {
      edit.kind = Edit::Kind::kAdd;
      edit.name = "edit" + std::to_string(e);
      edit.rule = Renamed(donor, edit.name);
      current.push_back(edit.rule.Clone());
      editable.push_back(edit.name);
    } else {
      const size_t victim = static_cast<size_t>(rng.Below(static_cast<int>(editable.size())));
      edit.name = editable[victim];
      erase(edit.name);
      if (kind == 1) {
        edit.kind = Edit::Kind::kRemove;
        editable[victim] = editable.back();
        editable.pop_back();
      } else {
        edit.kind = Edit::Kind::kRedefine;
        edit.rule = Renamed(donor, edit.name);
        current.push_back(edit.rule.Clone());
      }
    }
    in->edits.push_back(std::move(edit));
  }

  IncrementalAnalyzer cold(set.schema.get());
  for (RuleDef& rule : current) {
    if (Status added = cold.AddRule(std::move(rule)); !added.ok()) return added;
  }
  Result<IncrementalAnalyzer::RunResult> analyzed = cold.Analyze({}, kMaxViolations);
  if (!analyzed.ok()) return analyzed.status();
  in->final_digest = ReportDigest(analyzed.value());
  return Status::OK();
}

struct Round {
  std::string error;
  std::vector<double> setup_s;  // per cold certification
  std::vector<double> cold_s;
  int64_t failed = 0;
  std::vector<double> edit_ms;
  std::string digest;
  starburst::IncrementalStats stats;  // summed over edits
  double pool_chunks = 0;
  double pool_task_us = 0;
};

Round RunRound(const Inputs& in, Tracer* tracer) {
  Round round;
  TraceLane* lane = tracer ? tracer->NewLane("certify") : nullptr;
  std::optional<starburst::metrics::ScopedCollect> collect;
  if (tracer != nullptr) {
    starburst::metrics::Reset();
    collect.emplace();
  }
  // The edits run on the analyzer of the last cold certification; the
  // analyzer points into its rule set's schema, so both are kept.
  std::optional<GeneratedRuleSet> set;
  std::optional<IncrementalAnalyzer> inc;
  for (int k = 0; k < kColdPerRound; ++k) {
    inc.reset();
    const int64_t start = NowNs();
    {
      Span span(lane, "rulelang.parse", k);
      Result<GeneratedRuleSet> parsed = starburst::fuzzing::ParseRuleSetScript(in.text);
      if (!parsed.ok()) {
        round.error = "parse: " + parsed.status().ToString();
        return round;
      }
      set.emplace(std::move(parsed).value());
    }
    inc.emplace(set->schema.get());
    {
      Span span(lane, "analysis.register", k);
      for (RuleDef& rule : set->rules) {
        if (Status added = inc->AddRule(std::move(rule)); !added.ok()) {
          round.error = "register: " + added.ToString();
          return round;
        }
      }
    }
    round.setup_s.push_back(SecondsSince(start));
    {
      Span span(lane, "analysis.analyze_cold", k);
      Result<IncrementalAnalyzer::RunResult> cold = inc->Analyze({}, kMaxViolations);
      if (!cold.ok()) {
        round.error = "cold analyze: " + cold.status().ToString();
        return round;
      }
    }
    round.cold_s.push_back(SecondsSince(start));
  }
  if (tracer != nullptr) {
    collect.reset();
    const starburst::metrics::Snapshot snapshot = starburst::metrics::Collect();
    for (const auto& [name, value] : snapshot.counters) {
      if (name == "pool.chunks") round.pool_chunks = static_cast<double>(value) / kColdPerRound;
    }
    for (const starburst::metrics::HistogramSnapshot& h : snapshot.histograms) {
      if (h.name == "pool.task_latency_us" && h.count > 0) {
        round.pool_task_us = static_cast<double>(h.sum) / static_cast<double>(h.count);
      }
    }
  }

  for (size_t e = 0; e < in.edits.size(); ++e) {
    const Edit& edit = in.edits[e];
    const int64_t id = static_cast<int64_t>(e);
    std::optional<RuleDef> rule;
    if (edit.kind != Edit::Kind::kRemove) rule.emplace(edit.rule.Clone());
    const int64_t t0 = NowNs();
    Span span(lane, "edit", id);
    Status status = Status::OK();
    if (edit.kind != Edit::Kind::kAdd) {
      Span inner(lane, "analysis.remove", id);
      status = inc->RemoveRule(edit.name);
    }
    if (status.ok() && rule.has_value()) {
      Span inner(lane, "analysis.add", id);
      status = inc->AddRule(std::move(*rule));
    }
    std::optional<Result<IncrementalAnalyzer::RunResult>> analyzed;
    if (status.ok()) {
      Span inner(lane, "analysis.reanalyze", id);
      analyzed.emplace(inc->Analyze({}, kMaxViolations));
    }
    round.edit_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!analyzed.has_value() || !analyzed->ok()) {
      ++round.failed;
      continue;
    }
    const starburst::IncrementalStats& s = analyzed->value().stats;
    round.stats.pair_checks_computed += s.pair_checks_computed;
    round.stats.pair_checks_reused += s.pair_checks_reused;
    round.stats.termination_components_recomputed += s.termination_components_recomputed;
    round.stats.termination_components_reused += s.termination_components_reused;
    if (e + 1 == in.edits.size()) round.digest = ReportDigest(analyzed->value());
  }
  return round;
}

}  // namespace

PassResult RunCertify10k(const PassConfig& config) {
  PassResult result;
  Inputs in;
  if (Status built = BuildInputs(config.seed, &in); !built.ok()) {
    result.mismatch = "input generation: " + built.ToString();
    return result;
  }
  result.threads_note = "ThreadPool: " + std::to_string(config.threads) + " threads";

  std::vector<double> setup, cold, ops, p50, tail, steady;
  double q = 0.5;
  size_t n = 0;
  std::optional<Round> last;
  const int64_t start = NowNs();
  while (result.rounds == 0 || SecondsSince(start) < config.seconds) {
    Round round = RunRound(in, config.tracer);
    ++result.rounds;
    if (!round.error.empty()) {
      result.mismatch = round.error;
      return result;
    }
    result.attempted += static_cast<int64_t>(round.edit_ms.size()) + kColdPerRound;
    result.failed += round.failed;
    if (config.tamper == "report" && !round.digest.empty()) {
      round.digest[round.digest.size() / 2] ^= 0x01;
    }
    if (result.mismatch.empty()) result.mismatch = CheckCertify(round.digest, in.final_digest);
    Summary s = Summarize(round.edit_ms);
    double edit_s = 0;
    for (double ms : round.edit_ms) edit_s += ms / 1e3;
    // Median edit time of the first fifth over that of the last fifth:
    // last-fifth / first-fifth edits per second, robust to single stalls.
    const auto fifth = static_cast<std::ptrdiff_t>(round.edit_ms.size() / kFifths);
    const double first = Median({round.edit_ms.begin(), round.edit_ms.begin() + fifth});
    const double last_fifth = Median({round.edit_ms.end() - fifth, round.edit_ms.end()});
    setup.insert(setup.end(), round.setup_s.begin(), round.setup_s.end());
    cold.insert(cold.end(), round.cold_s.begin(), round.cold_s.end());
    ops.push_back(static_cast<double>(round.edit_ms.size()) / edit_s);
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    steady.push_back(first / last_fifth);
    q = s.tail_quantile;
    n = s.count;
    last.emplace(std::move(round));
  }

  EndToEnd& e = result.e2e;
  e.setup_s = Median(setup);
  e.peak_rss_mb = PeakRssMb();
  e.ops_per_s = Median(ops);
  e.op_p50_ms = Median(p50);
  e.op_tail_ms = Median(tail);
  e.op2_p50_ms = Median(cold) * 1e3;
  e.steady_ratio = Median(steady);
  const std::string per_round = std::to_string(n) + " edits per round, median of " +
                                std::to_string(result.rounds) + " rounds";
  const std::string colds = "median of " + std::to_string(cold.size());
  result.named = {
      {"setup_s", e.setup_s, "s", "script text to a registered IncrementalAnalyzer, " + colds},
      {"peak_rss_mb", e.peak_rss_mb, "MB", ""},
      {"certify_cold_s", Median(cold), "s", "script text to first verdict, " + colds},
      {"recertify_per_s", e.ops_per_s, "1/s", "edits + Analyze"},
      {"recertify_p50_ms", e.op_p50_ms, "ms", "of " + per_round},
      {"recertify_p99_ms", e.op_tail_ms, "ms", QuantileLabel(q) + " of " + per_round},
      {"recertify_steady_ratio", e.steady_ratio, "ratio", "median edit of the first fifth / of the last fifth"},
  };

  if (config.tracer != nullptr) {
    const Round& r = *last;
    const auto totals = config.tracer->Totals();
    auto ms = [&](const char* name) {
      return static_cast<double>(Lookup(totals, name).total_ns) / 1e6;
    };
    auto mean_us = [&](const char* name) { return Lookup(totals, name).MeanUs(); };
    auto mean_ms = [&](const char* name) { return mean_us(name) / 1e3; };
    const double edits = static_cast<double>(std::max<size_t>(1, r.edit_ms.size()));
    result.layers = {
        {"rulelang.parse_ms", mean_ms("rulelang.parse"), "ms", "ParseRuleSetScript of the catalog text"},
        {"analysis.register_ms", mean_ms("analysis.register"), "ms", "AddRule x N"},
        {"analysis.analyze_cold_ms", mean_ms("analysis.analyze_cold"), "ms", "first Analyze"},
        {"analysis.remove_us", mean_us("analysis.remove"), "us", "RemoveRule per edit"},
        {"analysis.add_us", mean_us("analysis.add"), "us", "AddRule per edit"},
        {"analysis.reanalyze_us", mean_us("analysis.reanalyze"), "us", "Analyze per edit"},
        {"analysis.pairs_computed", static_cast<double>(r.stats.pair_checks_computed) / edits,
         "count", "per edit"},
        {"analysis.pairs_reused", static_cast<double>(r.stats.pair_checks_reused) / edits, "count",
         "per edit"},
        {"analysis.components_recomputed",
         static_cast<double>(r.stats.termination_components_recomputed) / edits, "count",
         "per edit"},
        {"analysis.components_reused",
         static_cast<double>(r.stats.termination_components_reused) / edits, "count", "per edit"},
        {"pool.chunks", r.pool_chunks, "count", "per cold certification"},
        {"pool.task_latency_us", r.pool_task_us, "us", "mean, cold certifications"},
        {"certify_10k.layer_coverage",
         (ms("analysis.remove") + ms("analysis.add") + ms("analysis.reanalyze")) / ms("edit"),
         "ratio", "remove + add + Analyze spans over edit spans"},
    };
  }
  return result;
}

}  // namespace perfbench
