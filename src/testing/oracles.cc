#include "testing/oracles.h"

#include <utility>

#include "analysis/analyzer.h"
#include "analysis/incremental.h"
#include "analysis/json_report.h"
#include "analysis/observable.h"
#include "analysis/priority.h"
#include "analysis/termination.h"
#include "common/thread_pool.h"
#include "engine/serialize.h"
#include "rulelang/parser.h"
#include "rulelang/printer.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"
#include "testing/reference_explorer.h"

namespace starburst {
namespace fuzzing {

namespace {

constexpr const char* kOracleNames[kNumOracles] = {
    "termination_sound",
    "confluence_sound",
    "observable_determinism_sound",
    "backend_equivalence",
    "round_trip",
    "delta_equivalence",
    "por_equivalence",
    "incremental_equivalence",
    "witness_replay",
};

OracleOutcome Pass() { return {OracleVerdict::kPass, ""}; }
OracleOutcome Skip(std::string why) {
  return {OracleVerdict::kSkip, std::move(why)};
}
OracleOutcome Fail(std::string what) {
  return {OracleVerdict::kFail, std::move(what)};
}

/// Thin alias so the oracle bodies below read tersely; the setup itself is
/// the public PrepareOracleCase (shared with tools/explain and the witness
/// golden corpus).
Result<OracleCase> Prepare(const GeneratedRuleSet& set, uint64_t data_seed,
                           const OracleOptions& options) {
  return PrepareOracleCase(set, data_seed, options);
}

ExplorerOptions ExploreOptions(const OracleOptions& options) {
  ExplorerOptions eo;
  eo.max_depth = options.max_depth;
  eo.max_total_steps = options.max_total_steps;
  return eo;
}

OracleOutcome TerminationSound(const GeneratedRuleSet& set,
                               uint64_t data_seed,
                               const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  TerminationReport verdict =
      TerminationAnalyzer::Analyze(prepared.value().catalog.prelim());
  if (!verdict.guaranteed) return Skip("termination not guaranteed");
  auto result =
      Explorer::Explore(prepared.value().catalog, prepared.value().db,
                        prepared.value().initial, ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().may_not_terminate) {
    return Fail("termination-guaranteed set has an execution cycle");
  }
  return Pass();
}

OracleOutcome ConfluenceSound(const GeneratedRuleSet& set, uint64_t data_seed,
                              const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
  CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());
  ConfluenceAnalyzer analyzer(commutativity, catalog.priority());
  ConfluenceReport verdict = analyzer.Analyze(term.guaranteed);
  if (!verdict.confluent) return Skip("no confluence certificate");
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial,
                                  ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().may_not_terminate) {
    return Fail("confluent-certified set has an execution cycle");
  }
  if (result.value().final_states.size() != 1) {
    return Fail("confluent-certified set reached " +
                std::to_string(result.value().final_states.size()) +
                " distinct final states");
  }
  return Pass();
}

OracleOutcome ObservableDeterminismSound(const GeneratedRuleSet& set,
                                         uint64_t data_seed,
                                         const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  TerminationReport term = TerminationAnalyzer::Analyze(catalog.prelim());
  ObservableDeterminismReport verdict = ObservableDeterminismAnalyzer::Analyze(
      catalog.schema(), catalog.prelim(), catalog.priority(), {},
      term.guaranteed);
  if (!verdict.deterministic) return Skip("no determinism certificate");
  if (verdict.observable_rules.empty()) return Skip("no observable rules");
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial,
                                  ExploreOptions(options));
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  if (result.value().observable_streams.size() > 1) {
    return Fail("determinism-certified set produced " +
                std::to_string(result.value().observable_streams.size()) +
                " distinct observable streams");
  }
  return Pass();
}

OracleOutcome BackendEquivalence(const GeneratedRuleSet& set,
                                 uint64_t data_seed,
                                 const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  // Analysis: FullReportToJson must be bit-identical for every pool size.
  int original_threads = ThreadPool::Default().num_threads();
  std::string reference_json;
  std::string divergence;
  for (size_t i = 0; i < options.backend_thread_counts.size(); ++i) {
    ThreadPool::SetDefaultThreadCount(options.backend_thread_counts[i]);
    std::vector<RuleDef> rules;
    for (const RuleDef& r : set.rules) rules.push_back(r.Clone());
    auto analyzer = Analyzer::Create(set.schema.get(), std::move(rules));
    if (!analyzer.ok()) {
      divergence = analyzer.status().ToString();
      break;
    }
    std::string json = FullReportToJson(analyzer.value().AnalyzeAll(8),
                                        analyzer.value().catalog());
    if (i == 0) {
      reference_json = std::move(json);
    } else if (json != reference_json) {
      divergence = "FullReportToJson differs between " +
                   std::to_string(options.backend_thread_counts[0]) + " and " +
                   std::to_string(options.backend_thread_counts[i]) +
                   " analysis threads";
      break;
    }
  }
  ThreadPool::SetDefaultThreadCount(original_threads);
  if (!divergence.empty()) return Fail(divergence);

  // Explorer: one worker vs every work-stealing pool size must agree on
  // the final-state set, the observable streams, both verdicts, and the
  // visit accounting — UNCONDITIONALLY. The parallel engine shares one
  // atomic step budget and one interner, and any bound trip aborts the
  // parallel attempt and reruns the core at one worker, so even truncated
  // enumerations must be bit-identical.
  ExplorerOptions classic_options = ExploreOptions(options);
  auto classic = Explorer::Explore(prepared.value().catalog,
                                   prepared.value().db,
                                   prepared.value().initial, classic_options);
  if (!classic.ok()) return Fail(classic.status().ToString());
  for (int threads : options.backend_thread_counts) {
    ExplorerOptions stealing_options = classic_options;
    stealing_options.num_threads = threads;
    auto stealing = Explorer::Explore(
        prepared.value().catalog, prepared.value().db,
        prepared.value().initial, stealing_options);
    if (!stealing.ok()) return Fail(stealing.status().ToString());
    std::string where = "work-stealing explorer (num_threads=" +
                        std::to_string(threads) + ") diverged from classic: ";
    if (stealing.value().complete != classic.value().complete) {
      return Fail(where + "completeness differs");
    }
    if (stealing.value().final_states != classic.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (stealing.value().observable_streams !=
        classic.value().observable_streams) {
      return Fail(where + "observable-stream sets differ");
    }
    if (stealing.value().may_not_terminate !=
        classic.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
    if (stealing.value().steps_taken != classic.value().steps_taken) {
      return Fail(where + "step counts differ");
    }
    if (stealing.value().states_visited != classic.value().states_visited) {
      return Fail(where + "visited-state counts differ");
    }
  }
  return Pass();
}

OracleOutcome DeltaEquivalence(const GeneratedRuleSet& set,
                               uint64_t data_seed,
                               const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  // Full analysis report, rendered before any exploration and again after
  // the whole sweep: exploration must not perturb analysis results (it
  // shares the catalog, schema, and the databases' mutable canonical-string
  // caches).
  auto report_json = [&set]() -> Result<std::string> {
    std::vector<RuleDef> rules;
    for (const RuleDef& r : set.rules) rules.push_back(r.Clone());
    auto analyzer = Analyzer::Create(set.schema.get(), std::move(rules));
    if (!analyzer.ok()) return analyzer.status();
    return FullReportToJson(analyzer.value().AnalyzeAll(8),
                            analyzer.value().catalog());
  };
  auto before = report_json();
  if (!before.ok()) return Fail(before.status().ToString());

  // Reference: the string-keyed, copy-per-branch walk, which enumerates
  // every order — so POR is pinned off on the engine side too.
  ExplorerOptions engine_options = ExploreOptions(options);
  engine_options.por = ExplorerOptions::PorMode::kOff;
  auto reference =
      ReferenceExplore(prepared.value().catalog, prepared.value().db,
                       prepared.value().initial, engine_options);
  if (!reference.ok()) return Fail(reference.status().ToString());

  // Sweep: the engine in classic mode (num_threads=0) and at every
  // work-stealing pool size. The parallel engine either completes with a
  // provably classic-identical enumeration or falls back to the classic
  // walk, so every leg of the sweep is compared unconditionally —
  // truncated runs included.
  std::vector<int> sweep = {0};
  sweep.insert(sweep.end(), options.backend_thread_counts.begin(),
               options.backend_thread_counts.end());
  for (int threads : sweep) {
    engine_options.num_threads = threads;
    auto engine = Explorer::Explore(prepared.value().catalog,
                                    prepared.value().db,
                                    prepared.value().initial, engine_options);
    if (!engine.ok()) return Fail(engine.status().ToString());
    std::string where = "undo-log explorer (num_threads=" +
                        std::to_string(threads) +
                        ") diverged from the reference walk: ";
    if (engine.value().complete != reference.value().complete) {
      return Fail(where + "completeness differs");
    }
    if (engine.value().final_states != reference.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (engine.value().observable_streams !=
        reference.value().observable_streams) {
      return Fail(where + "observable-stream sets differ");
    }
    if (engine.value().may_not_terminate !=
        reference.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
    // Equal counts mean the fingerprint equivalence classes match the
    // canonical-string classes exactly; the shared interner keeps the
    // count pool-size-invariant, so the check covers every leg.
    if (engine.value().states_visited != reference.value().states_visited) {
      return Fail(where + "visited-state counts differ");
    }
    if (engine.value().steps_taken != reference.value().steps_taken) {
      return Fail(where + "step counts differ");
    }
  }

  // Dedup leg: the visit-once search reaches every reachable state and
  // finds a back edge exactly when a reachable cycle exists, and its walk
  // is the full walk minus skipped subtrees — so when the full enumeration
  // completes, it completes too, with the same final states and
  // termination verdict, in no more steps.
  if (reference.value().complete) {
    engine_options.num_threads = 0;
    engine_options.dedup_subtrees = true;
    auto dedup = Explorer::Explore(prepared.value().catalog,
                                   prepared.value().db,
                                   prepared.value().initial, engine_options);
    if (!dedup.ok()) return Fail(dedup.status().ToString());
    const std::string where =
        "visit-once explorer (dedup_subtrees) diverged from the reference "
        "walk: ";
    if (!dedup.value().complete) {
      return Fail(where + "incomplete where the full enumeration completes");
    }
    if (dedup.value().final_states != reference.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (dedup.value().may_not_terminate !=
        reference.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
    if (dedup.value().steps_taken > reference.value().steps_taken) {
      return Fail(where + "more steps than the full enumeration");
    }
  }

  auto after = report_json();
  if (!after.ok()) return Fail(after.status().ToString());
  if (after.value() != before.value()) {
    return Fail(
        "FullReportToJson is not bit-identical before and after "
        "exploration");
  }
  return Pass();
}

/// Differential check of commutativity-guided partial-order reduction
/// (ExplorerOptions::por): the reduced exploration must reach exactly the
/// final states, observable streams, and may-not-terminate verdict of the
/// full enumeration — classic and at every parallel worker count. POR only
/// prunes paths, so a complete full enumeration implies a complete POR
/// enumeration; the converse budget trips are impossible by construction
/// and are treated as failures.
OracleOutcome PorEquivalence(const GeneratedRuleSet& set, uint64_t data_seed,
                             const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());

  ExplorerOptions full_options = ExploreOptions(options);
  full_options.por = ExplorerOptions::PorMode::kOff;
  auto full = Explorer::Explore(prepared.value().catalog, prepared.value().db,
                                prepared.value().initial, full_options);
  if (!full.ok()) return Fail(full.status().ToString());
  if (!full.value().complete) return Skip("exploration budget exhausted");

  ExplorerOptions por_options = full_options;
  por_options.por = ExplorerOptions::PorMode::kCommute;
  auto por = Explorer::Explore(prepared.value().catalog, prepared.value().db,
                               prepared.value().initial, por_options);
  if (!por.ok()) return Fail(por.status().ToString());
  if (!por.value().complete) {
    return Fail("POR exploration incomplete where the full enumeration is "
                "complete (reduction may only prune paths)");
  }
  if (por.value().final_states != full.value().final_states) {
    return Fail("POR changed the final-state set");
  }
  if (por.value().observable_streams != full.value().observable_streams) {
    return Fail("POR changed the observable-stream set");
  }
  if (por.value().may_not_terminate != full.value().may_not_terminate) {
    return Fail("POR changed the may-not-terminate verdict");
  }

  // The reduction must also commute with the work-stealing engine: every
  // worker count sees the same reduced tree. The one-worker POR walk was
  // complete, so the parallel run — which explores the identical reduced
  // tree under the same shared budget, or falls back to one worker —
  // must be complete too; incompleteness is a bug, not a skip.
  for (int threads : options.backend_thread_counts) {
    ExplorerOptions stealing_options = por_options;
    stealing_options.num_threads = threads;
    auto stealing = Explorer::Explore(prepared.value().catalog,
                                      prepared.value().db,
                                      prepared.value().initial,
                                      stealing_options);
    if (!stealing.ok()) return Fail(stealing.status().ToString());
    std::string where = "work-stealing POR explorer (num_threads=" +
                        std::to_string(threads) +
                        ") diverged from the full enumeration: ";
    if (!stealing.value().complete) {
      return Fail(where + "incomplete where the classic POR walk completed");
    }
    if (stealing.value().final_states != full.value().final_states) {
      return Fail(where + "final-state sets differ");
    }
    if (stealing.value().observable_streams !=
        full.value().observable_streams) {
      return Fail(where + "observable-stream sets differ");
    }
    if (stealing.value().may_not_terminate !=
        full.value().may_not_terminate) {
      return Fail(where + "termination verdicts differ");
    }
  }
  return Pass();
}

/// One full-vs-incremental comparison at a given violation cap, both sides
/// under the same certifications: verdicts, reports field-for-field, and
/// the pair matrix must be identical. Returns an empty string on
/// agreement, else the mismatch.
std::string CompareFullVsIncremental(
    const Schema& schema, const std::vector<RuleDef>& current,
    const TerminationCertifications& quiescent,
    const CommutativityCertifications& commute, IncrementalAnalyzer* inc,
    int max_violations) {
  // From-scratch reference analysis.
  Status full_status = Status::OK();
  auto prelim = PrelimAnalysis::Compute(schema, current);
  if (!prelim.ok()) full_status = prelim.status();
  std::optional<PriorityOrder> priority;
  if (full_status.ok()) {
    auto built = PriorityOrder::Build(prelim.value(), current);
    if (built.ok()) {
      priority = std::move(built).value();
    } else {
      full_status = built.status();
    }
  }
  auto run = inc->Analyze(quiescent, max_violations);
  if (!full_status.ok() || !run.ok()) {
    // Rejected states (e.g. a dangling follows left by a removal) must be
    // rejected identically by both paths.
    if (full_status.ok() != run.ok()) {
      return "analyzability differs: full='" +
             (full_status.ok() ? std::string("ok") : full_status.ToString()) +
             "' incremental='" +
             (run.ok() ? std::string("ok") : run.status().ToString()) + "'";
    }
    if (full_status.ToString() != run.status().ToString()) {
      return "rejection differs: full='" + full_status.ToString() +
             "' incremental='" + run.status().ToString() + "'";
    }
    return "";
  }

  CommutativityAnalyzer commutativity(prelim.value(), schema, commute);
  TerminationReport term =
      TerminationAnalyzer::Analyze(prelim.value(), quiescent);
  ConfluenceAnalyzer confluence(commutativity, *priority);
  ConfluenceReport conf = confluence.Analyze(term.guaranteed, max_violations);

  const TerminationReport& iterm = run.value().termination;
  const ConfluenceReport& iconf = run.value().confluence;
  std::string where = " (max_violations=" + std::to_string(max_violations) +
                      ")";
  if (term.guaranteed != iterm.guaranteed ||
      term.acyclic != iterm.acyclic) {
    return "termination verdict differs" + where;
  }
  if (term.cycles.size() != iterm.cycles.size()) {
    return "cycle-report counts differ" + where;
  }
  for (size_t k = 0; k < term.cycles.size(); ++k) {
    if (term.cycles[k].rules != iterm.cycles[k].rules ||
        term.cycles[k].certified != iterm.cycles[k].certified ||
        term.cycles[k].discharged != iterm.cycles[k].discharged) {
      return "cycle report " + std::to_string(k) + " differs" + where;
    }
  }
  if (conf.requirement_holds != iconf.requirement_holds ||
      conf.confluent != iconf.confluent) {
    return "confluence verdict differs" + where;
  }
  if (conf.unordered_pairs_checked != iconf.unordered_pairs_checked) {
    return "unordered_pairs_checked differs: full=" +
           std::to_string(conf.unordered_pairs_checked) + " incremental=" +
           std::to_string(iconf.unordered_pairs_checked) + where;
  }
  if (conf.max_set_size != iconf.max_set_size) {
    return "max_set_size differs" + where;
  }
  if (conf.violations.size() != iconf.violations.size()) {
    return "violation counts differ: full=" +
           std::to_string(conf.violations.size()) + " incremental=" +
           std::to_string(iconf.violations.size()) + where;
  }
  for (size_t k = 0; k < conf.violations.size(); ++k) {
    const ConfluenceViolation& a = conf.violations[k];
    const ConfluenceViolation& b = iconf.violations[k];
    bool causes_equal = a.causes.size() == b.causes.size();
    for (size_t c = 0; causes_equal && c < a.causes.size(); ++c) {
      causes_equal = a.causes[c].condition == b.causes[c].condition &&
                     a.causes[c].actor == b.causes[c].actor &&
                     a.causes[c].affected == b.causes[c].affected;
    }
    if (a.pair_i != b.pair_i || a.pair_j != b.pair_j || a.r1 != b.r1 ||
        a.r2 != b.r2 || a.set_r1 != b.set_r1 || a.set_r2 != b.set_r2 ||
        !causes_equal) {
      return "violation " + std::to_string(k) + " differs" + where;
    }
  }
  // Pair matrix: valid only after a successful Analyze (dirty pairs were
  // just swept).
  int n = prelim.value().num_rules();
  for (RuleIndex i = 0; i < n; ++i) {
    for (RuleIndex j = i + 1; j < n; ++j) {
      if (commutativity.Commute(i, j) != inc->PairCommutes(i, j)) {
        return "pair ('" + prelim.value().rule(i).name + "', '" +
               prelim.value().rule(j).name + "') commutativity differs" +
               where;
      }
    }
  }
  return "";
}

/// Full-vs-incremental equivalence across a seeded edit sequence: register
/// every rule one at a time, then apply removes / re-adds / redefinitions
/// drawn from data_seed, comparing the incremental analyzer against a
/// from-scratch analysis after every edit (at an unlimited and a truncated
/// violation cap, pinning the truncation semantics too). Both sides get
/// the same seeded quiescent and commutativity certifications, drawn from
/// the initial rule names (so some name removed rules), which exercises the
/// termination component cache and certified pairs. The sequence is long
/// enough for retired slots to outnumber the live rules, so many seeds
/// also compare right after a compaction.
OracleOutcome IncrementalEquivalence(const GeneratedRuleSet& set,
                                     uint64_t data_seed) {
  if (set.rules.empty()) return Skip("no rules");
  const Schema& schema = *set.schema;
  SplitMix64 cert_rng(data_seed ^ 0x5eedce27ULL);
  TerminationCertifications quiescent;
  CommutativityCertifications commute;
  const int num_initial = static_cast<int>(set.rules.size());
  for (const RuleDef& rule : set.rules) {
    if (cert_rng.Below(2) == 0) quiescent.quiescent_rules.insert(rule.name);
    const RuleDef& other = set.rules[cert_rng.Below(num_initial)];
    if (cert_rng.Below(3) == 0 && other.name != rule.name) {
      commute.Certify(rule.name, other.name);
    }
  }
  IncrementalAnalyzer inc(set.schema.get(), commute);
  std::vector<RuleDef> current;  // mirrors inc's registration order
  for (const RuleDef& rule : set.rules) {
    Status st = inc.AddRule(rule.Clone());
    if (!st.ok()) {
      // Incremental registration requires priority references to point
      // backwards; hand-written sets may order rules otherwise.
      if (st.message().find("unknown rule") != std::string::npos) {
        return Skip("not incrementally registrable: " + st.ToString());
      }
      return Fail("AddRule rejected a valid rule: " + st.ToString());
    }
    current.push_back(rule.Clone());
  }

  SplitMix64 rng(data_seed ^ 0x19c53a11edULL);
  std::vector<RuleDef> removed_pool;
  auto compare_both = [&]() -> std::string {
    for (int cap : {-1, 2}) {
      std::string mismatch = CompareFullVsIncremental(
          schema, current, quiescent, commute, &inc, cap);
      if (!mismatch.empty()) return mismatch;
    }
    if (inc.num_rules() != static_cast<int>(current.size())) {
      return "rule counts diverged";
    }
    return "";
  };
  std::string mismatch = compare_both();
  if (!mismatch.empty()) return Fail("after initial build: " + mismatch);

  constexpr int kEdits = 16;
  for (int e = 0; e < kEdits; ++e) {
    int kind = rng.Below(3);
    std::string step;
    if (kind == 0 && !current.empty()) {
      // Remove a random rule (other rules' references to it go dangling —
      // both analyses must then reject identically).
      int victim = rng.Below(static_cast<int>(current.size()));
      step = "remove '" + current[victim].name + "'";
      Status st = inc.RemoveRule(current[victim].name);
      if (!st.ok()) return Fail(step + " failed: " + st.ToString());
      removed_pool.push_back(std::move(current[victim]));
      current.erase(current.begin() + victim);
    } else if (kind == 1 && !removed_pool.empty()) {
      // Re-add a removed rule (same name, same body).
      RuleDef rule = std::move(removed_pool.back());
      removed_pool.pop_back();
      step = "re-add '" + rule.name + "'";
      Status st = inc.AddRule(rule.Clone());
      // May legitimately fail (its own references may now dangle); the
      // state is unchanged then and stays comparable.
      if (st.ok()) current.push_back(std::move(rule));
    } else if (!current.empty()) {
      // Redefine: same name, body borrowed from another rule — stale pair
      // verdicts for the old definition must not survive.
      int victim = rng.Below(static_cast<int>(current.size()));
      int donor = rng.Below(static_cast<int>(current.size()));
      RuleDef redefined = current[donor].Clone();
      redefined.name = current[victim].name;
      redefined.precedes.clear();
      redefined.follows.clear();
      step = "redefine '" + redefined.name + "'";
      Status st = inc.RemoveRule(redefined.name);
      if (!st.ok()) return Fail(step + " failed: " + st.ToString());
      current.erase(current.begin() + victim);
      st = inc.AddRule(redefined.Clone());
      if (!st.ok()) return Fail(step + " re-add failed: " + st.ToString());
      current.push_back(std::move(redefined));
    } else {
      continue;
    }
    mismatch = compare_both();
    if (!mismatch.empty()) return Fail("after " + step + ": " + mismatch);
  }
  return Pass();
}

OracleOutcome RoundTrip(const GeneratedRuleSet& set) {
  for (const RuleDef& rule : set.rules) {
    std::string text = RuleToString(rule);
    auto parsed = Parser::ParseRule(text);
    if (!parsed.ok()) {
      return Fail("printed rule '" + rule.name +
                  "' does not reparse: " + parsed.status().ToString());
    }
    if (RuleToString(parsed.value()) != text) {
      return Fail("print->parse->print not a fixpoint for rule '" +
                  rule.name + "'");
    }
  }
  std::string script = RuleSetToScript(set);
  auto reloaded = ParseRuleSetScript(script);
  if (!reloaded.ok()) {
    return Fail("serialized script does not reload: " +
                reloaded.status().ToString());
  }
  if (RuleSetToScript(reloaded.value()) != script) {
    return Fail("script serialization not a fixpoint");
  }
  std::vector<RuleDef> rules = std::move(reloaded.value().rules);
  auto catalog =
      RuleCatalog::Build(reloaded.value().schema.get(), std::move(rules));
  if (!catalog.ok()) {
    return Fail("reloaded script does not compile: " +
                catalog.status().ToString());
  }
  return Pass();
}

/// Witness options mirroring the oracle's exploration budgets, so
/// reconstruction can afford exactly the walk the explorer could.
WitnessOptions WitnessOptionsFrom(const OracleOptions& options) {
  WitnessOptions wo;
  wo.max_depth = options.max_depth;
  wo.max_total_steps = options.max_total_steps;
  return wo;
}

/// The divergence-provenance contract: a divergent exploration (>= 2 final
/// states or observable streams) must produce a witness whose sequences
/// replay to exactly the divergent outcomes; a non-divergent one must
/// produce none. Runs with POR forced off so the verdict is independent of
/// the STARBURST_POR environment.
OracleOutcome WitnessReplay(const GeneratedRuleSet& set, uint64_t data_seed,
                            const OracleOptions& options) {
  auto prepared = Prepare(set, data_seed, options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  const RuleCatalog& catalog = prepared.value().catalog;
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  auto result = Explorer::Explore(catalog, prepared.value().db,
                                  prepared.value().initial, eo);
  if (!result.ok()) return Fail(result.status().ToString());
  if (!result.value().complete) return Skip("exploration budget exhausted");
  bool divergent = result.value().final_states.size() >= 2 ||
                   (result.value().streams_evaluated &&
                    result.value().observable_streams.size() >= 2);
  auto extraction =
      ExtractWitness(catalog, prepared.value().db, prepared.value().initial,
                     result.value(), WitnessOptionsFrom(options));
  if (!extraction.ok()) return Fail(extraction.status().ToString());
  switch (extraction.value().status) {
    case WitnessStatus::kNotEvaluated:
      return Skip("witness not evaluated: " + extraction.value().note);
    case WitnessStatus::kNone:
      if (divergent) {
        return Fail("divergent exploration produced no witness");
      }
      return Pass();
    case WitnessStatus::kFound: {
      if (!divergent) {
        return Fail("non-divergent exploration produced a witness");
      }
      auto replay =
          ReplayWitness(catalog, prepared.value().db,
                        prepared.value().initial, extraction.value().witness);
      if (!replay.ok()) return Fail(replay.status().ToString());
      if (!replay.value().ok) {
        return Fail("witness replay failed: " + replay.value().message);
      }
      return Pass();
    }
  }
  return Skip("unreachable");
}

}  // namespace

Result<OracleCase> PrepareOracleCase(const GeneratedRuleSet& set,
                                     uint64_t data_seed,
                                     const OracleOptions& options) {
  std::vector<RuleDef> rules;
  rules.reserve(set.rules.size());
  for (const RuleDef& r : set.rules) rules.push_back(r.Clone());
  auto catalog = RuleCatalog::Build(set.schema.get(), std::move(rules));
  if (!catalog.ok()) return catalog.status();

  Database db(set.schema.get());
  STARBURST_RETURN_IF_ERROR(
      PopulateRandomDatabase(&db, options.rows_per_table, data_seed));

  OracleCase prepared(std::move(catalog).value(), std::move(db));
  const Schema& schema = *set.schema;
  SplitMix64 rng(data_seed ^ 0xf022c45eedULL);
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    Tuple tuple(schema.table(t).num_columns(),
                Value::Int(static_cast<int64_t>(rng.Below(4))));
    auto rid = prepared.db.storage(t).Insert(tuple);
    if (!rid.ok()) return rid.status();
    STARBURST_RETURN_IF_ERROR(
        prepared.initial.ForTable(t).ApplyInsert(rid.value(), tuple));
  }
  if (schema.num_tables() > 0) {
    TableId updated = static_cast<TableId>(data_seed % schema.num_tables());
    TableStorage& storage = prepared.db.storage(updated);
    int64_t value = static_cast<int64_t>(rng.Below(4));
    std::vector<std::pair<Rid, Tuple>> updates;
    for (const auto& [rid, tuple] : storage.rows()) {
      Tuple next = tuple;
      next[0] = Value::Int(value);
      if (!(next[0] == tuple[0])) updates.emplace_back(rid, std::move(next));
    }
    for (auto& [rid, next] : updates) {
      Tuple old_tuple = *storage.Get(rid);
      STARBURST_RETURN_IF_ERROR(storage.Update(rid, next));
      STARBURST_RETURN_IF_ERROR(prepared.initial.ForTable(updated).ApplyUpdate(
          rid, std::move(old_tuple), std::move(next)));
    }

    TableId deleted =
        static_cast<TableId>((data_seed / 3) % schema.num_tables());
    TableStorage& del_storage = prepared.db.storage(deleted);
    if (!del_storage.rows().empty()) {
      Rid victim = del_storage.rows().begin()->first;
      Tuple old_tuple = *del_storage.Get(victim);
      STARBURST_RETURN_IF_ERROR(del_storage.Delete(victim));
      STARBURST_RETURN_IF_ERROR(
          prepared.initial.ForTable(deleted).ApplyDelete(victim,
                                                         std::move(old_tuple)));
    }
  }
  return prepared;
}

Result<WitnessExtraction> ExtractWitnessForCase(const GeneratedRuleSet& set,
                                                uint64_t data_seed,
                                                const OracleOptions& options) {
  STARBURST_ASSIGN_OR_RETURN(OracleCase prepared,
                             PrepareOracleCase(set, data_seed, options));
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult result,
      Explorer::Explore(prepared.catalog, prepared.db, prepared.initial, eo));
  if (!result.complete) {
    WitnessExtraction extraction;
    extraction.status = WitnessStatus::kNotEvaluated;
    extraction.note = "exploration budget exhausted";
    return extraction;
  }
  return ExtractWitness(prepared.catalog, prepared.db, prepared.initial,
                        result, WitnessOptionsFrom(options));
}

Result<std::string> WitnessJsonForCase(const GeneratedRuleSet& set,
                                       uint64_t data_seed,
                                       const OracleOptions& options) {
  STARBURST_ASSIGN_OR_RETURN(OracleCase prepared,
                             PrepareOracleCase(set, data_seed, options));
  ExplorerOptions eo = ExploreOptions(options);
  eo.por = ExplorerOptions::PorMode::kOff;
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult result,
      Explorer::Explore(prepared.catalog, prepared.db, prepared.initial, eo));
  WitnessExtraction extraction;
  if (!result.complete) {
    extraction.status = WitnessStatus::kNotEvaluated;
    extraction.note = "exploration budget exhausted";
  } else {
    STARBURST_ASSIGN_OR_RETURN(
        extraction,
        ExtractWitness(prepared.catalog, prepared.db, prepared.initial,
                       result, WitnessOptionsFrom(options)));
  }
  return WitnessExtractionToJson(extraction, prepared.catalog);
}

const char* OracleName(OracleId id) {
  return kOracleNames[static_cast<int>(id)];
}

std::optional<OracleId> ParseOracleName(const std::string& name) {
  for (int i = 0; i < kNumOracles; ++i) {
    if (name == kOracleNames[i]) return static_cast<OracleId>(i);
  }
  return std::nullopt;
}

std::vector<OracleId> AllOracles() {
  std::vector<OracleId> all;
  all.reserve(kNumOracles);
  for (int i = 0; i < kNumOracles; ++i) all.push_back(static_cast<OracleId>(i));
  return all;
}

OracleOutcome RunOracle(OracleId id, const GeneratedRuleSet& set,
                        uint64_t data_seed, const OracleOptions& options) {
  switch (id) {
    case OracleId::kTerminationSound:
      return TerminationSound(set, data_seed, options);
    case OracleId::kConfluenceSound:
      return ConfluenceSound(set, data_seed, options);
    case OracleId::kObservableDeterminismSound:
      return ObservableDeterminismSound(set, data_seed, options);
    case OracleId::kBackendEquivalence:
      return BackendEquivalence(set, data_seed, options);
    case OracleId::kRoundTrip:
      return RoundTrip(set);
    case OracleId::kDeltaEquivalence:
      return DeltaEquivalence(set, data_seed, options);
    case OracleId::kPorEquivalence:
      return PorEquivalence(set, data_seed, options);
    case OracleId::kIncrementalEquivalence:
      return IncrementalEquivalence(set, data_seed);
    case OracleId::kWitnessReplay:
      return WitnessReplay(set, data_seed, options);
  }
  return Skip("unknown oracle");
}

std::string RuleSetToScript(const GeneratedRuleSet& set) {
  std::string out = DumpSchema(*set.schema);
  for (const RuleDef& rule : set.rules) {
    out += "\n";
    out += RuleToString(rule);
    out += ";\n";
  }
  return out;
}

Result<GeneratedRuleSet> ParseRuleSetScript(const std::string& source) {
  auto script = Parser::ParseScript(source);
  if (!script.ok()) return script.status();
  GeneratedRuleSet set;
  set.schema = std::make_unique<Schema>();
  for (const StmtPtr& stmt : script.value().statements) {
    if (stmt->kind != StmtKind::kCreateTable) {
      return Status::InvalidArgument(
          "rule-set script may only contain create table / create rule "
          "statements");
    }
    auto added = set.schema->AddTable(stmt->table, stmt->create_columns);
    if (!added.ok()) return added.status();
  }
  set.rules = std::move(script.value().rules);
  return set;
}

std::vector<ReplayFailure> ReplayAllOracles(
    const GeneratedRuleSet& set, const std::vector<uint64_t>& data_seeds,
    const OracleOptions& options) {
  std::vector<ReplayFailure> failures;
  for (OracleId id : AllOracles()) {
    for (uint64_t data_seed : data_seeds) {
      OracleOutcome outcome = RunOracle(id, set, data_seed, options);
      if (outcome.failed()) {
        failures.push_back({id, data_seed, outcome.message});
      }
      // kRoundTrip ignores the data seed; once is enough.
      if (id == OracleId::kRoundTrip) break;
    }
  }
  return failures;
}

}  // namespace fuzzing
}  // namespace starburst
