#ifndef STARBURST_ANALYSIS_INCREMENTAL_H_
#define STARBURST_ANALYSIS_INCREMENTAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/commutativity.h"
#include "analysis/confluence.h"
#include "analysis/priority.h"
#include "analysis/termination.h"
#include "common/status.h"
#include "rulelang/ast.h"

namespace starburst {

/// Statistics showing how much work an incremental re-analysis reused.
struct IncrementalStats {
  /// Overlapping pairs whose Lemma 6.1 verdict was computed this Analyze()
  /// (pairs involving a rule added since the previous analysis).
  long pair_checks_computed = 0;
  /// Overlapping pairs whose verdict was carried over from earlier
  /// analyses. Non-overlapping pairs commute by construction and are
  /// counted in neither bucket — they cost nothing.
  long pair_checks_reused = 0;
  /// Cyclic triggering-graph components whose discharge verdict was reused
  /// from / recomputed into the termination component cache.
  long termination_components_reused = 0;
  long termination_components_recomputed = 0;
};

/// Incremental analysis across rule-set edits (Section 9, future work,
/// implemented here). Three observations make single-rule edits cheap:
///   - The Section 3 sets of a rule depend only on the rule and the
///     schema, so AddRule() validates just the new rule and appends its
///     prelim state in place — a k-rule catalog costs k single-rule
///     validations, not O(k²) (no catalog clone, no full recompute).
///   - Lemma 6.1 commutativity is a property of a *pair* of rules, and
///     pairs with disjoint table footprints commute by construction
///     (rule_index.h), so the pair state is a per-rule noncommute
///     adjacency over overlapping pairs only, and an edit dirties just the
///     pairs involving the edited rule.
///   - Termination discharge verdicts are per cyclic component, so after
///     an edit only components containing an edited rule (dirty SCCs)
///     recompute (TerminationComponentCache).
///
/// Every rule lives in a *slot* from AddRule() to RemoveRule(). Slots are
/// handed out in registration order and never move on removal:
/// RemoveRule() retires the slot in place, unlinking the rule only from its
/// noncommute partners, from the Triggers rows of the rules touching its
/// table, from its footprint buckets and from the name index
/// (PrelimAnalysis::RetireRule) — the cost is the rule's neighbourhood, not
/// the catalog. The public dense indices (num_rules(), rule_name(),
/// PairCommutes(), every report field) are a slot's rank among the live
/// slots, remapped once per Analyze(), so reports equal a from-scratch
/// analysis of the live rules in registration order. Once retired slots
/// exceed kCompactionRatio times the live rules, one compaction pass
/// renumbers the slots densely, keeping every pair verdict: a removal
/// costs O(1) extra on average and the slots stay within twice the live
/// rules.
///
/// The priority order and the direct priority edges are kept across
/// Analyze() calls. Only an edit that adds or removes a rule with a
/// precedes/follows clause, or a rule some clause names, discards them; an
/// edit of any other rule cannot change the order.
///
/// Priority-clause validation at AddRule() covers the new rule's clauses
/// (unknown names, cycles through the new rule over the committed edges).
/// One divergence from full revalidation: a dangling clause left behind by
/// RemoveRule() on some *other* rule no longer fails the next AddRule();
/// it is reported by the next Analyze(), which resolves every clause
/// whenever an edit touched the clauses.
class IncrementalAnalyzer {
 public:
  /// Compaction runs once retired slots exceed this multiple of the live
  /// rules. At 1, slots never exceed twice the live rules.
  static constexpr int kCompactionRatio = 1;

  /// The schema must outlive the analyzer.
  explicit IncrementalAnalyzer(
      const Schema* schema, CommutativityCertifications certifications = {});

  /// Validates and appends a rule in a new slot, updating prelim state,
  /// the footprint index, and the Triggers relation incrementally. Fails
  /// on semantic errors, leaving the rule set unchanged.
  Status AddRule(RuleDef rule);

  /// Removes the named rule: retires its slot and drops every cached pair
  /// verdict and termination component involving it.
  Status RemoveRule(const std::string& name);

  /// Live rules.
  int num_rules() const { return prelim_.num_rules() - retired_; }

  /// Slots in use, retired ones included (at most twice num_rules()).
  int num_slots() const { return prelim_.num_rules(); }

  /// Compaction passes run so far.
  long compactions() const { return compactions_; }

  /// Discharge verdicts held by the termination component cache: those of
  /// the certified cyclic components the latest Analyze() looked up.
  size_t cached_components() const { return term_cache_.discharged.size(); }

  /// Single-rule validations performed by AddRule() so far — pinned by
  /// tests to show a k-rule build does O(k) validation work.
  long rule_validations() const { return rule_validations_; }

  /// The rule's name by dense index: its rank in registration order among
  /// the live rules as of the most recent Analyze() — the same indices the
  /// reports use.
  const std::string& rule_name(RuleIndex i) const {
    return prelim_.rule(slot_of_rank_[i]).name;
  }

  /// True when the pair is (conservatively) guaranteed to commute, with
  /// certifications applied. Takes dense indices and reflects the pair
  /// state as of the most recent Analyze(); pairs involving rules edited
  /// since then are unreliable.
  bool PairCommutes(RuleIndex i, RuleIndex j) const {
    if (i == j) return true;
    const std::vector<RuleIndex>& row = noncommute_[slot_of_rank_[i]];
    if (!std::binary_search(row.begin(), row.end(), slot_of_rank_[j])) {
      return true;
    }
    return certifications_.Contains(rule_name(i), rule_name(j));
  }

  /// Runs termination + confluence over the current rule set, reusing
  /// cached pair verdicts. Returns the reports plus reuse statistics.
  struct RunResult {
    TerminationReport termination;
    ConfluenceReport confluence;
    IncrementalStats stats;
  };
  Result<RunResult> Analyze(const TerminationCertifications& certs = {},
                            int max_violations = -1);

 private:
  /// Rebuilds prio_out_ from every committed rule's clauses; dangling
  /// names (possible after RemoveRule) are skipped and keep the edges
  /// marked stale, so a later add of the missing name re-binds them.
  void RebuildPriorityEdges();

  /// Pre-commit cycle check for a new rule with direct lower neighbors
  /// `out_targets` and higher neighbors `in_sources`: the committed edge
  /// graph is acyclic, so any new cycle passes through the new rule.
  Status CheckPriorityAcyclic(const std::vector<RuleIndex>& out_targets,
                              const std::vector<RuleIndex>& in_sources) const;

  /// True when adding or removing `rule` can change the priority order:
  /// it has a clause, or a live rule's clause names it.
  bool InPriorityOrder(const RuleDef& rule) const;

  /// Renumbers the slots densely, dropping retired ones; pair verdicts,
  /// dirty flags and direct priority edges move with their rules.
  void Compact();

  const Schema* schema_;
  CommutativityCertifications certifications_;
  /// Rule text by slot; a retired slot holds an empty RuleDef.
  std::vector<RuleDef> rules_;
  /// Live prelim state by slot, updated in place by AddRule/RemoveRule.
  PrelimAnalysis prelim_;
  int retired_ = 0;
  long compactions_ = 0;
  /// Dense index -> slot, refreshed by Analyze() (and kept pointing at
  /// live slots across a compaction).
  std::vector<RuleIndex> slot_of_rank_;
  /// noncommute_[i]: sorted slots j that fail the Lemma 6.1 check against
  /// slot i (certifications not applied). Symmetric; covers analyzed pairs.
  std::vector<std::vector<RuleIndex>> noncommute_;
  /// Slots added since the last Analyze(); their pairs need checking.
  std::vector<char> dirty_;
  /// Structural count of overlapping unordered pairs, maintained ±
  /// |OverlapCandidates| per edit; reused = overlap_pairs_ − computed.
  long overlap_pairs_ = 0;
  long rule_validations_ = 0;
  /// Lowercased names that live rules' precedes/follows clauses name, with
  /// the number of such references.
  std::unordered_map<std::string, int> clause_refs_;
  /// Direct priority edges (hi -> lo) among committed slots.
  std::vector<std::vector<RuleIndex>> prio_out_;
  bool prio_edges_stale_ = false;
  /// The priority order over the slots, kept across Analyze() calls; empty
  /// until the next Analyze() after an edit that can change it.
  std::optional<PriorityOrder> priority_;
  /// Per-rule versions + per-component discharge verdicts for dirty-SCC
  /// termination recompute.
  TerminationComponentCache term_cache_;
  uint64_t next_version_ = 1;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_INCREMENTAL_H_
