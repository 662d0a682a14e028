#ifndef STARBURST_ANALYSIS_PRELIM_H_
#define STARBURST_ANALYSIS_PRELIM_H_

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/ops.h"
#include "analysis/rule_index.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "rulelang/ast.h"

namespace starburst {

/// The per-rule sets of Section 3, computed by syntactic analysis.
struct RulePrelim {
  std::string name;
  /// The rule's table (the table named in `on`).
  TableId table = kInvalidTableId;
  /// Triggered-By(r): operations on the rule's table that trigger it.
  OperationSet triggered_by;
  /// Performs(r): operations the rule's action may perform.
  OperationSet performs;
  /// Reads(r): columns the rule may read in its condition or action,
  /// including triggering-table columns read through transition tables.
  TableColumnSet reads;
  /// Observable(r): whether the action may be observable (contains a
  /// rollback or a top-level data retrieval).
  bool observable = false;
  /// Every table mentioned anywhere in the rule (for partitioning).
  std::set<TableId> referenced_tables;
};

/// Preliminary analysis of a rule set (Section 3): Triggered-By, Performs,
/// Triggers, Reads, Can-Untrigger, Observable.
///
/// The analysis is purely syntactic and conservative: unqualified column
/// references that cannot be resolved against an enclosing FROM scope are
/// attributed to *every* schema table with a column of that name.
class PrelimAnalysis {
 public:
  /// Computes the sets for `rules` against `schema`. Fails with
  /// SemanticError when a rule names an unknown table/column, or reads a
  /// transition table that does not correspond to one of its triggering
  /// operations (Section 2: "a rule may refer only to transition tables
  /// corresponding to its triggering operations").
  static Result<PrelimAnalysis> Compute(const Schema& schema,
                                        const std::vector<RuleDef>& rules);

  /// Validates and analyzes a single rule in isolation — the per-rule body
  /// of Compute(), minus the duplicate-name check (which needs the whole
  /// set). The incremental analyzer builds on this so a k-rule catalog
  /// costs k single-rule validations, not O(k²).
  static Result<RulePrelim> ComputeRule(const Schema& schema,
                                        const RuleDef& rule);

  /// Rule slots: every rule index is below this. It equals the number of
  /// rules unless some were retired (RetireRule), which only the
  /// incremental analyzer does.
  int num_rules() const { return static_cast<int>(prelims_.size()); }
  const RulePrelim& rule(RuleIndex i) const { return prelims_[i]; }
  const std::vector<RulePrelim>& rules() const { return prelims_; }

  /// True when slot `r` was retired: it holds an empty RulePrelim, no
  /// Triggers edge starts or ends there, and no name or bucket points to it.
  bool retired(RuleIndex r) const { return !live_[r]; }

  /// Per slot, true unless retired: a dense mask, so scans over every slot
  /// do not touch the RulePrelims.
  const std::vector<bool>& live_mask() const { return live_; }

  /// Triggers(r): rules that can become triggered by r's action
  /// (Performs(r) ∩ Triggered-By(r') ≠ ∅), possibly including r itself.
  /// Rows are sorted ascending (see the build-site invariant note in
  /// prelim.cc); TriggeringGraph::HasEdge binary-searches them.
  const std::vector<RuleIndex>& Triggers(RuleIndex r) const {
    return triggers_[r];
  }

  /// Every Triggers() row, indexed by rule (TriggeringGraph borrows them).
  const std::vector<std::vector<RuleIndex>>& triggers_rows() const {
    return triggers_;
  }

  /// True iff rj ∈ Triggers(ri). O(log |Triggers(ri)|) over the sorted
  /// adjacency row (no dense matrix is materialized).
  bool TriggersRule(RuleIndex ri, RuleIndex rj) const {
    const std::vector<RuleIndex>& row = triggers_[ri];
    return std::binary_search(row.begin(), row.end(), rj);
  }

  /// Can-Untrigger(O): rules that can be untriggered by the operations in
  /// `ops` — a rule triggered by insertions into or updates of a table t
  /// can be untriggered when O deletes from t.
  std::vector<RuleIndex> CanUntrigger(const OperationSet& ops) const;

  /// True iff rj ∈ Can-Untrigger(Performs(ri)).
  bool CanUntriggerRule(RuleIndex ri, RuleIndex rj) const;

  /// Finds a rule by (case-insensitive) name; -1 if absent.
  RuleIndex FindRule(const std::string& name) const;

  /// The inverted table -> rules index over the current rule set, used for
  /// sparse pair enumeration (only overlapping pairs can be
  /// noncommutative — see rule_index.h).
  const RuleFootprintIndex& index() const { return index_; }

  /// Appends an already-validated rule prelim (from ComputeRule) as the new
  /// highest index, updating the Triggers relation and the footprint index
  /// incrementally. Precondition: the name is not already present.
  RuleIndex AppendComputed(RulePrelim prelim);

  /// Retires rule `r` in place; no other rule moves. Its in-edges are
  /// dropped from the Triggers rows of the rules touching its table (the
  /// only rules that can trigger it), and it leaves its footprint buckets
  /// and the name index — O(|RulesTouching(table)| + footprint), not
  /// O(rules). The slot keeps an empty RulePrelim until Compact().
  void RetireRule(RuleIndex r);

  /// Renumbers the live rules densely, in slot order, dropping retired
  /// slots in one O(rules + edges) pass. Returns the old -> new index map
  /// (-1 for a retired slot).
  std::vector<RuleIndex> Compact();

  /// Returns a copy with the Section 8 extensions Reads_obs / Performs_obs:
  /// every observable rule additionally performs (I, Obs) and reads Obs.c,
  /// where Obs is the fictional log table identified by `obs_table` (use a
  /// pseudo id outside the schema, e.g. schema.num_tables()). The Triggers
  /// relation is unchanged (no rule is triggered by operations on Obs);
  /// the footprint index is rebuilt so observable rules overlap on Obs.
  PrelimAnalysis ExtendWithObservableTable(TableId obs_table) const;

 private:
  /// Out-edges of rule `i` via the index: candidates are the rules defined
  /// on a table that i performs operations on. Returns a sorted row.
  std::vector<RuleIndex> ComputeTriggersRow(RuleIndex i) const;

  std::vector<RulePrelim> prelims_;
  std::vector<bool> live_;
  std::vector<std::vector<RuleIndex>> triggers_;
  RuleFootprintIndex index_;
  std::unordered_map<std::string, RuleIndex> name_index_;  // lowercased
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_PRELIM_H_
