#ifndef STARBURST_ANALYSIS_RULE_INDEX_H_
#define STARBURST_ANALYSIS_RULE_INDEX_H_

#include <unordered_map>
#include <vector>

#include "analysis/ops.h"
#include "catalog/catalog.h"

namespace starburst {

/// Dense index of a rule within the analyzed rule set R (mirrors
/// prelim.h's alias; kept here so the index header stands alone).
using RuleIndex = int;

struct RulePrelim;

/// Inverted table -> rules index over the Section 3 per-rule sets, the
/// backbone of sparse pair analysis on large catalogs.
///
/// A rule's *footprint* is the set of tables its Section 3 sets touch:
/// tables(Triggered-By) ∪ tables(Performs) ∪ tables(Reads). Every Lemma 6.1
/// condition and every Triggers edge between two rules requires the pair to
/// share a footprint table — (I,t)/(D,t) touch every column of t and
/// (U,t.c) touches t.c, so a write that affects a read, an update/update or
/// insert/delete conflict, and a trigger/untrigger edge all name a common
/// table. Pairs with disjoint footprints therefore commute by construction
/// and need neither a pair check nor a cache entry; pair enumeration walks
/// only OverlapCandidates().
///
/// The index is maintained incrementally: Append() is O(footprint), and
/// Retire() takes a rule out of its footprint buckets in O(footprint ·
/// bucket size) without moving any other rule. A retired rule keeps its
/// slot (an empty footprint) until Compact() renumbers the live rules
/// densely in O(index size). All bucket vectors are kept sorted ascending
/// and hold live rules only.
class RuleFootprintIndex {
 public:
  /// The footprint of one rule's prelim sets: sorted, deduplicated tables.
  static std::vector<TableId> FootprintOf(const RulePrelim& prelim);

  void Clear();

  /// Rebuilds from scratch; rule i of `prelims` gets index i.
  void Build(const std::vector<RulePrelim>& prelims);

  /// Appends the rule as index num_rules(). Buckets stay sorted because the
  /// new index is the maximum.
  void Append(const RulePrelim& prelim);

  /// Retires rule `r` in place: it leaves every bucket and its footprint
  /// is cleared; no other index moves.
  void Retire(RuleIndex r);

  /// Renumbers the rules: rule r moves to `new_index[r]`, and rules mapped
  /// to -1 (retired ones) are dropped. The map must be increasing over the
  /// kept rules, so buckets stay sorted.
  void Compact(const std::vector<RuleIndex>& new_index);

  /// Rule slots, retired ones included.
  int num_rules() const { return static_cast<int>(footprints_.size()); }

  /// The rule's footprint tables (sorted ascending).
  const std::vector<TableId>& Footprint(RuleIndex r) const {
    return footprints_[r];
  }

  /// Rules whose footprint contains `t` (sorted ascending; empty vector for
  /// an untouched table).
  const std::vector<RuleIndex>& RulesTouching(TableId t) const;

  /// Rules defined `on t` — the rules whose Triggered-By operations live on
  /// `t` (sorted ascending). These are the only possible targets of a
  /// Triggers edge from a rule performing operations on `t`.
  const std::vector<RuleIndex>& RulesOn(TableId t) const;

  /// Every rule (other than `r`) sharing at least one footprint table with
  /// `r`, sorted ascending and deduplicated. Only these pairs can be
  /// noncommutative under Lemma 6.1.
  std::vector<RuleIndex> OverlapCandidates(RuleIndex r) const;

 private:
  std::vector<std::vector<TableId>> footprints_;  // rule -> sorted tables
  std::vector<TableId> own_table_;                // rule -> its `on` table
  std::unordered_map<TableId, std::vector<RuleIndex>> touching_;
  std::unordered_map<TableId, std::vector<RuleIndex>> on_table_;
  std::vector<RuleIndex> empty_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_RULE_INDEX_H_
