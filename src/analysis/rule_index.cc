#include "analysis/rule_index.h"

#include <algorithm>
#include <utility>

#include "analysis/prelim.h"

namespace starburst {

namespace {

void InsertSortedTable(std::vector<TableId>* tables, TableId t) {
  auto it = std::lower_bound(tables->begin(), tables->end(), t);
  if (it == tables->end() || *it != t) tables->insert(it, t);
}

void EraseSorted(std::vector<RuleIndex>* rules, RuleIndex r) {
  auto it = std::lower_bound(rules->begin(), rules->end(), r);
  if (it != rules->end() && *it == r) rules->erase(it);
}

}  // namespace

std::vector<TableId> RuleFootprintIndex::FootprintOf(const RulePrelim& prelim) {
  std::vector<TableId> tables;
  InsertSortedTable(&tables, prelim.table);  // tables(Triggered-By) = {table}
  for (const Operation& op : prelim.performs) {
    InsertSortedTable(&tables, op.table);
  }
  for (const TableColumn& read : prelim.reads) {
    InsertSortedTable(&tables, read.table);
  }
  return tables;
}

void RuleFootprintIndex::Clear() {
  footprints_.clear();
  own_table_.clear();
  touching_.clear();
  on_table_.clear();
}

void RuleFootprintIndex::Build(const std::vector<RulePrelim>& prelims) {
  Clear();
  footprints_.reserve(prelims.size());
  own_table_.reserve(prelims.size());
  for (const RulePrelim& prelim : prelims) Append(prelim);
}

void RuleFootprintIndex::Append(const RulePrelim& prelim) {
  RuleIndex r = num_rules();
  footprints_.push_back(FootprintOf(prelim));
  own_table_.push_back(prelim.table);
  for (TableId t : footprints_.back()) touching_[t].push_back(r);
  on_table_[prelim.table].push_back(r);
}

void RuleFootprintIndex::Retire(RuleIndex r) {
  for (TableId t : footprints_[r]) EraseSorted(&touching_[t], r);
  EraseSorted(&on_table_[own_table_[r]], r);
  footprints_[r] = {};
  own_table_[r] = kInvalidTableId;
}

void RuleFootprintIndex::Compact(const std::vector<RuleIndex>& new_index) {
  size_t kept = 0;
  for (size_t r = 0; r < footprints_.size(); ++r) {
    if (new_index[r] < 0) continue;
    if (kept != r) {
      footprints_[kept] = std::move(footprints_[r]);
      own_table_[kept] = own_table_[r];
    }
    ++kept;
  }
  footprints_.resize(kept);
  own_table_.resize(kept);
  for (auto* buckets : {&touching_, &on_table_}) {
    for (auto& [table, rules] : *buckets) {
      for (RuleIndex& rule : rules) rule = new_index[rule];
    }
  }
}

const std::vector<RuleIndex>& RuleFootprintIndex::RulesTouching(
    TableId t) const {
  auto it = touching_.find(t);
  return it == touching_.end() ? empty_ : it->second;
}

const std::vector<RuleIndex>& RuleFootprintIndex::RulesOn(TableId t) const {
  auto it = on_table_.find(t);
  return it == on_table_.end() ? empty_ : it->second;
}

std::vector<RuleIndex> RuleFootprintIndex::OverlapCandidates(
    RuleIndex r) const {
  std::vector<RuleIndex> out;
  for (TableId t : footprints_[r]) {
    const std::vector<RuleIndex>& bucket = RulesTouching(t);
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  EraseSorted(&out, r);
  return out;
}

}  // namespace starburst
