#include "analysis/priority.h"

#include <utility>

namespace starburst {

Status PriorityOrder::CloseAndCheck(const PrelimAnalysis* prelim) {
  // On entry below_ holds the direct i > j edges; on exit it is the sorted
  // transitive closure. Per-source DFS with a stamp array: O(sources with
  // edges · reachable edges), so a catalog with few priority clauses pays
  // nearly nothing regardless of n.
  std::vector<std::vector<RuleIndex>> direct = std::move(below_);
  below_.assign(n_, {});
  above_.assign(n_, {});
  ordered_pairs_ = 0;
  std::vector<int> stamp(n_, -1);
  std::vector<RuleIndex> stack;
  for (RuleIndex i = 0; i < n_; ++i) {
    if (direct[i].empty()) continue;
    std::vector<RuleIndex>& reach = below_[i];
    stack.assign(direct[i].begin(), direct[i].end());
    for (RuleIndex w : stack) stamp[w] = i;
    while (!stack.empty()) {
      RuleIndex v = stack.back();
      stack.pop_back();
      reach.push_back(v);
      for (RuleIndex w : direct[v]) {
        if (stamp[w] != i) {
          stamp[w] = i;
          stack.push_back(w);
        }
      }
    }
    std::sort(reach.begin(), reach.end());
    reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
    if (std::binary_search(reach.begin(), reach.end(), i)) {
      // Report the first (ascending) rule on a cycle, matching the old
      // dense closure's diagonal scan.
      std::string who =
          prelim != nullptr ? prelim->rule(i).name : std::to_string(i);
      return Status::SemanticError(
          "priority ordering is cyclic (rule '" + who +
          "' transitively precedes itself); precedes/follows must define a "
          "partial order");
    }
  }
  for (RuleIndex i = 0; i < n_; ++i) {
    ordered_pairs_ += static_cast<int64_t>(below_[i].size());
    // Transpose: i ascending keeps each above_ row sorted.
    for (RuleIndex j : below_[i]) above_[j].push_back(i);
  }
  return Status::OK();
}

Result<PriorityOrder> PriorityOrder::Build(
    const PrelimAnalysis& prelim, const std::vector<RuleDef>& rules,
    const std::vector<std::pair<RuleIndex, RuleIndex>>& extra) {
  int n = prelim.num_rules();
  PriorityOrder order;
  order.n_ = n;
  order.below_.assign(n, {});

  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleDef& rule = rules[i];
    for (const std::string& other : rule.precedes) {
      RuleIndex j = prelim.FindRule(other);
      if (j < 0) {
        return Status::SemanticError("rule '" + rule.name +
                                     "' precedes unknown rule '" + other + "'");
      }
      order.below_[i].push_back(j);
    }
    for (const std::string& other : rule.follows) {
      RuleIndex j = prelim.FindRule(other);
      if (j < 0) {
        return Status::SemanticError("rule '" + rule.name +
                                     "' follows unknown rule '" + other + "'");
      }
      order.below_[j].push_back(static_cast<RuleIndex>(i));
    }
  }
  for (const auto& [hi, lo] : extra) {
    if (hi < 0 || hi >= n || lo < 0 || lo >= n) {
      return Status::InvalidArgument("priority edge index out of range");
    }
    order.below_[hi].push_back(lo);
  }
  STARBURST_RETURN_IF_ERROR(order.CloseAndCheck(&prelim));
  return order;
}

Result<PriorityOrder> PriorityOrder::FromEdges(
    int num_rules, const std::vector<std::pair<RuleIndex, RuleIndex>>& edges) {
  PriorityOrder order;
  order.n_ = num_rules;
  order.below_.assign(num_rules, {});
  for (const auto& [hi, lo] : edges) {
    if (hi < 0 || hi >= num_rules || lo < 0 || lo >= num_rules) {
      return Status::InvalidArgument("priority edge index out of range");
    }
    order.below_[hi].push_back(lo);
  }
  STARBURST_RETURN_IF_ERROR(order.CloseAndCheck(nullptr));
  return order;
}

std::vector<RuleIndex> PriorityOrder::Choose(
    const std::vector<RuleIndex>& triggered) const {
  std::vector<RuleIndex> eligible;
  for (RuleIndex i : triggered) {
    bool dominated = false;
    for (RuleIndex j : triggered) {
      if (j != i && Higher(j, i)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) eligible.push_back(i);
  }
  return eligible;
}

}  // namespace starburst
