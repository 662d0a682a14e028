#ifndef STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_
#define STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_

#include <vector>

#include "analysis/prelim.h"

namespace starburst {

/// The triggering graph TG_R of Section 5: nodes are rules, with an edge
/// ri -> rj iff rj ∈ Triggers(ri). Theorem 5.1: if TG_R is acyclic the
/// rule set is guaranteed to terminate.
class TriggeringGraph {
 public:
  /// Builds the graph over all live rules of `prelim`, borrowing its
  /// Triggers rows instead of copying them: `prelim` must outlive the graph
  /// and stay unmodified while it is in use.
  explicit TriggeringGraph(const PrelimAnalysis& prelim);

  /// Builds the graph over the subset `members` only (edges within the
  /// subset). Used for partial confluence, which needs termination of
  /// Sig(T') in isolation (Section 7), and for restricted-operation
  /// analysis.
  TriggeringGraph(const PrelimAnalysis& prelim,
                  const std::vector<RuleIndex>& members);

  int num_rules() const { return static_cast<int>(rows().size()); }

  /// Out-edges of rule `r` (global rule indices, ascending).
  const std::vector<RuleIndex>& OutEdges(RuleIndex r) const;

  bool HasEdge(RuleIndex from, RuleIndex to) const;

  /// Strongly connected components (Tarjan), in reverse topological order.
  /// Each component lists global rule indices, ascending. Materialized on
  /// demand: the components are stored flat (one array + offsets) so that
  /// a 10k-rule catalog does not pay 10k vector allocations per graph.
  std::vector<std::vector<RuleIndex>> Components() const;

  /// Components that contain a cycle: size > 1, or a single rule with a
  /// self-loop (a rule that can trigger itself).
  std::vector<std::vector<RuleIndex>> CyclicComponents() const;

  bool IsAcyclic() const { return CyclicComponents().empty(); }

  /// True when the subgraph of `nodes` minus the rules in `removed`
  /// is acyclic. Used to check that user cycle certifications discharge
  /// every cycle of a component (Section 5's interactive analysis).
  bool AcyclicWithout(const std::vector<RuleIndex>& nodes,
                      const std::vector<RuleIndex>& removed) const;

 private:
  void ComputeComponents();

  /// Adjacency rows by global index: the prelim's Triggers rows for the
  /// full graph, `owned_` for a subset graph.
  const std::vector<std::vector<RuleIndex>>& rows() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }

  std::vector<bool> is_member_;  // global index -> in graph
  const std::vector<std::vector<RuleIndex>>* borrowed_ = nullptr;
  std::vector<std::vector<RuleIndex>> owned_;
  /// Flat SCC storage: component c is comp_nodes_[comp_start_[c] ..
  /// comp_start_[c + 1]), sorted ascending; components in reverse
  /// topological order.
  std::vector<RuleIndex> comp_nodes_;
  std::vector<int> comp_start_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_TRIGGERING_GRAPH_H_
