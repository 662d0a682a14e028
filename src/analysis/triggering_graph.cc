#include "analysis/triggering_graph.h"

#include <algorithm>
#include <cassert>

namespace starburst {

namespace {

[[maybe_unused]] bool RowsSorted(
    const std::vector<std::vector<RuleIndex>>& rows) {
  return std::all_of(rows.begin(), rows.end(), [](const auto& row) {
    return std::is_sorted(row.begin(), row.end());
  });
}

}  // namespace

TriggeringGraph::TriggeringGraph(const PrelimAnalysis& prelim)
    : is_member_(prelim.live_mask()), borrowed_(&prelim.triggers_rows()) {
  ComputeComponents();
}

TriggeringGraph::TriggeringGraph(const PrelimAnalysis& prelim,
                                 const std::vector<RuleIndex>& members) {
  int n = prelim.num_rules();
  is_member_.assign(n, false);
  for (RuleIndex r : members) is_member_[r] = true;
  // Filtering the sorted Triggers rows keeps every row sorted.
  owned_.assign(n, {});
  for (RuleIndex i = 0; i < n; ++i) {
    if (!is_member_[i]) continue;
    for (RuleIndex j : prelim.Triggers(i)) {
      if (is_member_[j]) owned_[i].push_back(j);
    }
  }
  ComputeComponents();
}

const std::vector<RuleIndex>& TriggeringGraph::OutEdges(RuleIndex r) const {
  return rows()[r];
}

bool TriggeringGraph::HasEdge(RuleIndex from, RuleIndex to) const {
  const auto& edges = rows()[from];
  return std::binary_search(edges.begin(), edges.end(), to);
}

void TriggeringGraph::ComputeComponents() {
  // HasEdge() binary-searches adjacency rows. PrelimAnalysis keeps its
  // Triggers rows sorted (see prelim.cc), and a subset graph filters them.
  assert(RowsSorted(rows()));
  // Iterative Tarjan SCC, emitting into the flat comp_nodes_/comp_start_
  // arrays (no per-component heap vector).
  const std::vector<std::vector<RuleIndex>>& adjacency = rows();
  int n = num_rules();
  comp_nodes_.clear();
  comp_start_.clear();
  comp_start_.push_back(0);
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0;

  struct Frame {
    int v;
    size_t edge;
  };
  std::vector<Frame> frames;

  for (int root = 0; root < n; ++root) {
    if (!is_member_[root] || index[root] != -1) continue;
    frames.clear();
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.edge < adjacency[frame.v].size()) {
        int w = adjacency[frame.v][frame.edge++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[frame.v] = std::min(lowlink[frame.v], index[w]);
        }
      } else {
        int v = frame.v;
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] = std::min(lowlink[frames.back().v],
                                              lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          size_t begin = comp_nodes_.size();
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp_nodes_.push_back(w);
            if (w == v) break;
          }
          std::sort(comp_nodes_.begin() + begin, comp_nodes_.end());
          comp_start_.push_back(static_cast<int>(comp_nodes_.size()));
        }
      }
    }
  }
}

std::vector<std::vector<RuleIndex>> TriggeringGraph::Components() const {
  std::vector<std::vector<RuleIndex>> components;
  size_t num = comp_start_.size() - 1;
  components.reserve(num);
  for (size_t c = 0; c < num; ++c) {
    components.emplace_back(comp_nodes_.begin() + comp_start_[c],
                            comp_nodes_.begin() + comp_start_[c + 1]);
  }
  return components;
}

std::vector<std::vector<RuleIndex>> TriggeringGraph::CyclicComponents() const {
  std::vector<std::vector<RuleIndex>> cyclic;
  size_t num = comp_start_.size() - 1;
  for (size_t c = 0; c < num; ++c) {
    int begin = comp_start_[c], end = comp_start_[c + 1];
    bool is_cyclic = end - begin > 1 ||
                     (end - begin == 1 &&
                      HasEdge(comp_nodes_[begin], comp_nodes_[begin]));
    if (is_cyclic) {
      cyclic.emplace_back(comp_nodes_.begin() + begin,
                          comp_nodes_.begin() + end);
    }
  }
  return cyclic;
}

bool TriggeringGraph::AcyclicWithout(
    const std::vector<RuleIndex>& nodes,
    const std::vector<RuleIndex>& removed) const {
  const std::vector<std::vector<RuleIndex>>& adjacency = rows();
  std::vector<bool> active(num_rules(), false);
  for (RuleIndex r : nodes) active[r] = true;
  for (RuleIndex r : removed) active[r] = false;
  // Explicit-stack DFS cycle check over the active subgraph (a recursive
  // DFS overflows the call stack on deep trigger chains — 10k+ rules).
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(num_rules(), Color::kWhite);
  struct Frame {
    RuleIndex v;
    size_t edge;
  };
  std::vector<Frame> frames;
  for (RuleIndex r : nodes) {
    if (!active[r] || color[r] != Color::kWhite) continue;
    color[r] = Color::kGray;
    frames.clear();
    frames.push_back({r, 0});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.edge < adjacency[frame.v].size()) {
        RuleIndex w = adjacency[frame.v][frame.edge++];
        if (!active[w]) continue;
        if (color[w] == Color::kGray) return false;
        if (color[w] == Color::kWhite) {
          color[w] = Color::kGray;
          frames.push_back({w, 0});
        }
      } else {
        color[frame.v] = Color::kBlack;
        frames.pop_back();
      }
    }
  }
  return true;
}

}  // namespace starburst
