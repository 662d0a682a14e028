#include "analysis/incremental.h"

#include <cstdint>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace starburst {

namespace {

void EraseSorted(std::vector<RuleIndex>* row, RuleIndex r) {
  auto it = std::lower_bound(row->begin(), row->end(), r);
  if (it != row->end() && *it == r) row->erase(it);
}

/// Rewrites the slot indices of both reports as ranks (`rank[slot]`). The
/// map is increasing over live slots, so sorted lists stay sorted and the
/// violation order is unchanged.
void SlotsToRanks(const std::vector<RuleIndex>& rank,
                  TerminationReport* termination,
                  ConfluenceReport* confluence) {
  auto remap = [&](std::vector<RuleIndex>* rules) {
    for (RuleIndex& r : *rules) r = rank[r];
  };
  for (CycleReport& cycle : termination->cycles) {
    remap(&cycle.rules);
    remap(&cycle.certified);
  }
  for (ConfluenceViolation& v : confluence->violations) {
    v.pair_i = rank[v.pair_i];
    v.pair_j = rank[v.pair_j];
    v.r1 = rank[v.r1];
    v.r2 = rank[v.r2];
    remap(&v.set_r1);
    remap(&v.set_r2);
    for (NoncommutativityCause& cause : v.causes) {
      cause.actor = rank[cause.actor];
      cause.affected = rank[cause.affected];
    }
  }
}

}  // namespace

IncrementalAnalyzer::IncrementalAnalyzer(
    const Schema* schema, CommutativityCertifications certifications)
    : schema_(schema), certifications_(std::move(certifications)) {}

void IncrementalAnalyzer::RebuildPriorityEdges() {
  int n = prelim_.num_rules();
  prio_out_.assign(n, {});
  bool have_dangling = false;
  for (int i = 0; i < n; ++i) {
    for (const std::string& other : rules_[i].precedes) {
      RuleIndex j = prelim_.FindRule(other);
      if (j < 0) {
        have_dangling = true;
        continue;
      }
      prio_out_[i].push_back(j);
    }
    for (const std::string& other : rules_[i].follows) {
      RuleIndex j = prelim_.FindRule(other);
      if (j < 0) {
        have_dangling = true;
        continue;
      }
      prio_out_[j].push_back(i);
    }
  }
  prio_edges_stale_ = have_dangling;
}

Status IncrementalAnalyzer::CheckPriorityAcyclic(
    const std::vector<RuleIndex>& out_targets,
    const std::vector<RuleIndex>& in_sources) const {
  if (out_targets.empty() || in_sources.empty()) return Status::OK();
  int n = prelim_.num_rules();
  std::vector<char> is_source(n, 0);
  for (RuleIndex s : in_sources) is_source[s] = 1;
  // DFS from the new rule's lower neighbors; reaching a higher neighbor
  // closes a cycle through the new rule. Parents reconstruct the path.
  std::vector<RuleIndex> parent(n, -2);  // -2 = unvisited, -1 = DFS root
  std::vector<RuleIndex> stack;
  RuleIndex hit = -1;
  for (RuleIndex t : out_targets) {
    if (parent[t] != -2) continue;
    parent[t] = -1;
    if (is_source[t]) {
      hit = t;
      break;
    }
    stack.push_back(t);
  }
  while (hit < 0 && !stack.empty()) {
    RuleIndex v = stack.back();
    stack.pop_back();
    for (RuleIndex w : prio_out_[v]) {
      if (parent[w] != -2) continue;
      parent[w] = v;
      if (is_source[w]) {
        hit = w;
        break;
      }
      stack.push_back(w);
    }
  }
  if (hit < 0) return Status::OK();
  RuleIndex min_node = hit;
  for (RuleIndex v = parent[hit]; v >= 0; v = parent[v]) {
    min_node = std::min(min_node, v);
  }
  const std::string& who = prelim_.rule(min_node).name;
  return Status::SemanticError(
      "priority ordering is cyclic (rule '" + who +
      "' transitively precedes itself); precedes/follows must define a "
      "partial order");
}

bool IncrementalAnalyzer::InPriorityOrder(const RuleDef& rule) const {
  return !rule.precedes.empty() || !rule.follows.empty() ||
         clause_refs_.count(ToLower(rule.name)) > 0;
}

Status IncrementalAnalyzer::AddRule(RuleDef rule) {
  if (prelim_.FindRule(rule.name) >= 0) {
    return Status::SemanticError("duplicate rule name '" + rule.name + "'");
  }
  auto computed = PrelimAnalysis::ComputeRule(*schema_, rule);
  ++rule_validations_;
  if (!computed.ok()) return computed.status();

  // Validate the new rule's priority clauses against the committed set.
  if (prio_edges_stale_) RebuildPriorityEdges();
  std::vector<RuleIndex> out_targets, in_sources;
  for (const std::string& other : rule.precedes) {
    if (EqualsIgnoreCase(other, rule.name)) {
      return Status::SemanticError(
          "priority ordering is cyclic (rule '" + rule.name +
          "' transitively precedes itself); precedes/follows must define a "
          "partial order");
    }
    RuleIndex j = prelim_.FindRule(other);
    if (j < 0) {
      return Status::SemanticError("rule '" + rule.name +
                                   "' precedes unknown rule '" + other + "'");
    }
    out_targets.push_back(j);
  }
  for (const std::string& other : rule.follows) {
    if (EqualsIgnoreCase(other, rule.name)) {
      return Status::SemanticError(
          "priority ordering is cyclic (rule '" + rule.name +
          "' transitively precedes itself); precedes/follows must define a "
          "partial order");
    }
    RuleIndex j = prelim_.FindRule(other);
    if (j < 0) {
      return Status::SemanticError("rule '" + rule.name +
                                   "' follows unknown rule '" + other + "'");
    }
    in_sources.push_back(j);
  }
  STARBURST_RETURN_IF_ERROR(CheckPriorityAcyclic(out_targets, in_sources));

  // Commit.
  if (InPriorityOrder(rule)) {
    priority_.reset();
  } else if (priority_.has_value()) {
    priority_->AppendUnorderedRule();
  }
  for (const auto* clause : {&rule.precedes, &rule.follows}) {
    for (const std::string& other : *clause) ++clause_refs_[ToLower(other)];
  }
  RuleIndex n = prelim_.AppendComputed(std::move(computed).value());
  rules_.push_back(std::move(rule));
  term_cache_.rule_versions[ToLower(rules_.back().name)] = next_version_++;
  noncommute_.emplace_back();
  dirty_.push_back(1);
  if (!prio_edges_stale_) {
    prio_out_.push_back(std::move(out_targets));
    for (RuleIndex s : in_sources) prio_out_[s].push_back(n);
  }
  overlap_pairs_ +=
      static_cast<long>(prelim_.index().OverlapCandidates(n).size());
  return Status::OK();
}

Status IncrementalAnalyzer::RemoveRule(const std::string& name) {
  RuleIndex r = prelim_.FindRule(name);
  if (r < 0) return Status::NotFound("no rule named '" + name + "'");
  overlap_pairs_ -=
      static_cast<long>(prelim_.index().OverlapCandidates(r).size());
  for (RuleIndex partner : noncommute_[r]) {
    EraseSorted(&noncommute_[partner], r);
  }
  noncommute_[r] = {};
  dirty_[r] = 0;
  const RuleDef& rule = rules_[r];
  if (InPriorityOrder(rule)) {
    // Its edges are unlinked by a rebuild, and the order is rebuilt by the
    // next Analyze() (which reports any clause left dangling).
    priority_.reset();
    prio_out_.clear();
    prio_edges_stale_ = true;
  }
  for (const auto* clause : {&rule.precedes, &rule.follows}) {
    for (const std::string& other : *clause) {
      auto it = clause_refs_.find(ToLower(other));
      if (--it->second == 0) clause_refs_.erase(it);
    }
  }
  term_cache_.rule_versions.erase(ToLower(rule.name));
  rules_[r] = RuleDef{};
  prelim_.RetireRule(r);
  ++retired_;
  if (retired_ > kCompactionRatio * num_rules()) Compact();
  return Status::OK();
}

void IncrementalAnalyzer::Compact() {
  std::vector<RuleIndex> new_index = prelim_.Compact();
  size_t kept = 0;
  for (size_t r = 0; r < new_index.size(); ++r) {
    if (new_index[r] < 0) continue;
    if (kept != r) {
      rules_[kept] = std::move(rules_[r]);
      noncommute_[kept] = std::move(noncommute_[r]);
      dirty_[kept] = dirty_[r];
      if (!prio_edges_stale_) prio_out_[kept] = std::move(prio_out_[r]);
    }
    for (RuleIndex& partner : noncommute_[kept]) partner = new_index[partner];
    if (!prio_edges_stale_) {
      for (RuleIndex& lower : prio_out_[kept]) lower = new_index[lower];
    }
    ++kept;
  }
  rules_.resize(kept);
  noncommute_.resize(kept);
  dirty_.resize(kept);
  if (!prio_edges_stale_) prio_out_.resize(kept);
  for (RuleIndex& slot : slot_of_rank_) slot = new_index[slot];
  std::erase(slot_of_rank_, -1);
  // The next Analyze() rebuilds the order; compaction is too rare for a
  // remap of its closure to pay off.
  priority_.reset();
  retired_ = 0;
  ++compactions_;
  STARBURST_METRIC_COUNT("analysis.slot_compactions", 1);
}

Result<IncrementalAnalyzer::RunResult> IncrementalAnalyzer::Analyze(
    const TerminationCertifications& certs, int max_violations) {
  if (!priority_.has_value()) {
    // Full clause resolution after an edit that touched the clauses: this
    // is where dangling precedes/follows left by RemoveRule surface as
    // errors. Retired slots hold no clauses.
    STARBURST_ASSIGN_OR_RETURN(PriorityOrder built,
                               PriorityOrder::Build(prelim_, rules_));
    priority_ = std::move(built);
  }
  RunResult result;

  // Pair sweep over dirty rules only. A dirty rule is always newly added
  // (a redefinition is Remove + Add), so its noncommute row is empty and
  // there are no stale verdicts to purge. Misses are computed in parallel
  // (each verdict is a pure function of the pair), then folded back
  // sequentially — the adjacency and the counters are identical for any
  // thread count.
  int n = prelim_.num_rules();
  struct Miss {
    RuleIndex d;
    RuleIndex c;
  };
  std::vector<Miss> misses;
  for (RuleIndex d = 0; d < n; ++d) {
    if (!dirty_[d]) continue;
    for (RuleIndex c : prelim_.index().OverlapCandidates(d)) {
      if (dirty_[c] && c < d) continue;  // pair enumerated from c's sweep
      misses.push_back({d, c});
    }
  }
  std::vector<uint8_t> verdicts(misses.size(), 0);
  ParallelFor(misses.size(), 8, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      verdicts[k] = CommutativityAnalyzer::SyntacticallyCommutePair(
                        prelim_, misses[k].d, misses[k].c)
                        ? 1
                        : 0;
    }
  });
  std::vector<RuleIndex> touched;
  for (size_t k = 0; k < misses.size(); ++k) {
    if (verdicts[k] != 0) continue;
    noncommute_[misses[k].d].push_back(misses[k].c);
    noncommute_[misses[k].c].push_back(misses[k].d);
    touched.push_back(misses[k].d);
    touched.push_back(misses[k].c);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (RuleIndex t : touched) {
    std::sort(noncommute_[t].begin(), noncommute_[t].end());
  }
  std::fill(dirty_.begin(), dirty_.end(), 0);
  result.stats.pair_checks_computed = static_cast<long>(misses.size());
  result.stats.pair_checks_reused =
      overlap_pairs_ - result.stats.pair_checks_computed;
  STARBURST_METRIC_COUNT("analysis.pair_cache_hits",
                         result.stats.pair_checks_reused);
  STARBURST_METRIC_COUNT("analysis.pair_cache_misses",
                         result.stats.pair_checks_computed);

  long hits_before = term_cache_.hits;
  long misses_before = term_cache_.misses;
  result.termination = TerminationAnalyzer::Analyze(prelim_, certs,
                                                    &term_cache_);
  result.stats.termination_components_reused = term_cache_.hits - hits_before;
  result.stats.termination_components_recomputed =
      term_cache_.misses - misses_before;
  STARBURST_METRIC_COUNT("analysis.component_cache_hits",
                         result.stats.termination_components_reused);
  STARBURST_METRIC_COUNT("analysis.component_cache_misses",
                         result.stats.termination_components_recomputed);

  SparseConfluenceAnalyzer confluence(prelim_, *priority_, noncommute_,
                                      certifications_);
  result.confluence =
      confluence.Analyze(result.termination.guaranteed, max_violations);

  // Dense indices are ranks among the live slots.
  slot_of_rank_.clear();
  for (RuleIndex slot = 0; slot < n; ++slot) {
    if (!prelim_.retired(slot)) slot_of_rank_.push_back(slot);
  }
  if (retired_ > 0) {
    std::vector<RuleIndex> rank(n, -1);
    for (size_t i = 0; i < slot_of_rank_.size(); ++i) {
      rank[slot_of_rank_[i]] = static_cast<RuleIndex>(i);
    }
    SlotsToRanks(rank, &result.termination, &result.confluence);
  }
  return result;
}

}  // namespace starburst
