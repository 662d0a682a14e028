#include "analysis/confluence.h"

#include <algorithm>
#include <iterator>

namespace starburst {

namespace {

/// Worklist form of the Definition 6.5 fixpoint, shared by the dense and
/// sparse analyzers. Candidates enter a pool when a Triggers edge from the
/// current set reaches them and are admitted once they gain priority over
/// some member of the other set; the loop runs to quiescence, so the
/// result is the least fixpoint — the same sets the quadratic scan
/// produces, in O(reached edges) instead of O(n) per pass.
/// `members` restricts candidates when non-null.
std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>> BuildSetsCore(
    const PrelimAnalysis& prelim, const PriorityOrder& priority, RuleIndex ri,
    RuleIndex rj, const std::vector<bool>* members) {
  int n = prelim.num_rules();
  std::vector<bool> in_r1(n, false), in_r2(n, false);
  std::vector<bool> cand1(n, false), cand2(n, false);
  in_r1[ri] = true;
  in_r2[rj] = true;
  std::vector<RuleIndex> r1_list{ri}, r2_list{rj};
  std::vector<RuleIndex> frontier1{ri}, frontier2{rj};
  std::vector<RuleIndex> pool1, pool2;

  bool changed = true;
  while (changed) {
    changed = false;
    for (RuleIndex v : frontier1) {
      for (RuleIndex w : prelim.Triggers(v)) {
        if (members != nullptr && !(*members)[w]) continue;
        if (in_r1[w] || cand1[w] || w == rj) continue;
        cand1[w] = true;
        pool1.push_back(w);
      }
    }
    frontier1.clear();
    for (RuleIndex v : frontier2) {
      for (RuleIndex w : prelim.Triggers(v)) {
        if (members != nullptr && !(*members)[w]) continue;
        if (in_r2[w] || cand2[w] || w == ri) continue;
        cand2[w] = true;
        pool2.push_back(w);
      }
    }
    frontier2.clear();
    // Admit candidates that (now) have precedence over some rule of the
    // other set; rejected candidates stay pooled — the other set may still
    // grow under them.
    size_t kept = 0;
    for (RuleIndex w : pool1) {
      bool above = false;
      for (RuleIndex r2 : r2_list) {
        if (priority.Higher(w, r2)) {
          above = true;
          break;
        }
      }
      if (above) {
        in_r1[w] = true;
        r1_list.push_back(w);
        frontier1.push_back(w);
        changed = true;
      } else {
        pool1[kept++] = w;
      }
    }
    pool1.resize(kept);
    kept = 0;
    for (RuleIndex w : pool2) {
      bool above = false;
      for (RuleIndex r1 : r1_list) {
        if (priority.Higher(w, r1)) {
          above = true;
          break;
        }
      }
      if (above) {
        in_r2[w] = true;
        r2_list.push_back(w);
        frontier2.push_back(w);
        changed = true;
      } else {
        pool2[kept++] = w;
      }
    }
    pool2.resize(kept);
  }
  std::sort(r1_list.begin(), r1_list.end());
  std::sort(r2_list.begin(), r2_list.end());
  return {std::move(r1_list), std::move(r2_list)};
}

}  // namespace

std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>>
ConfluenceAnalyzer::BuildSets(RuleIndex ri, RuleIndex rj) const {
  return BuildSetsCore(commutativity_.prelim(), priority_, ri, rj, nullptr);
}

std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>>
ConfluenceAnalyzer::BuildSetsWithin(RuleIndex ri, RuleIndex rj,
                                    const std::vector<bool>& members) const {
  return BuildSetsCore(commutativity_.prelim(), priority_, ri, rj, &members);
}

ConfluenceReport ConfluenceAnalyzer::Analyze(bool termination_guaranteed,
                                             int max_violations) const {
  std::vector<RuleIndex> all(commutativity_.prelim().num_rules());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RuleIndex>(i);
  return AnalyzeImpl(all, termination_guaranteed, max_violations);
}

ConfluenceReport ConfluenceAnalyzer::AnalyzeSubset(
    const std::vector<RuleIndex>& members, bool termination_guaranteed,
    int max_violations) const {
  return AnalyzeImpl(members, termination_guaranteed, max_violations);
}

ConfluenceReport ConfluenceAnalyzer::AnalyzeImpl(
    const std::vector<RuleIndex>& members, bool termination_guaranteed,
    int max_violations) const {
  ConfluenceReport report;
  report.termination_guaranteed = termination_guaranteed;
  report.requirement_holds = true;

  int n = commutativity_.prelim().num_rules();
  std::vector<bool> member_mask(n, false);
  for (RuleIndex r : members) member_mask[r] = true;

  auto violations_full = [&]() {
    return max_violations >= 0 &&
           static_cast<int>(report.violations.size()) >= max_violations;
  };

  for (size_t a = 0; a < members.size(); ++a) {
    for (size_t b = a + 1; b < members.size(); ++b) {
      RuleIndex ri = members[a];
      RuleIndex rj = members[b];
      if (!priority_.Unordered(ri, rj)) continue;
      ++report.unordered_pairs_checked;
      auto [r1_set, r2_set] = BuildSetsWithin(ri, rj, member_mask);
      report.max_set_size =
          std::max({report.max_set_size, r1_set.size(), r2_set.size()});
      for (RuleIndex r1 : r1_set) {
        for (RuleIndex r2 : r2_set) {
          if (commutativity_.Commute(r1, r2)) continue;
          report.requirement_holds = false;
          if (!violations_full()) {
            ConfluenceViolation violation;
            violation.pair_i = ri;
            violation.pair_j = rj;
            violation.r1 = r1;
            violation.r2 = r2;
            violation.set_r1 = r1_set;
            violation.set_r2 = r2_set;
            violation.causes = commutativity_.Explain(r1, r2);
            report.violations.push_back(std::move(violation));
          }
        }
        if (!report.requirement_holds && violations_full()) break;
      }
      if (!report.requirement_holds && violations_full()) {
        report.confluent = false;
        return report;
      }
    }
  }
  report.confluent = report.requirement_holds && termination_guaranteed;
  return report;
}

SparseConfluenceAnalyzer::SparseConfluenceAnalyzer(
    const PrelimAnalysis& prelim, const PriorityOrder& priority,
    const std::vector<std::vector<RuleIndex>>& noncommute,
    const CommutativityCertifications& certifications)
    : prelim_(prelim), priority_(priority), noncommute_(noncommute) {
  for (const auto& [a, b] : certifications.pairs()) {
    RuleIndex i = prelim_.FindRule(a);
    RuleIndex j = prelim_.FindRule(b);
    if (i < 0 || j < 0 || i == j) continue;
    certified_.emplace(std::min(i, j), std::max(i, j));
  }
}

bool SparseConfluenceAnalyzer::Commute(RuleIndex i, RuleIndex j) const {
  if (i == j) return true;
  const std::vector<RuleIndex>& row = noncommute_[i];
  if (!std::binary_search(row.begin(), row.end(), j)) return true;
  return certified_.count(i < j ? std::make_pair(i, j)
                                : std::make_pair(j, i)) > 0;
}

ConfluenceReport SparseConfluenceAnalyzer::Analyze(bool termination_guaranteed,
                                                   int max_violations) const {
  ConfluenceReport report;
  report.termination_guaranteed = termination_guaranteed;
  report.requirement_holds = true;
  // Slots: retired ones (empty rows, no edges, no noncommute partners) are
  // skipped, and pair counts are over the `live` rules.
  int n = prelim_.num_rules();
  int64_t live = 0;

  // can-seed(x): some rule triggered by x has a rule below it in P — the
  // only way the pair's first Definition 6.5 growth step can fire.
  std::vector<bool> can_seed(n, false);
  std::vector<RuleIndex> seeds;  // ascending
  for (RuleIndex x = 0; x < n; ++x) {
    if (!prelim_.retired(x)) ++live;
    for (RuleIndex w : prelim_.Triggers(x)) {
      if (priority_.HasLowerRule(w)) {
        can_seed[x] = true;
        seeds.push_back(x);
        break;
      }
    }
  }

  auto violations_full = [&]() {
    return max_violations >= 0 &&
           static_cast<int>(report.violations.size()) >= max_violations;
  };

  bool truncated = false;
  RuleIndex stop_a = -1, stop_b = -1;
  std::vector<RuleIndex> partners;
  for (RuleIndex a = 0; a < n && !truncated; ++a) {
    if (prelim_.retired(a)) continue;
    partners.clear();
    if (can_seed[a]) {
      for (RuleIndex b = a + 1; b < n; ++b) {
        if (!prelim_.retired(b)) partners.push_back(b);
      }
    } else {
      // Only growable pairs (partner can seed) and noncommuting singleton
      // pairs can produce violations; merge both sorted lists above `a`.
      const std::vector<RuleIndex>& row = noncommute_[a];
      std::set_union(std::upper_bound(row.begin(), row.end(), a), row.end(),
                     std::upper_bound(seeds.begin(), seeds.end(), a),
                     seeds.end(), std::back_inserter(partners));
    }
    for (RuleIndex b : partners) {
      if (!priority_.Unordered(a, b)) continue;
      if (can_seed[a] || can_seed[b]) {
        auto [r1_set, r2_set] = BuildSetsCore(prelim_, priority_, a, b,
                                              nullptr);
        report.max_set_size =
            std::max({report.max_set_size, r1_set.size(), r2_set.size()});
        for (RuleIndex r1 : r1_set) {
          for (RuleIndex r2 : r2_set) {
            if (Commute(r1, r2)) continue;
            report.requirement_holds = false;
            if (!violations_full()) {
              ConfluenceViolation violation;
              violation.pair_i = a;
              violation.pair_j = b;
              violation.r1 = r1;
              violation.r2 = r2;
              violation.set_r1 = r1_set;
              violation.set_r2 = r2_set;
              violation.causes =
                  CommutativityAnalyzer::ExplainPair(prelim_, r1, r2);
              report.violations.push_back(std::move(violation));
            }
          }
          if (!report.requirement_holds && violations_full()) break;
        }
      } else if (!Commute(a, b)) {
        // Singleton sets {a}, {b}: the pair itself is the only witness.
        report.requirement_holds = false;
        if (!violations_full()) {
          ConfluenceViolation violation;
          violation.pair_i = a;
          violation.pair_j = b;
          violation.r1 = a;
          violation.r2 = b;
          violation.set_r1 = {a};
          violation.set_r2 = {b};
          violation.causes = CommutativityAnalyzer::ExplainPair(prelim_, a, b);
          report.violations.push_back(std::move(violation));
        }
      }
      if (!report.requirement_holds && violations_full()) {
        stop_a = a;
        stop_b = b;
        truncated = true;
        break;
      }
    }
  }

  if (truncated) {
    // Unordered pairs up to and including the stopping pair in (a, b)
    // lexicographic order — skipped pairs never mutate the report, so the
    // stopping pair matches the dense scan and the count is reconstructed
    // in closed form from the priority order.
    int64_t count = 0;
    int64_t rank = 0;  // live rules before x
    for (RuleIndex x = 0; x < stop_a; ++x) {
      if (prelim_.retired(x)) continue;
      count += (live - 1 - rank) - priority_.NumOrderedPartnersAbove(x);
      ++rank;
    }
    for (RuleIndex y = stop_a + 1; y <= stop_b; ++y) {
      if (!prelim_.retired(y) && priority_.Unordered(stop_a, y)) ++count;
    }
    report.unordered_pairs_checked = count;
    report.max_set_size = std::max<size_t>(report.max_set_size, 1);
    report.confluent = false;
    return report;
  }
  int64_t total = live * (live - 1) / 2 - priority_.num_ordered_pairs();
  report.unordered_pairs_checked = total;
  if (total > 0) report.max_set_size = std::max<size_t>(report.max_set_size, 1);
  report.confluent = report.requirement_holds && termination_guaranteed;
  return report;
}

}  // namespace starburst
