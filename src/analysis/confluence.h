#ifndef STARBURST_ANALYSIS_CONFLUENCE_H_
#define STARBURST_ANALYSIS_CONFLUENCE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "analysis/commutativity.h"
#include "analysis/priority.h"

namespace starburst {

/// One violation of the Confluence Requirement: the unordered pair
/// (pair_i, pair_j) generated sets R1, R2 containing a witness pair
/// (r1, r2) that does not commute. In the most common case r1 = pair_i and
/// r2 = pair_j (Corollary 6.8).
struct ConfluenceViolation {
  RuleIndex pair_i = -1;
  RuleIndex pair_j = -1;
  RuleIndex r1 = -1;
  RuleIndex r2 = -1;
  std::vector<RuleIndex> set_r1;
  std::vector<RuleIndex> set_r2;
  std::vector<NoncommutativityCause> causes;
};

/// Result of confluence analysis (Theorem 6.7). `confluent` requires both
/// the Confluence Requirement and termination (passed in by the caller,
/// since termination is analyzed separately per Section 5).
struct ConfluenceReport {
  /// The Confluence Requirement (Definition 6.5) holds for every unordered
  /// pair.
  bool requirement_holds = false;
  /// Termination prerequisite as supplied by the caller.
  bool termination_guaranteed = false;
  /// requirement_holds && termination_guaranteed (Theorem 6.7).
  bool confluent = false;
  std::vector<ConfluenceViolation> violations;
  /// Statistics for experiments.
  int64_t unordered_pairs_checked = 0;
  size_t max_set_size = 0;  // largest |R1| or |R2| encountered
};

/// Confluence analysis per Section 6: for every pair of unordered rules,
/// build the mutually recursive sets R1 and R2 of Definition 6.5 and check
/// all of R1 × R2 pairwise for commutativity.
class ConfluenceAnalyzer {
 public:
  /// `commutativity` and `priority` must outlive the analyzer and cover
  /// the same rule set.
  ConfluenceAnalyzer(const CommutativityAnalyzer& commutativity,
                     const PriorityOrder& priority)
      : commutativity_(commutativity), priority_(priority) {}

  /// The Definition 6.5 fixpoint for the unordered pair (ri, rj), over all
  /// rules. Exposed for the R1/R2-growth experiment (Figures 3/4).
  std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>> BuildSets(
      RuleIndex ri, RuleIndex rj) const;

  /// As above, with candidates restricted to `members` (used when R is
  /// Sig(T') for partial confluence). `members` must contain ri and rj.
  std::pair<std::vector<RuleIndex>, std::vector<RuleIndex>> BuildSetsWithin(
      RuleIndex ri, RuleIndex rj, const std::vector<bool>& members) const;

  /// Analyzes all rules. `termination_guaranteed` is the Section 5 verdict;
  /// `max_violations` bounds the report size (0 = first violation stops,
  /// negative = unlimited).
  ConfluenceReport Analyze(bool termination_guaranteed,
                           int max_violations = -1) const;

  /// Analyzes the subset `members` only (unordered pairs within the
  /// subset, Definition 6.5 relative to the subset).
  ConfluenceReport AnalyzeSubset(const std::vector<RuleIndex>& members,
                                 bool termination_guaranteed,
                                 int max_violations = -1) const;

 private:
  ConfluenceReport AnalyzeImpl(const std::vector<RuleIndex>& members,
                               bool termination_guaranteed,
                               int max_violations) const;

  const CommutativityAnalyzer& commutativity_;
  const PriorityOrder& priority_;
};

/// Sparse confluence scan over the full rule set, driven by the per-rule
/// noncommute adjacency maintained by the incremental analyzer instead of
/// a dense commutativity matrix.
///
/// The scan materializes a pair (a, b) only when it can matter:
///   - the pair can *grow* beyond singleton sets — possible only when
///     can-seed(a) or can-seed(b), where can-seed(x) ⇔ some rule triggered
///     by x has a lower-priority rule (a sound over-approximation of the
///     first Definition 6.5 growth step); or
///   - the singleton pair is syntactically noncommutative (b appears in
///     noncommute[a]).
/// Every other unordered pair keeps singleton sets {a}, {b} that commute,
/// so it contributes to the statistics but cannot produce a violation; the
/// statistics are reconstructed in closed form. Retired slots of the prelim
/// (PrelimAnalysis::RetireRule) are skipped and the closed forms count live
/// rules only, so with rule indices read as ranks among the live slots,
/// verdicts, violations (and their order), and statistics are bit-identical
/// to ConfluenceAnalyzer over the live rules.
class SparseConfluenceAnalyzer {
 public:
  /// `noncommute[i]` must be the sorted list of rules j ≠ i that fail the
  /// Lemma 6.1 syntactic check against i (symmetric, certifications NOT
  /// applied). All references must outlive the analyzer.
  SparseConfluenceAnalyzer(
      const PrelimAnalysis& prelim, const PriorityOrder& priority,
      const std::vector<std::vector<RuleIndex>>& noncommute,
      const CommutativityCertifications& certifications);

  /// Mirrors ConfluenceAnalyzer::Analyze over the full rule set.
  ConfluenceReport Analyze(bool termination_guaranteed,
                           int max_violations = -1) const;

  /// True when i and j are (conservatively) guaranteed to commute, with
  /// certifications applied — the sparse equivalent of
  /// CommutativityAnalyzer::Commute.
  bool Commute(RuleIndex i, RuleIndex j) const;

 private:
  const PrelimAnalysis& prelim_;
  const PriorityOrder& priority_;
  const std::vector<std::vector<RuleIndex>>& noncommute_;
  /// Certified pairs resolved to normalized (lo, hi) index pairs.
  std::set<std::pair<RuleIndex, RuleIndex>> certified_;
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_CONFLUENCE_H_
