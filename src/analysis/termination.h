#ifndef STARBURST_ANALYSIS_TERMINATION_H_
#define STARBURST_ANALYSIS_TERMINATION_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/prelim.h"
#include "analysis/triggering_graph.h"

namespace starburst {

/// User certifications supplied during the interactive analysis process
/// (Section 5): the user asserts that repeated consideration of the rules
/// on a cycle guarantees that a specific rule's condition eventually
/// becomes false or its action eventually has no effect. A cycle is
/// discharged when removing its certified rules breaks every cycle through
/// the component.
struct TerminationCertifications {
  /// Rule names the user has certified as "eventually quiescent".
  std::set<std::string> quiescent_rules;
};

/// One cyclic strong component of the triggering graph, with its verdict.
struct CycleReport {
  /// Rules of the strong component (ascending indices).
  std::vector<RuleIndex> rules;
  /// The certified rules that participate in this component.
  std::vector<RuleIndex> certified;
  /// True when the component minus its certified rules is acyclic, i.e.
  /// every cycle passes through a certified rule.
  bool discharged = false;
};

/// The termination analysis result (Theorem 5.1 plus the interactive
/// discharge process).
struct TerminationReport {
  /// True when every cyclic component is discharged (in particular when
  /// TG_R is acyclic): rule processing is guaranteed to terminate.
  bool guaranteed = false;
  /// True when TG_R had no cycles at all (Theorem 5.1 applies directly,
  /// with no user certification needed).
  bool acyclic = false;
  std::vector<CycleReport> cycles;
};

/// Cross-Analyze() memo of per-component discharge verdicts, keyed by the
/// member rules' (name, version) pairs plus the certified names. A cyclic
/// component whose rules and certifications are unchanged since the last
/// analysis reuses its AcyclicWithout verdict — after a single-rule edit,
/// only components containing the edited rule (the dirty SCCs) recompute.
/// The owner (IncrementalAnalyzer) bumps `rule_versions` on every
/// add/remove so redefinitions never reuse a stale verdict.
struct TerminationComponentCache {
  /// Monotonic per-rule versions (lowercased name -> version).
  std::map<std::string, uint64_t> rule_versions;
  /// Component key -> discharge verdict. Holds exactly the keys the latest
  /// Analyze() looked up: a key an edit invalidated names a superseded
  /// version and can never match again, so it is dropped rather than kept.
  std::map<std::string, bool> discharged;
  long hits = 0;
  long misses = 0;
};

/// Termination analysis (Section 5): builds TG_R, finds cyclic strong
/// components, and checks which are discharged by user certifications.
class TerminationAnalyzer {
 public:
  /// Analyzes all rules. With a non-null `cache`, per-component discharge
  /// verdicts are memoized across calls (see TerminationComponentCache).
  static TerminationReport Analyze(const PrelimAnalysis& prelim,
                                   const TerminationCertifications& certs = {},
                                   TerminationComponentCache* cache = nullptr);

  /// Analyzes the subset `members` (used by partial confluence, which
  /// needs termination of Sig(T') processed on its own — Section 7).
  static TerminationReport AnalyzeSubset(
      const PrelimAnalysis& prelim, const std::vector<RuleIndex>& members,
      const TerminationCertifications& certs = {});
};

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_TERMINATION_H_
