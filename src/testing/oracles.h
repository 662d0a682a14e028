#ifndef STARBURST_TESTING_ORACLES_H_
#define STARBURST_TESTING_ORACLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/witness.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/transition.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"

namespace starburst {
namespace fuzzing {

/// One oracle per paper claim. Each oracle cross-checks a static analysis
/// verdict (or a representation invariant) against the actual execution
/// semantics via the engine and the execution-graph explorer:
///
///   kTerminationSound           Theorem 5.1 (Section 5): a terminating
///                               verdict implies the explorer reaches
///                               quiescence on randomized initial
///                               transitions.
///   kConfluenceSound            Theorem 6.7 (Section 6): a confluence
///                               certificate implies one final database
///                               for every enumerated interleaving.
///   kObservableDeterminismSound Theorem 8.1 (Section 8): a determinism
///                               certificate implies one observable
///                               stream.
///   kBackendEquivalence         the classic and the work-stealing
///                               explorer (1/2/8 workers) agree on final
///                               states, streams, verdicts, completeness,
///                               visited states and steps, and
///                               1/2/8-thread analysis renders identical
///                               FullReportToJson (the parallel backend's
///                               determinism contract).
///   kRoundTrip                  print -> parse -> print is a fixpoint for
///                               generated rules and whole scripts.
///   kDeltaEquivalence           the undo-log explorer (incremental
///                               fingerprints + delta reverts) agrees with
///                               ReferenceExplore, the string-keyed
///                               copy-per-branch walk
///                               (testing/reference_explorer.h), on
///                               final-state sets, observable streams,
///                               verdicts, completeness, visited states
///                               and steps — at one worker and at every
///                               work-stealing worker count, POR off on
///                               both sides; when the reference completes,
///                               the dedup_subtrees search completes with
///                               its final states and verdict in no more
///                               steps — and exploration leaves
///                               FullReportToJson bit-identical.
///   kPorEquivalence             commutativity-guided partial-order
///                               reduction (ExplorerOptions::por) prunes
///                               only redundant orders: POR and full
///                               exploration produce identical final
///                               states, observable streams, and
///                               may-not-terminate verdicts, classic and
///                               at every work-stealing worker count (the
///                               Lemma 6.1 ample-set soundness contract).
///   kIncrementalEquivalence     the §9 incremental analyzer and a
///                               from-scratch analysis agree exactly —
///                               termination/confluence reports (at
///                               unlimited and truncated violation caps)
///                               and the full pairwise commutativity
///                               matrix — across a seeded sequence of
///                               add/remove/redefine edits, under the
///                               same seeded quiescent and commutativity
///                               certifications, compactions included.
///   kWitnessReplay              divergence provenance (analysis/witness.h)
///                               is complete and honest: every divergent
///                               exploration (>= 2 final states or
///                               observable streams) must yield a
///                               divergence witness whose two sequences
///                               replay through the rule processor to
///                               exactly the divergent outcomes, and every
///                               non-divergent exploration must yield
///                               none.
enum class OracleId {
  kTerminationSound,
  kConfluenceSound,
  kObservableDeterminismSound,
  kBackendEquivalence,
  kRoundTrip,
  kDeltaEquivalence,
  kPorEquivalence,
  kIncrementalEquivalence,
  kWitnessReplay,
};

inline constexpr int kNumOracles = 9;

/// Stable snake_case name ("termination_sound", ...), used by the
/// fuzz_driver --oracle flag and corpus file headers.
const char* OracleName(OracleId id);

/// Inverse of OracleName; nullopt for an unknown name.
std::optional<OracleId> ParseOracleName(const std::string& name);

/// All oracles, in declaration order.
std::vector<OracleId> AllOracles();

/// Budgets for one oracle run. Exploration budgets bound the exponential
/// execution graphs; an exhausted budget yields a skip, never a verdict.
struct OracleOptions {
  int rows_per_table = 2;
  int max_depth = 48;
  long max_total_steps = 40000;
  /// Pool sizes swept by kBackendEquivalence.
  std::vector<int> backend_thread_counts = {1, 2, 8};
};

enum class OracleVerdict {
  /// The claim was checked and held.
  kPass,
  /// The claim could not be exercised on this case (analyzer declined to
  /// certify, exploration budget exhausted, nothing observable).
  kSkip,
  /// The claim was refuted: a theorem-level soundness bug (or a corpus
  /// regression).
  kFail,
};

struct OracleOutcome {
  OracleVerdict verdict = OracleVerdict::kSkip;
  /// Failure detail or skip reason; empty on pass.
  std::string message;

  bool failed() const { return verdict == OracleVerdict::kFail; }
};

/// Runs one oracle over `set`. `data_seed` derives the initial database
/// contents and the randomized initial transition; the same (set,
/// data_seed, options) triple always produces the same outcome.
OracleOutcome RunOracle(OracleId id, const GeneratedRuleSet& set,
                        uint64_t data_seed, const OracleOptions& options);

/// A case ready to explore: catalog + populated database + the randomized
/// initial transition derived from data_seed (the oracles' shared setup,
/// also used by tools/explain and witness extraction).
struct OracleCase {
  RuleCatalog catalog;
  Database db;
  Transition initial;

  OracleCase(RuleCatalog c, Database d)
      : catalog(std::move(c)), db(std::move(d)) {}
};

/// Builds the initial database and transition for (set, data_seed): one
/// insert into every table, a column update across one table, one delete
/// from another — so inserted, updated, and deleted triggering events can
/// all fire, with the touched tables varying by data_seed.
Result<OracleCase> PrepareOracleCase(const GeneratedRuleSet& set,
                                     uint64_t data_seed,
                                     const OracleOptions& options);

/// Explores (set, data_seed) with POR off — witness verdicts are
/// independent of the STARBURST_POR environment — and extracts a
/// divergence witness. An exhausted exploration budget yields
/// WitnessStatus::kNotEvaluated, never a verdict.
Result<WitnessExtraction> ExtractWitnessForCase(const GeneratedRuleSet& set,
                                                uint64_t data_seed,
                                                const OracleOptions& options);

/// ExtractWitnessForCase rendered as WitnessExtractionToJson — the golden
/// witness-corpus format and the tools/explain --json output.
Result<std::string> WitnessJsonForCase(const GeneratedRuleSet& set,
                                       uint64_t data_seed,
                                       const OracleOptions& options);

/// Serializes schema + rules as a self-contained, parseable rule-language
/// script (`create table` statements first, then `create rule`
/// definitions) — the corpus file format.
std::string RuleSetToScript(const GeneratedRuleSet& set);

/// Parses a script produced by RuleSetToScript (or written by hand): every
/// statement must be `create table`; rules follow. Leading `--` comment
/// lines are ignored by the lexer.
Result<GeneratedRuleSet> ParseRuleSetScript(const std::string& source);

/// One failure from a corpus replay.
struct ReplayFailure {
  OracleId oracle = OracleId::kRoundTrip;
  uint64_t data_seed = 0;
  std::string message;
};

/// Replays every oracle over every data seed; the corpus regression test
/// expects an empty result for every checked-in file.
std::vector<ReplayFailure> ReplayAllOracles(
    const GeneratedRuleSet& set, const std::vector<uint64_t>& data_seeds,
    const OracleOptions& options);

}  // namespace fuzzing
}  // namespace starburst

#endif  // STARBURST_TESTING_ORACLES_H_
