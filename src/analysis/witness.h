#ifndef STARBURST_ANALYSIS_WITNESS_H_
#define STARBURST_ANALYSIS_WITNESS_H_

#include <string>
#include <vector>

#include "analysis/commutativity.h"
#include "common/status.h"
#include "engine/database.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"

namespace starburst {

/// A minimal divergence witness: the provenance of one non-confluence (or
/// observable-nondeterminism) verdict. When exploration yields two or more
/// final states or observable streams, the witness names two concrete
/// rule-firing sequences from the initial state that end in different
/// outcomes, the first point where they diverge, and the Lemma 6.1
/// explanation — the responsible non-commuting rule pair, the violated
/// conditions, and the overlapping tables (via RuleFootprintIndex).
///
/// Witnesses are *checked, not trusted*: ReplayWitness() re-executes both
/// sequences through the rule processor and asserts they reproduce the
/// divergent fingerprints / streams (the witness_replay fuzz oracle pins
/// this end-to-end).
struct DivergenceWitness {
  /// What diverges between the two sequences.
  ///
  ///   kFinalState         the sequences reach different final databases
  ///                       (Section 6 non-confluence).
  ///   kObservableStream   the final database is unique but the observable
  ///                       streams differ (Section 8 nondeterminism).
  enum class Kind { kFinalState, kObservableStream };
  Kind kind = Kind::kFinalState;

  /// The two complete rule-firing sequences (rule indices, in firing
  /// order), each running from the shared initial state to quiescence or
  /// rollback. Sequence A leads to the lexicographically smaller outcome.
  std::vector<RuleIndex> sequence_a;
  std::vector<RuleIndex> sequence_b;

  /// Length of the shared prefix: sequence_a[i] == sequence_b[i] for all
  /// i < prefix_len, and the sequences differ at prefix_len (unless one is
  /// a proper prefix of the other, in which case diverge_* is -1 for the
  /// exhausted side).
  int prefix_len = 0;
  /// The rules chosen at the first divergence point (-1 when that sequence
  /// ends exactly at the divergence point).
  RuleIndex diverge_a = -1;
  RuleIndex diverge_b = -1;

  /// The responsible non-commuting pair per Lemma 6.1 (normalized i < j).
  /// Preferentially the divergence-point pair itself; otherwise the first
  /// non-commuting pair across the two divergent suffixes. When even that
  /// fails (every cross pair commutes syntactically — possible only if the
  /// static analysis is incomplete w.r.t. this input), pair_explained is
  /// false and the divergence-point rules are reported with empty causes.
  RuleIndex pair_i = -1;
  RuleIndex pair_j = -1;
  std::string pair_name_i;
  std::string pair_name_j;
  bool pair_explained = false;
  /// The violated Lemma 6.1 conditions for (pair_i, pair_j), both
  /// directions (CommutativityAnalyzer::ExplainPair).
  std::vector<NoncommutativityCause> causes;
  /// Footprint-table intersection of the pair: the concrete tables on which
  /// the two rules can conflict (RuleFootprintIndex::FootprintOf).
  std::vector<TableId> overlap_tables;

  /// The divergent outcomes, exactly as the explorer reports them: final_*
  /// are canonical database strings, stream_* are
  /// ObservableStreamToString() renderings. final_a < final_b for
  /// kFinalState; stream_a < stream_b for kObservableStream.
  std::string final_a;
  std::string final_b;
  std::string stream_a;
  std::string stream_b;
  /// Whether each sequence ends in a ROLLBACK (its final database is then
  /// the initial database).
  bool rollback_a = false;
  bool rollback_b = false;
};

/// Three-valued extraction status, matching the explorer's
/// ObservableDeterminism convention (PR6).
enum class WitnessStatus {
  /// A witness was reconstructed (the exploration was divergent).
  kFound,
  /// The exploration was not divergent: no witness exists.
  kNone,
  /// Extraction could not run to a verdict: the exploration or the
  /// reconstruction was cut by its budget, or the divergence is
  /// stream-only and streams were not enumerated
  /// (ExplorerOptions::dedup_subtrees). `note` says which.
  kNotEvaluated,
};

struct WitnessExtraction {
  WitnessStatus status = WitnessStatus::kNone;
  DivergenceWitness witness;  // meaningful only when status == kFound
  /// Human-readable reason when status == kNotEvaluated (empty otherwise).
  std::string note;
};

/// Budgets for witness reconstruction, a one-worker rerun of the explorer
/// core (the defaults match ExplorerOptions); max_total_steps bounds its cost.
struct WitnessOptions {
  int max_depth = 64;
  long max_total_steps = 200000;
};

/// Length of the longest shared prefix of two rule sequences.
int SharedPrefixLength(const std::vector<RuleIndex>& a,
                       const std::vector<RuleIndex>& b);

/// Picks the responsible non-commuting pair for two sequences diverging at
/// `prefix_len`: the divergence-point pair if it fails Lemma 6.1, else the
/// first non-commuting cross pair over the divergent suffixes (suffix-a
/// outer, suffix-b inner, in order). Returns false when every cross pair
/// commutes syntactically; *i/*j are then untouched.
bool SelectNoncommutingPair(const PrelimAnalysis& prelim,
                            const std::vector<RuleIndex>& seq_a,
                            const std::vector<RuleIndex>& seq_b,
                            int prefix_len, RuleIndex* i, RuleIndex* j);

/// Footprint-table intersection of two rules (sorted ascending).
std::vector<TableId> SharedFootprintTables(const PrelimAnalysis& prelim,
                                           RuleIndex i, RuleIndex j);

/// Reconstructs a minimal divergence witness for `result`, which must come
/// from exploring (catalog, initial_db, initial_transition). Reconstruction
/// reruns the explorer core through Explorer::VisitTerminals at one worker
/// with POR and dedup off and no stream cap, and keeps the first terminal
/// reaching each of the two lexicographically-smallest divergent outcomes
/// (by final-database fingerprint or stream string): the
/// lexicographically-first paths to them, stable across explorer thread
/// counts and POR modes. No state is copied per level (undo deltas).
///
/// Status semantics:
///   - result has >= 2 final states          -> kFound (kind kFinalState)
///   - else >= 2 observable streams          -> kFound (kind kObservableStream)
///   - else, streams not evaluated
///     (dedup_subtrees)                      -> kNotEvaluated
///   - else, result incomplete (cut by a
///     bound before a second outcome)        -> kNotEvaluated
///   - else                                  -> kNone
/// The reconstruction walk never takes more than max_total_steps steps; a
/// budget or depth cut before both targets are reached yields
/// kNotEvaluated. Bumps
/// explorer.witnesses_extracted on kFound; the walk itself records the
/// explorer.* metrics of one exploration.
Result<WitnessExtraction> ExtractWitness(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorationResult& result,
                                         const WitnessOptions& options = {});

/// Convenience mirroring Explorer::ExploreAfterStatements: applies
/// `user_statements` to a copy of `initial_db`, explores with
/// `explorer_options`, then extracts a witness from the result.
Result<WitnessExtraction> ExtractWitnessAfterStatements(
    const RuleCatalog& catalog, const Database& initial_db,
    const std::vector<std::string>& user_statements,
    const ExplorerOptions& explorer_options = {},
    const WitnessOptions& witness_options = {});

/// The verdict of re-executing a witness through the rule processor.
struct WitnessReplay {
  /// True when both sequences replayed exactly (every step eligible, right
  /// termination mode) and reproduced the witness's divergent outcomes.
  bool ok = false;
  /// What went wrong when !ok.
  std::string message;
  /// The replayed outcomes (canonical final databases and serialized
  /// streams), for diagnostics.
  std::string final_a;
  std::string final_b;
  std::string stream_a;
  std::string stream_b;
};

/// Re-executes both witness sequences step by step from (initial_db,
/// initial_transition): each forced rule must be eligible at its step, a
/// rollback must be the last step of its sequence, and after the last step
/// no rule may remain triggered. The replayed final states / streams must
/// match the witness fields exactly, and the pair declared divergent must
/// actually differ. Engine-level failures surface as a non-ok Result;
/// semantic mismatches (a forged or stale witness) return ok == false with
/// a message. Bumps the explorer.witness_replays metric counter.
Result<WitnessReplay> ReplayWitness(const RuleCatalog& catalog,
                                    const Database& initial_db,
                                    const Transition& initial_transition,
                                    const DivergenceWitness& witness);

/// Renders the witness as a human-readable divergence story (the
/// tools/explain output body).
std::string WitnessToString(const DivergenceWitness& witness,
                            const RuleCatalog& catalog);

}  // namespace starburst

#endif  // STARBURST_ANALYSIS_WITNESS_H_
