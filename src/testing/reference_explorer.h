#ifndef STARBURST_TESTING_REFERENCE_EXPLORER_H_
#define STARBURST_TESTING_REFERENCE_EXPLORER_H_

#include "common/status.h"
#include "engine/database.h"
#include "engine/transition.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"

namespace starburst {
namespace fuzzing {

/// The independent reference for the explorer's differential tests (the
/// delta_equivalence oracle and the explorer equivalence tests): a plain
/// recursive depth-first walk over the Section 4 execution graph that
/// copies the whole state for every branch and keys states by
/// CanonicalStateKey strings. It shares nothing with Explorer beyond the
/// rule-processing step itself — no undo log, no fingerprints, no
/// interner.
///
/// It always enumerates every order: ExplorerOptions::por, dedup_subtrees,
/// record_graph, and num_threads are ignored. `max_depth`,
/// `max_total_steps`, and `max_streams` are honoured exactly as the
/// explorer's one-worker walk honours them — the budget is checked after the
/// final-state check, and a stream already collected never marks the
/// result incomplete — so `complete`, `may_not_terminate`,
/// `final_states`, `final_databases`, `observable_streams`,
/// `states_visited` (the synthetic rollback state included) and
/// `steps_taken` equal Explorer's with POR off. ExplorationStats is left
/// zero. Recursion depth is bounded by `max_depth`.
Result<ExplorationResult> ReferenceExplore(const RuleCatalog& catalog,
                                           const Database& initial_db,
                                           const Transition& initial_transition,
                                           const ExplorerOptions& options);

}  // namespace fuzzing
}  // namespace starburst

#endif  // STARBURST_TESTING_REFERENCE_EXPLORER_H_
