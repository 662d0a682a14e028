#ifndef STARBURST_RULES_PROCESSOR_H_
#define STARBURST_RULES_PROCESSOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/exec.h"
#include "engine/transition.h"
#include "rules/rule_catalog.h"

namespace starburst {

/// The mutable state of a rule-processing run: the database plus, for each
/// rule, the composite transition since the rule was last considered (or
/// since the assertion point if never considered) — the rule's "marker"
/// from Section 2 of the paper.
struct RuleProcessingState {
  Database db;
  std::vector<Transition> pending;  // one per rule
  /// When set, ConsiderRule logs the inverse of every pending-transition
  /// mutation here so the explorer can backtrack by reverting instead of
  /// copying `pending`. Null for the plain processor.
  TransitionUndoLog* pending_undo = nullptr;

  RuleProcessingState(const Schema* schema, int num_rules)
      : db(schema), pending(num_rules) {}
};

/// Canonical key of an execution state: the database's canonical string,
/// '#', then each pending transition's canonical string followed by '|'.
/// The database part ignores tuple ids; the pending part does not, so
/// logically equal states reached with different tuple ids get distinct
/// keys (extra exploration, never a wrong result). The explorer's 128-bit
/// state fingerprints draw exactly these equivalence classes.
std::string CanonicalStateKey(const RuleProcessingState& state);

/// Executes `user_statements` against `*db` in order and returns their
/// composed net effect: the user-generated initial transition of Section 4
/// that rule processing (and exploration) starts from. InvalidArgument when
/// a statement rolls back.
Result<Transition> ApplyUserStatements(
    Database* db, const std::vector<std::string>& user_statements);

/// Rules currently triggered: those whose pending transition's net effect
/// on their table intersects Triggered-By (ascending rule index).
std::vector<RuleIndex> TriggeredRules(const RuleCatalog& catalog,
                                      const RuleProcessingState& state);

/// The eligible subset of an already-computed triggered set: the maximal
/// elements under the priority partial order (Section 2's conflict set).
/// Ascending rule index, like `triggered`. Shared by the processor's
/// consideration loop and the explorer's per-state expansion.
std::vector<RuleIndex> EligibleRules(const RuleCatalog& catalog,
                                     const std::vector<RuleIndex>& triggered);

/// Outcome of considering one rule (one execution-graph edge, Section 4).
struct StepOutcome {
  bool condition_was_true = false;
  bool rollback = false;
  std::vector<ObservableEvent> observables;
  /// Net tuple changes performed by the action (0 when the condition was
  /// false or the action had no effect).
  int tuples_inserted = 0;
  int tuples_deleted = 0;
  int tuples_updated = 0;
  /// Pending-transition compositions performed by this step: one per
  /// (action statement, rule) pair — the work the "marker" maintenance of
  /// Section 2 does. Feeds the processor.transition_compositions metric.
  int transition_compositions = 0;
};

/// Considers rule `r` from `state`: checks its condition against its
/// triggering transition and, if true, executes its action, composing the
/// action's net changes into every rule's pending transition (including
/// r's own, which is reset first). This is exactly the rule-processing
/// step of Section 2.
Result<StepOutcome> ConsiderRule(const RuleCatalog& catalog,
                                 RuleProcessingState* state, RuleIndex r);

/// Picks one eligible rule; `eligible` is non-empty and ascending.
/// `step` is the 0-based consideration count, usable for seeded pseudo-
/// random strategies.
using ChoiceStrategy =
    std::function<size_t(const std::vector<RuleIndex>& eligible, int step)>;

/// Always picks the lowest-index eligible rule (deterministic default).
ChoiceStrategy FirstEligibleStrategy();

/// Seeded pseudo-random pick; different seeds explore different execution
/// orders of unordered rules.
ChoiceStrategy SeededRandomStrategy(uint64_t seed);

struct ProcessorOptions {
  /// Upper bound on rule considerations per assertion point; exceeding it
  /// fails with LimitExceeded (the run may be non-terminating).
  int max_steps = 10000;
  ChoiceStrategy choice;  // null = FirstEligibleStrategy()
  /// Record a per-consideration trace in ProcessingResult::trace.
  bool record_trace = false;
};

/// One recorded rule consideration (when ProcessorOptions::record_trace).
struct ConsiderationTrace {
  RuleIndex rule = -1;
  bool condition_was_true = false;
  bool rolled_back = false;
  int tuples_inserted = 0;
  int tuples_deleted = 0;
  int tuples_updated = 0;
  /// Rules triggered at the time this one was chosen.
  int triggered_count = 0;
  /// Rules eligible (maximal by priority) at the time.
  int eligible_count = 0;
};

/// Renders a trace as a table for the interactive environment.
std::string TraceToString(const std::vector<ConsiderationTrace>& trace,
                          const RuleCatalog& catalog);

/// The result of rule processing at one assertion point.
struct ProcessingResult {
  /// True when processing reached a state with no triggered rules.
  bool terminated = false;
  /// True when a rule action executed ROLLBACK: the database was restored
  /// to its state at transaction start and the transaction aborted.
  bool rolled_back = false;
  int steps = 0;
  std::vector<ObservableEvent> observables;
  /// The rules considered, in order (one entry per execution-graph edge).
  std::vector<RuleIndex> considered;
  /// Per-consideration details (only when ProcessorOptions::record_trace).
  std::vector<ConsiderationTrace> trace;
};

/// Executes user transactions with Starburst rule processing (Section 2).
///
/// Usage: Begin() (implicit on first statement), any number of
/// ExecuteUserStatement(), then AssertRules() at each assertion point;
/// Commit() ends the transaction. ROLLBACK (from a rule or the user)
/// restores the database to its state at Begin().
class RuleProcessor {
 public:
  RuleProcessor(Database* db, const RuleCatalog* catalog,
                ProcessorOptions options = {});

  /// Starts a transaction: opens an undo-log delta on the database and
  /// clears all pending transitions. No-op when already in a transaction.
  void Begin();

  /// Executes one user statement within the current transaction (starting
  /// one if needed), composing its changes into every rule's pending
  /// transition. A user ROLLBACK aborts the transaction immediately.
  Result<ExecOutcome> ExecuteUserStatement(const Stmt& stmt);

  /// Parses and executes `sql` (one statement).
  Result<ExecOutcome> ExecuteUserStatement(std::string_view sql);

  /// Runs rule processing at an assertion point. On normal termination the
  /// transaction stays open (more statements / assertion points may
  /// follow); on rollback it is aborted. A rule action that fails at
  /// runtime (e.g. division by zero) aborts the transaction — the database
  /// is restored to its state at Begin(), so no partial rule effects
  /// survive — and the error is returned. Exceeding max_steps returns
  /// LimitExceeded with the transaction left open so the caller can
  /// inspect the runaway state.
  Result<ProcessingResult> AssertRules();

  /// Ends the transaction, keeping its effects.
  void Commit();

  bool in_transaction() const { return in_transaction_; }

  /// Deactivates / reactivates a rule (Starburst's `deactivate rule`): a
  /// deactivated rule is never chosen for consideration. Its composite
  /// pending transition keeps accumulating within the transaction, so a
  /// later reactivation sees every change since the rule's last
  /// consideration or the last assertion point, whichever is later.
  /// NotFound for an unknown rule name.
  Status SetRuleEnabled(const std::string& name, bool enabled);
  bool IsRuleEnabled(RuleIndex r) const { return enabled_[r]; }

 private:
  /// Bumps the per-rule processor.fired.<name> counter (no-op while
  /// metrics collection is off; handles are cached per processor).
  void NoteFiring(RuleIndex r);

  Database* db_;
  const RuleCatalog* catalog_;
  ProcessorOptions options_;
  std::vector<Transition> pending_;
  std::vector<bool> enabled_;
  bool in_transaction_ = false;
  /// Lazily built per-rule metric handles (see NoteFiring).
  std::vector<metrics::Counter*> fired_counters_;
};

}  // namespace starburst

#endif  // STARBURST_RULES_PROCESSOR_H_
