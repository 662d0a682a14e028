#ifndef STARBURST_RULES_EXPLORER_H_
#define STARBURST_RULES_EXPLORER_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/commutativity.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/fingerprint.h"
#include "rules/processor.h"

namespace starburst {

/// Limits for exhaustive execution-graph exploration. Execution graphs can
/// be exponential in the number of unordered rules, so every dimension is
/// bounded; hitting a bound is reported, not an error.
struct ExplorerOptions {
  /// Maximum depth (rule considerations) along any path.
  int max_depth = 64;
  /// Maximum number of path steps explored in total. The walk stops when
  /// it would claim one more, so `steps_taken` never exceeds it.
  long max_total_steps = 200000;
  /// Maximum number of distinct observable streams to collect.
  int max_streams = 1024;
  /// When true, the explorer records the execution graph's nodes and edges
  /// (up to max_recorded_nodes) for visualization — see
  /// ExecutionGraphToDot() in analysis/dot.h.
  bool record_graph = false;
  int max_recorded_nodes = 256;
  /// When true, the walk is a visit-once search: a state reached again off
  /// the DFS path is not re-expanded (a `dedup_hits` count), and one
  /// reached again on the path is a cycle, as in full enumeration. In a
  /// complete run `final_states`, `final_databases` and
  /// `may_not_terminate` equal the full enumeration's: the DFS reaches
  /// every reachable state, and it finds a back edge exactly when a
  /// reachable cycle exists. A truncated run may keep fewer final states,
  /// since a state cut by a bound is not re-expanded either. Observable
  /// streams are path-sensitive (the stream prefix differs per path into
  /// a shared state), so `observable_streams` is left EMPTY in this mode.
  /// Use the default (false) when stream enumeration matters.
  bool dedup_subtrees = false;
  /// Worker count of the one exploration core. 0 (default) and 1 run it at
  /// one worker: the serial depth-first walk, with one stripe in its
  /// visited set. >= 2 runs a work-stealing search: each worker owns its
  /// own database + undo log and walks depth-first; every frame with two
  /// or more eligible rules is published to the worker's steal deque, and
  /// an idle worker steals the shallowest one, replays its firing path
  /// from the root on its own state, and claims untaken children through
  /// the frame's shared atomic cursor. States are interned in ONE shared
  /// striped hash set of 64 stripes keyed by 128-bit fingerprints
  /// (common/striped_set.h), so a state seen by any worker is counted once
  /// globally, and `max_total_steps` is a single atomic claimed per edge.
  /// POR's ample-set reduction applies at every state.
  ///
  /// Parallelism is adaptive: worker 0 walks alone on the calling thread
  /// and starts the num_threads - 1 helper threads only once the walk has
  /// claimed 64 steps. One helper costs a thread start plus join, 40-90 µs
  /// of wall time on a 4-CPU x86-64 host, against ~2 µs for the cheapest
  /// step, so smaller trees — most real inputs — finish without a thread
  /// start. `ExplorationStats::helper_threads` reports how many started.
  /// A helper whose thread cannot be created is skipped; the workers
  /// already running finish the walk.
  ///
  /// Results are UNCONDITIONALLY identical to the one-worker walk — final
  /// states, observable streams, `complete`, `may_not_terminate`,
  /// `steps_taken`, and every ExplorationStats counter except the
  /// scheduling telemetry (`steals`, `helper_threads`,
  /// `parallel_fallbacks`), for any num_threads: a parallel attempt either
  /// completes (the enumerated tree is provably the one-worker tree) or is
  /// discarded and the core is rerun once at one worker (budget / depth /
  /// stream-cap trips and errors are schedule-dependent mid-flight, so
  /// truncated results always come from the deterministic one-worker walk;
  /// the rerun is bounded by the same limits that tripped, and is counted
  /// in `ExplorationStats::parallel_fallbacks`). `record_graph` (node ids
  /// in first-visit order) and `dedup_subtrees` (visit-once in DFS order)
  /// always run at one worker, so num_threads changes nothing in those
  /// modes.
  int num_threads = 0;
  /// Commutativity-guided partial-order reduction (ample-set style). At a
  /// state whose eligible set contains a "safe" rule — one that (a)
  /// commutes with every other rule in the catalog per the Lemma 6.1
  /// analysis plus `por_certifications`, (b) has no observable actions
  /// (so pruning a path never drops an observable stream — ROLLBACK
  /// counts as observable), (c) never triggers itself, and (d) carries no
  /// priority edge to or from any other rule — only the lowest-indexed
  /// safe rule is expanded; the sibling orders it proves equivalent are
  /// pruned and counted in `ExplorationStats::por_pruned_orders`.
  /// `final_states`, `final_databases`, `observable_streams`, `complete`,
  /// and `may_not_terminate` are preserved exactly (see
  /// docs/analysis_guide.md for the soundness argument); path-count
  /// counters (`steps_taken`, `states_visited`, ...) shrink.
  ///
  ///   kDefault  follow the STARBURST_POR environment variable ("1" or
  ///             "true" enables reduction; unset/other disables it).
  ///   kOff      enumerate every interleaving (historic behavior).
  ///   kCommute  prune via the commutativity matrix as described above.
  enum class PorMode { kDefault, kOff, kCommute };
  PorMode por = PorMode::kDefault;
  /// Extra user-certified commutative pairs OR-ed into the syntactic
  /// Lemma 6.1 matrix before the safe-rule computation (same semantics as
  /// Analyzer certifications; pair names are case-insensitive).
  CommutativityCertifications por_certifications;
  /// When true, process-wide metrics collection (common/metrics.h) is held
  /// on for the duration of the exploration; the explorer flushes its
  /// `explorer.*` counters into the registry at end of run. Equivalent to
  /// wrapping the call in metrics::ScopedCollect.
  bool collect_metrics = false;
};

/// Instrumentation counters from one exploration; surfaced through
/// ExplorationResult::stats, ExplorationStatsToJson() in
/// analysis/json_report.h, and the explorer benchmarks.
struct ExplorationStats {
  /// Distinct execution states interned (including the synthetic rollback
  /// state when a rollback path exists).
  long states_interned = 0;
  /// Revisits off the DFS path, which the visit-once search does not
  /// re-expand (only in ExplorerOptions::dedup_subtrees mode).
  long dedup_hits = 0;
  /// Intern lookups that found an already-interned state (revisits and
  /// cycle hits). The interner hit rate is
  /// interner_hits / (interner_hits + states_interned).
  long interner_hits = 0;
  /// Maximum depth of the explicit DFS stack.
  int peak_stack_depth = 0;
  /// Total bytes of canonical database renderings built: one per distinct
  /// final database (the rollback final included), rendered once as the
  /// walk ends. Per-visit state fingerprints are maintained incrementally
  /// and render nothing.
  long canonicalization_bytes = 0;
  /// Undo-log delta reverts taken while backtracking: one per edge that
  /// stepped the live state forward.
  long delta_reverts = 0;
  /// Sibling expansion orders pruned by commutativity-guided partial-order
  /// reduction (ExplorerOptions::por). 0 when reduction is off or never
  /// applicable.
  long por_pruned_orders = 0;
  /// Two or more workers only: frames successfully stolen from another
  /// worker's deque. Schedule-dependent (surfaced as the explorer.steals
  /// gauge, never a determinism-contract counter); 0 at one worker.
  long steals = 0;
  /// Two or more workers only: helper threads actually started — 0 when the
  /// walk finished (or tripped a bound) before claiming 64 steps, else
  /// num_threads - 1 (fewer only if thread creation failed). Depends on
  /// num_threads, so like `steals` it is telemetry (the
  /// explorer.helper_threads gauge), never a determinism-contract counter.
  long helper_threads = 0;
  /// Two or more workers only: 1 when the parallel attempt was discarded
  /// (budget / depth / stream-cap trip or error) and the core was rerun at
  /// one worker to produce this result; else 0. Deterministic for a given
  /// workload + options.
  long parallel_fallbacks = 0;
  /// Wall-clock time spent exploring, in seconds.
  double wall_seconds = 0.0;
};

/// The result of exhaustively exploring every rule-processing execution
/// order from one initial state — the execution graph of Section 4.
struct ExplorationResult {
  /// True when exploration covered the whole graph within limits.
  bool complete = true;
  /// True when a cycle among execution states was found or the depth bound
  /// was hit: rule processing may not terminate.
  bool may_not_terminate = false;
  /// Canonical database fingerprints of the final states (distinct).
  /// Per Section 6: the rule set behaved confluently on this input iff
  /// there is exactly one entry and may_not_terminate is false.
  std::set<std::string> final_states;
  /// One representative database per final fingerprint.
  std::map<std::string, Database> final_databases;
  /// Distinct observable streams over all terminating paths, serialized
  /// (Section 8: observably deterministic iff exactly one).
  std::set<std::string> observable_streams;
  /// False when the exploration did not enumerate observable streams at
  /// all (ExplorerOptions::dedup_subtrees leaves `observable_streams`
  /// empty BY DESIGN — an empty set then means "not evaluated", not
  /// "deterministic"). Consumers must check this before deriving any
  /// observable-determinism verdict; `observable_determinism()` folds the
  /// check in.
  bool streams_evaluated = true;
  /// Distinct execution states visited, including the synthetic rollback
  /// state when a rollback path exists (consistent with the recorded
  /// graph's node accounting).
  long states_visited = 0;
  /// Total path steps taken.
  long steps_taken = 0;
  /// Instrumentation counters for this exploration.
  ExplorationStats stats;

  /// Recorded execution graph (only when ExplorerOptions::record_graph).
  /// Node ids are dense; an edge means "considering `rule` moves the state
  /// from `from` to `to`".
  struct RecordedEdge {
    int from = -1;
    int to = -1;
    RuleIndex rule = -1;
  };
  std::vector<RecordedEdge> graph_edges;
  /// Per-node: true when the node is a final state (no triggered rules, or
  /// reached via rollback).
  std::vector<bool> node_is_final;
  bool graph_truncated = false;

  bool unique_final_state() const {
    return !may_not_terminate && final_states.size() == 1;
  }

  /// Three-valued observable-determinism verdict (Section 8).
  /// kNotEvaluated when streams were not enumerated (dedup_subtrees mode):
  /// an empty `observable_streams` is never read as "deterministic" then.
  enum class ObservableDeterminism {
    kDeterministic,
    kNondeterministic,
    kNotEvaluated,
  };
  ObservableDeterminism observable_determinism() const {
    if (!streams_evaluated) return ObservableDeterminism::kNotEvaluated;
    if (may_not_terminate || observable_streams.size() > 1) {
      return ObservableDeterminism::kNondeterministic;
    }
    return ObservableDeterminism::kDeterministic;
  }
  bool unique_observable_stream() const {
    return observable_determinism() == ObservableDeterminism::kDeterministic;
  }
};

/// Serializes an observable stream in the explorer's set-of-streams form:
/// one line per event, "R:" (rollback) or "S:" (select) + payload + "\n".
/// ExplorationResult::observable_streams entries and the divergence-witness
/// stream fields (analysis/witness.h) use exactly this encoding.
std::string ObservableStreamToString(const std::vector<ObservableEvent>& stream);

/// One terminal of the execution graph — a final state, or the initial
/// database after a ROLLBACK — as Explorer::VisitTerminals reaches it. The
/// references are valid only during the visitor call.
struct ExplorationTerminal {
  const std::vector<RuleIndex>& sequence;  // fired from the root, in order
  const Database& final_db;  // the initial database after a rollback
  Hash128 final_fingerprint;  // final_db.ContentFingerprint()
  const std::string& stream;  // ObservableStreamToString; "" under dedup
  bool rollback = false;
};

/// Returns false to stop the walk.
using TerminalVisitor = std::function<bool(const ExplorationTerminal&)>;

/// Exhaustively enumerates every choice of eligible rule at every step,
/// starting from InitialProcessingState(catalog, initial_db,
/// initial_transition): each rule's pending transition is
/// `initial_transition`'s net effect on the rule's own table (the
/// user-generated initial transition of Section 4).
///
/// A ROLLBACK action terminates its path: the final database is
/// `initial_db` (transaction aborted) and the path's observable stream
/// includes the rollback event.
///
/// One live database is stepped forward with Database::BeginDelta and
/// backtracked with RevertDelta, so each step costs O(delta), not
/// O(database). States are interned by incremental 128-bit content
/// fingerprints; canonical strings are rendered only for final states.
/// fuzzing::ReferenceExplore (testing/reference_explorer.h) is the
/// independent string-keyed, copy-per-branch walk this engine is
/// differentially tested against.
class Explorer {
 public:
  static Result<ExplorationResult> Explore(const RuleCatalog& catalog,
                                           const Database& initial_db,
                                           const Transition& initial_transition,
                                           const ExplorerOptions& options = {});

  /// Convenience: applies `user_statements` (as one initial transition) to
  /// a copy of `initial_db`, then explores. This mirrors "run these user
  /// operations, then process rules, in every possible order".
  static Result<ExplorationResult> ExploreAfterStatements(
      const RuleCatalog& catalog, const Database& initial_db,
      const std::vector<std::string>& user_statements,
      const ExplorerOptions& options = {});

  /// Explore() at one worker (num_threads is ignored) that hands `visitor`
  /// every terminal in DFS order, each with its firing sequence. Eligible
  /// rules expand in ascending index order, so with POR off the first
  /// terminal reaching an outcome has the lexicographically smallest
  /// firing sequence to it. A stopped walk reports `complete == false`.
  static Result<ExplorationResult> VisitTerminals(
      const RuleCatalog& catalog, const Database& initial_db,
      const Transition& initial_transition, const ExplorerOptions& options,
      const TerminalVisitor& visitor);
};

}  // namespace starburst

#endif  // STARBURST_RULES_EXPLORER_H_
