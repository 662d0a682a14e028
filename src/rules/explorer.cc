#include "rules/explorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/commutativity.h"
#include "common/metrics.h"
#include "common/striped_set.h"
#include "common/trace.h"
#include "common/work_stealing.h"
#include "engine/fingerprint.h"

namespace starburst {

std::string ObservableStreamToString(const std::vector<ObservableEvent>& stream) {
  std::string out;
  for (const ObservableEvent& ev : stream) {
    out += ev.kind == ObservableEvent::Kind::kRollback ? "R:" : "S:";
    out += ev.payload;
    out += "\n";
  }
  return out;
}

namespace {

/// Interns 128-bit state fingerprints to dense uint32 ids. No canonical
/// strings are stored; distinct logical states are distinct up to 128-bit
/// hash collisions (cross-checked against the string-keyed reference walk
/// by the delta_equivalence fuzz oracle). Every per-state structure
/// downstream (visited / on-path / graph-node / memo) is a flat vector
/// indexed by the dense id.
class FingerprintInterner {
 public:
  /// Returns {dense id, true when freshly interned}.
  std::pair<uint32_t, bool> Intern(const Hash128& key) {
    auto [it, fresh] =
        ids_.try_emplace(key, static_cast<uint32_t>(ids_.size()));
    return {it->second, fresh};
  }

  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<Hash128, uint32_t, Hash128Hasher> ids_;
};

/// Salt separating the pending-transition lane of a state fingerprint from
/// the database lane, and the synthetic-rollback lane from both.
constexpr uint64_t kPendingSalt = 0x70656e64696e67ull;
constexpr uint64_t kRollbackSalt = 0x726f6c6c6261636bull;

/// Fingerprint of an execution state: the database's incremental content
/// fingerprint plus each pending transition's incremental content hash
/// mixed with a per-rule salt. Nothing is rendered — both lanes are
/// maintained deltas. The equivalence classes are those of
/// CanonicalStateKey (rules/processor.h): the database lane is
/// rid-independent, the pending lane rid-sensitive (Transition::ContentHash
/// covers rids) — and delta revert restores rid counters, so a path
/// assigns the same rids here as in a walk that copies the state per
/// branch.
Hash128 StateFingerprint(const RuleProcessingState& state) {
  Hash128 fp = state.db.ContentFingerprint();
  uint64_t salt = kPendingSalt;
  for (const Transition& t : state.pending) {
    fp.Add(MixWithSalt(t.ContentHash(), salt++));
  }
  return fp;
}

/// Inclusive upper edges for the explorer.revert_depth histogram (DFS
/// stack depth at each undo-log revert).
const std::vector<int64_t>& RevertDepthBounds() {
  static const std::vector<int64_t>* bounds =
      new std::vector<int64_t>{1, 2, 4, 8, 16, 32, 64};
  return *bounds;
}

/// Inclusive upper edges for the explorer.interner_contention histogram
/// (contended stripe-lock acquisitions on the shared interner, recorded
/// once per work-stealing exploration).
const std::vector<int64_t>& ContentionBounds() {
  static const std::vector<int64_t>* bounds = new std::vector<int64_t>{
      1, 10, 100, 1000, 10000, 100000};
  return *bounds;
}

bool TestBit(const std::vector<bool>& bits, uint32_t id) {
  return id < bits.size() && bits[id];
}

void SetBit(std::vector<bool>* bits, uint32_t id, bool value) {
  if (id >= bits->size()) bits->resize(id + 1, false);
  (*bits)[id] = value;
}

/// Resolves ExplorerOptions::por. kDefault follows the STARBURST_POR
/// environment variable (same pattern as STARBURST_THREADS), so the whole
/// test suite doubles as a POR on/off matrix.
bool PorEnabled(const ExplorerOptions& options) {
  switch (options.por) {
    case ExplorerOptions::PorMode::kOff:
      return false;
    case ExplorerOptions::PorMode::kCommute:
      return true;
    case ExplorerOptions::PorMode::kDefault:
      break;
  }
  const char* env = std::getenv("STARBURST_POR");
  return env != nullptr &&
         (std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0);
}

/// Per-rule partial-order-reduction safety, computed ONCE per exploration
/// and shared read-only across workers. safe[r] holds when expanding r
/// FIRST provably reaches the same final states, observable streams, and
/// termination verdict as every order that defers r:
///   - r commutes with every other catalog rule (the Lemma 6.1 syntactic
///     matrix OR-ed with ExplorerOptions::por_certifications), so firing r
///     cannot trigger, untrigger, or perturb any deferred sibling — and no
///     sibling can untrigger r, so r stays pending until fired;
///   - r has no observable actions (SELECT / ROLLBACK), so the pruned
///     sibling orders contribute no distinct observable stream;
///   - r never triggers itself, so r fires at most once per path and the
///     forced prefix terminates;
///   - r is priority-unordered with every other rule, so the reduction
///     never commutes a consideration across a Section 3 ordering edge.
/// Returns empty when reduction is disabled.
std::vector<bool> PorSafeRules(const RuleCatalog& catalog,
                               const ExplorerOptions& options) {
  if (!PorEnabled(options)) return {};
  const PrelimAnalysis& prelim = catalog.prelim();
  const int n = catalog.num_rules();
  CommutativityAnalyzer commute(prelim, catalog.schema(),
                                options.por_certifications);
  std::vector<bool> safe(static_cast<size_t>(n), false);
  for (RuleIndex i = 0; i < n; ++i) {
    if (prelim.rule(i).observable) continue;
    if (prelim.TriggersRule(i, i)) continue;
    bool ok = true;
    for (RuleIndex j = 0; ok && j < n; ++j) {
      if (j == i) continue;
      ok = commute.Commute(i, j) && catalog.priority().Unordered(i, j);
    }
    safe[static_cast<size_t>(i)] = ok;
  }
  return safe;
}

/// Ample-set reduction applied to a freshly chosen eligible set: when it
/// contains a safe rule, only the lowest-indexed one is expanded (Choose
/// returns ascending indices, so the pick is deterministic) and the
/// sibling orders are counted into `por_pruned_orders`.
void ReduceEligible(const std::vector<bool>* por_safe,
                    std::vector<RuleIndex>* eligible, long* pruned_orders) {
  if (por_safe == nullptr || eligible->size() <= 1) return;
  for (RuleIndex r : *eligible) {
    if ((*por_safe)[static_cast<size_t>(r)]) {
      *pruned_orders += static_cast<long>(eligible->size()) - 1;
      eligible->assign(1, r);
      return;
    }
  }
}

/// The classic single-threaded walk: an explicit-stack DFS over ONE live
/// state, stepped forward with Database::BeginDelta and backtracked with
/// RevertDelta, interning states by incremental fingerprint. Each step
/// costs O(delta), not O(database).
class ExplorerImpl {
 public:
  /// `por_safe` is the precomputed POR safety bitvector (see PorSafeRules),
  /// or nullptr when reduction is off.
  ExplorerImpl(const RuleCatalog& catalog, const Database& initial_db,
               const ExplorerOptions& options,
               const std::vector<bool>* por_safe = nullptr)
      : catalog_(catalog),
        initial_db_(initial_db),
        options_(options),
        por_safe_(por_safe) {}

  Result<ExplorationResult> Run(const Transition& initial_transition) {
    auto start = std::chrono::steady_clock::now();
    // The one database copy of the whole exploration: every branch below
    // steps it forward and reverts it via the undo log.
    cur_.emplace(&catalog_.schema(), catalog_.num_rules());
    cur_->db = initial_db_;
    for (Transition& t : cur_->pending) t = initial_transition;
    cur_->pending_undo = &pending_undo_;
    Enter(kNoParent, /*via=*/-1, /*restore_stream=*/0, /*delta_open=*/false);
    return Drive(start);
  }

 private:
  Result<ExplorationResult> Drive(
      std::chrono::steady_clock::time_point start) {
    // Explicit-stack DFS: the top frame either expands its next eligible
    // rule (which records a terminal child or pushes a new frame) or is
    // popped. Depth is bounded by ExplorerOptions::max_depth, never by the
    // C++ call stack.
    while (!stack_.empty()) {
      size_t top = stack_.size() - 1;
      Frame& f = stack_[top];
      if (f.next_child >= f.eligible.size()) {
        PopFrame();
        continue;
      }
      RuleIndex r = f.eligible[f.next_child++];
      ++result_.steps_taken;
      // The live state already sits at this frame: children revert their
      // database deltas AND their pending mutations (via the pending undo
      // log), so nothing is copied or restored per child.
      pending_undo_.Mark();
      cur_->db.BeginDelta();
      auto step = ConsiderRule(catalog_, &*cur_, r);
      if (!step.ok()) return step.status();
      size_t mark = stream_.size();
      if (!options_.dedup_subtrees) {
        for (const ObservableEvent& ev : step.value().observables) {
          stream_.push_back(ev);
        }
      }
      if (step.value().rollback) {
        // Transaction aborted: final database is the initial database.
        cur_->db.RevertDelta();
        pending_undo_.RevertToMark();
        NoteRevert();
        EnterRollback(top, r);
        stream_.resize(mark);
      } else {
        Enter(top, r, mark, /*delta_open=*/true);  // may invalidate `f`
      }
    }
    result_.states_visited = visited_count_;
    result_.streams_evaluated = !options_.dedup_subtrees;
    result_.stats.states_interned = static_cast<long>(interner_.size());
    result_.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(result_);
  }

  static constexpr size_t kNoParent = static_cast<size_t>(-1);
  static constexpr int kNodeUnassigned = -2;

  struct Frame {
    /// True when this frame holds an open delta on `cur_->db` plus a
    /// matching pending-undo mark (every frame except the root); PopFrame
    /// reverts both. The frame stores no state of its own — `cur_` is
    /// stepped forward and reverted in place.
    bool owns_delta = false;
    uint32_t id = 0;
    int node = -1;
    std::vector<RuleIndex> eligible;
    size_t next_child = 0;
    /// Stream length to restore when this frame is popped.
    size_t restore_stream = 0;
    /// Final-state ids reached from this subtree (dedup mode only).
    std::vector<uint32_t> reached_finals;
    /// True when the subtree's enumeration is provably incomplete (budget /
    /// depth bail-out) or entangled with a state still on the path (cycle);
    /// tainted subtrees are never memoized.
    bool tainted = false;
  };

  void MarkVisited(uint32_t id) {
    if (!TestBit(visited_, id)) {
      SetBit(&visited_, id, true);
      ++visited_count_;
    }
  }

  /// Counts an undo-log revert and records the DFS depth it happened at.
  /// The per-event histogram Record is the only per-step registry write in
  /// the explorer (everything else flushes once at end of run), and it is
  /// gated on metrics::Enabled() inside the macro.
  void NoteRevert() {
    ++result_.stats.delta_reverts;
    STARBURST_METRIC_HISTOGRAM("explorer.revert_depth", RevertDepthBounds(),
                               static_cast<int64_t>(stack_.size()));
  }

  /// Returns the recorded-graph node id for interned state `id`, or -1
  /// when recording is off or the node cap was hit.
  int GraphNode(uint32_t id) {
    if (!options_.record_graph) return -1;
    if (id >= graph_node_.size()) graph_node_.resize(id + 1, kNodeUnassigned);
    int& slot = graph_node_[id];
    if (slot == kNodeUnassigned) {
      if (next_graph_node_ >= options_.max_recorded_nodes) {
        result_.graph_truncated = true;
        slot = -1;
      } else {
        slot = next_graph_node_++;
        result_.node_is_final.push_back(false);
      }
    }
    return slot;
  }

  void RecordEdge(int from, int to, RuleIndex rule) {
    if (!options_.record_graph || from < 0 || to < 0) return;
    result_.graph_edges.push_back({from, to, rule});
  }

  /// Records the current path's observable stream (full enumeration mode
  /// only). A stream that is already in the set never marks the result
  /// incomplete — only a NEW stream that would exceed max_streams does.
  void RecordStream() {
    if (options_.dedup_subtrees) return;
    std::string s = ObservableStreamToString(stream_);
    if (static_cast<int>(result_.observable_streams.size()) <
        options_.max_streams) {
      result_.observable_streams.insert(std::move(s));
    } else if (result_.observable_streams.count(s) == 0) {
      result_.complete = false;
    }
  }

  /// Records a final database and the path's observable stream. Final
  /// databases are deduplicated by content fingerprint, and the reported
  /// canonical string is rendered only for FRESH fingerprints, so a
  /// revisited final costs O(1), not O(database).
  uint32_t RecordFinal(const Database& db) {
    auto [it, fresh] = final_ids_.try_emplace(
        db.ContentFingerprint(), static_cast<uint32_t>(final_ids_.size()));
    if (fresh) {
      std::string db_key = db.CanonicalString();
      result_.stats.canonicalization_bytes +=
          static_cast<long>(db_key.size());
      result_.final_states.insert(db_key);
      result_.final_databases.emplace(std::move(db_key), db);
    }
    RecordStream();
    return it->second;
  }

  void AddFinal(size_t parent, uint32_t final_id) {
    if (!options_.dedup_subtrees || parent == kNoParent) return;
    stack_[parent].reached_finals.push_back(final_id);
  }

  void Taint(size_t parent) {
    if (!options_.dedup_subtrees || parent == kNoParent) return;
    stack_[parent].tainted = true;
  }

  /// In dedup mode, a final state's subtree is itself: memoize it so a
  /// revisit skips recomputing TriggeredRules.
  void MemoizeFinal(uint32_t id, uint32_t final_id) {
    if (!options_.dedup_subtrees) return;
    if (TestBit(memo_black_, id)) return;
    SetBit(&memo_black_, id, true);
    memo_finals_.emplace(id, std::vector<uint32_t>{final_id});
  }

  /// Evaluates the state currently held in `cur_` (the one live
  /// database): interns it by fingerprint, records the incoming edge, and
  /// either handles it terminally (cycle / memo hit / final / budget /
  /// depth) or pushes a DFS frame for expansion. Every terminal outcome
  /// must undo what the caller set up, which `leave()` centralizes: revert
  /// this step's delta (when one is open) and roll the stream back to
  /// `restore_stream`. Non-terminal states instead push a frame that OWNS
  /// the open delta; PopFrame reverts it when the subtree is done.
  void Enter(size_t parent, RuleIndex via, size_t restore_stream,
             bool delta_open) {
    Hash128 fp = StateFingerprint(*cur_);
    auto [id, fresh] = interner_.Intern(fp);
    if (!fresh) ++result_.stats.interner_hits;
    int node = GraphNode(id);
    if (parent != kNoParent) RecordEdge(stack_[parent].node, node, via);
    auto leave = [&] {
      if (delta_open) {
        cur_->db.RevertDelta();
        pending_undo_.RevertToMark();
        NoteRevert();
      }
      stream_.resize(restore_stream);
    };
    if (!fresh && TestBit(on_path_, id)) {
      // A cycle in the execution graph: an infinitely long path exists.
      // The cycle target's subtree is still being enumerated, so every
      // ancestor's reachable-final memo is incomplete.
      result_.may_not_terminate = true;
      Taint(parent);
      leave();
      return;
    }
    MarkVisited(id);
    if (options_.dedup_subtrees && TestBit(memo_black_, id)) {
      ++result_.stats.dedup_hits;
      if (parent != kNoParent) {
        auto it = memo_finals_.find(id);
        if (it != memo_finals_.end()) {
          Frame& pf = stack_[parent];
          pf.reached_finals.insert(pf.reached_finals.end(),
                                   it->second.begin(), it->second.end());
        }
      }
      leave();
      return;
    }
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, *cur_);
    if (triggered.empty()) {
      if (node >= 0) result_.node_is_final[node] = true;
      uint32_t fid = RecordFinal(cur_->db);
      AddFinal(parent, fid);
      MemoizeFinal(id, fid);
      leave();
      return;
    }
    // The budget check comes AFTER the final-state check: a rule-free
    // state reached exactly as the budget trips is still a real final
    // state and must be recorded, not dropped.
    if (result_.steps_taken >= options_.max_total_steps) {
      result_.complete = false;
      Taint(parent);
      leave();
      return;
    }
    if (static_cast<int>(stack_.size()) >= options_.max_depth) {
      result_.complete = false;
      result_.may_not_terminate = true;  // conservative
      Taint(parent);
      leave();
      return;
    }
    SetBit(&on_path_, id, true);
    Frame frame;
    frame.owns_delta = delta_open;
    frame.id = id;
    frame.node = node;
    frame.eligible = EligibleRules(catalog_, triggered);
    ReduceEligible(por_safe_, &frame.eligible,
                   &result_.stats.por_pruned_orders);
    frame.restore_stream = restore_stream;
    stack_.push_back(std::move(frame));
    result_.stats.peak_stack_depth = std::max(
        result_.stats.peak_stack_depth, static_cast<int>(stack_.size()));
  }

  /// Handles a ROLLBACK edge: the path terminates in a synthetic state
  /// whose database is the initial database. The synthetic state is
  /// interned and counted like any other, so states_visited, the recorded
  /// graph, and the DOT output agree on node accounting.
  void EnterRollback(size_t parent, RuleIndex via) {
    if (!rollback_interned_) {
      rollback_id_ =
          interner_
              .Intern(MixWithSalt(initial_db_.ContentFingerprint(),
                                  kRollbackSalt))
              .first;
      rollback_interned_ = true;
    }
    MarkVisited(rollback_id_);
    int node = GraphNode(rollback_id_);
    if (node >= 0) result_.node_is_final[node] = true;
    RecordEdge(stack_[parent].node, node, via);
    uint32_t fid = RecordFinal(initial_db_);
    AddFinal(parent, fid);
    MemoizeFinal(rollback_id_, fid);
  }

  void PopFrame() {
    Frame& f = stack_.back();
    SetBit(&on_path_, f.id, false);
    if (f.owns_delta) {
      cur_->db.RevertDelta();
      pending_undo_.RevertToMark();
      NoteRevert();
    }
    if (options_.dedup_subtrees) {
      if (!f.tainted) {
        std::sort(f.reached_finals.begin(), f.reached_finals.end());
        f.reached_finals.erase(
            std::unique(f.reached_finals.begin(), f.reached_finals.end()),
            f.reached_finals.end());
        SetBit(&memo_black_, f.id, true);
        memo_finals_[f.id] = f.reached_finals;
      }
      if (stack_.size() >= 2) {
        Frame& pf = stack_[stack_.size() - 2];
        pf.tainted |= f.tainted;
        pf.reached_finals.insert(pf.reached_finals.end(),
                                 f.reached_finals.begin(),
                                 f.reached_finals.end());
      }
    }
    stream_.resize(f.restore_stream);
    stack_.pop_back();
  }

  const RuleCatalog& catalog_;
  const Database& initial_db_;
  const ExplorerOptions& options_;
  /// POR safety bitvector (nullptr when reduction is off).
  const std::vector<bool>* por_safe_;
  ExplorationResult result_;

  /// The one live state the whole DFS steps forward and reverts — the
  /// database via its own delta log, the pending transitions via
  /// `pending_undo_`.
  std::optional<RuleProcessingState> cur_;
  /// Inverse log for `cur_->pending` mutations; one mark per rule
  /// consideration, reverted wherever the step's db delta is.
  TransitionUndoLog pending_undo_;
  FingerprintInterner interner_;
  /// Final databases: content fingerprint -> dense final id.
  std::unordered_map<Hash128, uint32_t, Hash128Hasher> final_ids_;
  std::vector<Frame> stack_;
  std::vector<ObservableEvent> stream_;
  std::vector<bool> visited_;  // by interned id
  std::vector<bool> on_path_;  // by interned id
  long visited_count_ = 0;

  // Recorded-graph node ids, by interned id (kNodeUnassigned / -1 capped).
  std::vector<int> graph_node_;
  int next_graph_node_ = 0;

  // Dedup-subtrees memo: black = subtree fully enumerated; finals =
  // final ids reachable from the state.
  std::vector<bool> memo_black_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> memo_finals_;

  // Synthetic rollback state (interned lazily on the first rollback path).
  bool rollback_interned_ = false;
  uint32_t rollback_id_ = 0;
};

/// ------------------- Work-stealing parallel exploration -------------------
///
/// ExplorerOptions::num_threads >= 2 without dedup_subtrees / record_graph.
/// Workers run the classic depth-first walk on their OWN database + undo
/// log; every frame with two or more eligible rules is published as a
/// StealTask in the owner's deque. An idle worker steals the shallowest
/// task, replays its firing path from the root on its own state, and then
/// claims untaken children through the task's shared atomic cursor — so one
/// frame's children are partitioned between owner and thieves without any
/// barrier. States are interned in ONE shared striped set keyed by 128-bit
/// fingerprints, `max_total_steps` is a single atomic claimed per edge, and
/// POR reduces the eligible set at every state.
///
/// Determinism contract: the attempt either COMPLETES — in which case the
/// enumerated tree is exactly the classic tree (full enumeration never
/// prunes on the visited set; cycle cuts use the path-local on-path set the
/// replay reconstructs; POR reduction is a pure function of the state) and
/// every merged result field and counter equals the classic walk's — or it
/// ABORTS (budget / depth / stream-cap trip, error) and the caller discards
/// it and reruns the classic walk, whose truncation order is deterministic.
/// Work is never lost: an owner drains its own cursors even when a task is
/// stolen, so completion does not depend on any thief making progress.
///
/// Adaptive start: worker 0 walks alone on the calling thread and starts
/// the helpers only when the walk claims its kHelperStartSteps-th step, so
/// a small tree never pays for a thread. Nothing above depends on when a
/// helper arrives — its first act is a steal — so the contract is the same
/// whether zero or all helpers ever start.

/// Steps worker 0 claims alone before it starts the helpers. A helper costs
/// one thread start plus join, which adds 40-90 µs of wall time to an
/// exploration on a 4-CPU x86-64 Linux host (bench_parallel's n=6 POR tree
/// and explore_mix's small jobs; an empty thread's bare start+join is
/// ~20 µs, the rest is the helper's set-up and idle steal loop). The
/// cheapest step costs ~2 µs (bench_delta's undo-log walk), so a tree needs
/// 20-50 steps before one helper can repay its start; 64 is the next power
/// of two.
constexpr long kHelperStartSteps = 64;

/// A stealable DFS frame, shared between the worker that created it and
/// any thieves. `path` / `path_fps` let a thief reconstruct the frame's
/// state (and its cycle-detection prefix) from the root by replaying rule
/// firings on its own database; `next_child` is the one point of
/// coordination — every worker claims children via fetch_add.
struct StealTask {
  /// Rules fired from the exploration root to this state.
  std::vector<RuleIndex> path;
  /// Fingerprints of the states along the path, root first, THIS state
  /// last (path_fps.size() == path.size() + 1).
  std::vector<Hash128> path_fps;
  /// POR-reduced eligible rules at this state.
  std::vector<RuleIndex> eligible;
  /// Next unclaimed child index (indexes `eligible`).
  std::atomic<uint32_t> next_child{0};
};

class WorkStealingExplorer {
 public:
  WorkStealingExplorer(const RuleCatalog& catalog, const Database& initial_db,
                       const ExplorerOptions& options,
                       const std::vector<bool>* por_safe)
      : catalog_(catalog),
        initial_db_(initial_db),
        options_(options),
        por_safe_(por_safe),
        num_workers_(static_cast<size_t>(options.num_threads)),
        deques_(num_workers_) {}

  WorkStealingExplorer(const WorkStealingExplorer&) = delete;
  WorkStealingExplorer& operator=(const WorkStealingExplorer&) = delete;

  /// Joins any helper still running when an exception escapes worker 0
  /// (allocation failure); Run() joins them on every normal path. Abort
  /// first: the helpers would otherwise wait for a worker 0 that never
  /// goes idle.
  ~WorkStealingExplorer() {
    Abort();
    for (std::thread& t : helpers_) {
      if (t.joinable()) t.join();
    }
  }

  Result<ExplorationResult> Run(const Transition& initial_transition) {
    auto start = std::chrono::steady_clock::now();
    initial_transition_ = &initial_transition;
    initial_fp_ = initial_db_.ContentFingerprint();
    rollback_fp_ = MixWithSalt(initial_fp_, kRollbackSalt);

    locals_.resize(num_workers_);
    deques_.MarkActive();  // worker 0 owns the root region from the start
    RunWorker(0);  // starts the helpers once the walk is big enough
    for (std::thread& t : helpers_) t.join();
    if (helper_error_ != nullptr) std::rethrow_exception(helper_error_);
    if (!aborted_.load(std::memory_order_acquire)) {
      std::optional<ExplorationResult> merged = Merge(start);
      if (merged.has_value()) return std::move(*merged);
    }
    // Fallback: the attempt hit a limit (or an error) whose truncation
    // order is schedule-dependent. Discard it and rerun the classic walk,
    // whose result (including the incomplete flag, the kept streams, and
    // any error) is deterministic — so every thread count reports exactly
    // the classic outcome. The rerun is bounded by the same budget that
    // tripped, capping total work at roughly twice `max_total_steps`.
    ExplorerImpl impl(catalog_, initial_db_, options_, por_safe_);
    Result<ExplorationResult> result = impl.Run(initial_transition);
    if (result.ok()) {
      result.value().stats.parallel_fallbacks = 1;
      result.value().stats.steals = deques_.steals();
      result.value().stats.helper_threads = static_cast<long>(helpers_.size());
    }
    return result;
  }

 private:
  /// Cleanup record for one replayed prefix state: the undo-log delta to
  /// revert (uncounted — the replay duplicates edges whose accounting
  /// belongs to the worker that first explored them) and the on-path
  /// fingerprint to erase when the adopted region is done.
  struct ReplayMark {
    bool owns_delta = false;
    Hash128 fp;
  };

  struct Frame {
    /// Shared stealable cursor (frames with >= 2 eligible rules); null for
    /// the single-eligible fast path, which is never published.
    std::shared_ptr<StealTask> task;
    RuleIndex only = -1;
    bool only_taken = false;
    /// This frame's entry edge holds an open delta on the worker's live
    /// state (false for region roots — the exploration root or an adopted
    /// frame, whose replay deltas are unwound by ResetRegion).
    bool owns_delta = false;
    Hash128 fp;
    size_t restore_stream = 0;
  };

  /// Per-worker tallies and result fragments, merged after the join. Every
  /// field is a deterministic function of the (schedule-independent) tree
  /// partition EXCEPT the partition itself — which sums/unions away.
  struct WorkerLocal {
    long steps = 0;
    long interner_hits = 0;
    long delta_reverts = 0;
    long por_pruned = 0;
    int peak_depth = 0;
    std::unordered_map<Hash128, Database, Hash128Hasher> finals;
    std::set<std::string> streams;
  };

  /// One worker's run state: its own database (+ undo log), DFS stack,
  /// stream, and path-local cycle-detection set.
  struct Ctx {
    size_t w = 0;
    WorkerLocal* local = nullptr;
    std::optional<RuleProcessingState> cur;
    TransitionUndoLog pending_undo;
    std::vector<Frame> frames;
    std::vector<ReplayMark> replay;
    /// States below the bottom frame (replayed prefix length); the logical
    /// DFS depth — what the classic walk's stack_.size() would be — is
    /// base_depth + frames.size().
    size_t base_depth = 0;
    std::vector<ObservableEvent> stream;
    std::unordered_set<Hash128, Hash128Hasher> on_path;
    std::vector<RuleIndex> path_rules;  // root -> top frame
    std::vector<Hash128> path_fps;      // parallel to path_rules, + root
  };

  size_t Depth(const Ctx& ctx) const {
    return ctx.base_depth + ctx.frames.size();
  }

  void Abort() { aborted_.store(true, std::memory_order_release); }
  bool Aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }

  void RunWorker(size_t w) {
    Ctx ctx;
    ctx.w = w;
    ctx.local = &locals_[w];
    if (w == 0) {
      EnterRoot(ctx);
      DriveLocal(ctx);
      if (Aborted()) return;
      ResetRegion(ctx);
      deques_.MarkIdle();
    } else {
      ctx.cur.emplace(*root_state_);
      ctx.cur->pending_undo = &ctx.pending_undo;
    }
    while (!Aborted()) {
      std::shared_ptr<StealTask> task = deques_.Steal(w);
      if (task != nullptr) {
        deques_.MarkActive();
        if (task->next_child.load(std::memory_order_relaxed) <
            task->eligible.size()) {
          STARBURST_TRACE_SPAN("explorer", "explore.steal_region");
          STARBURST_METRIC_HISTOGRAM(
              "explorer.steal_depth", RevertDepthBounds(),
              static_cast<int64_t>(task->path.size() + 1));
          Adopt(ctx, task);
          if (Aborted()) return;
          DriveLocal(ctx);
          if (Aborted()) return;
          ResetRegion(ctx);
        }
        deques_.MarkIdle();
        continue;
      }
      if (deques_.Quiescent()) break;
      std::this_thread::yield();
    }
  }

  /// Claims and expands children of the top frame until the local stack
  /// drains — the classic Drive() loop with the frame's next-child index
  /// replaced by the task's shared cursor, and the budget by one global
  /// atomic claimed per edge (a claim at or beyond the budget aborts; the
  /// classic walk's boundary behavior — a final state reached exactly at
  /// the trip is kept — is preserved because final children make no
  /// further claims, so a run with exactly `max_total_steps` edges still
  /// completes here).
  void DriveLocal(Ctx& ctx) {
    while (!ctx.frames.empty()) {
      if (Aborted()) return;
      Frame& f = ctx.frames.back();
      uint32_t k;
      size_t fan;
      if (f.task != nullptr) {
        fan = f.task->eligible.size();
        k = f.task->next_child.fetch_add(1, std::memory_order_relaxed);
      } else {
        fan = 1;
        k = f.only_taken ? 1u : 0u;
        f.only_taken = true;
      }
      if (k >= fan) {
        PopFrame(ctx);
        continue;
      }
      RuleIndex r = f.task != nullptr ? f.task->eligible[k] : f.only;
      long s = steps_claimed_.fetch_add(1, std::memory_order_relaxed);
      if (s >= options_.max_total_steps) {
        Abort();
        return;
      }
      // Worker 0 claims every step until the helpers exist, so exactly one
      // claim — its own — crosses the threshold.
      if (s + 1 == kHelperStartSteps) StartHelpers();
      ++ctx.local->steps;
      ctx.pending_undo.Mark();
      ctx.cur->db.BeginDelta();
      auto step = ConsiderRule(catalog_, &*ctx.cur, r);
      if (!step.ok()) {
        Abort();
        return;
      }
      size_t mark = ctx.stream.size();
      for (const ObservableEvent& ev : step.value().observables) {
        ctx.stream.push_back(ev);
      }
      if (step.value().rollback) {
        ctx.cur->db.RevertDelta();
        ctx.pending_undo.RevertToMark();
        NoteRevert(ctx);
        RecordRollback(ctx);
        ctx.stream.resize(mark);
      } else {
        Enter(ctx, r, mark);
      }
    }
  }

  /// The exploration root: the initial database with every rule's pending
  /// transition equal to the initial transition.
  RuleProcessingState InitialState() const {
    RuleProcessingState state(&catalog_.schema(), catalog_.num_rules());
    state.db = initial_db_;
    for (Transition& t : state.pending) t = *initial_transition_;
    return state;
  }

  /// Builds and evaluates the exploration root on worker 0, as the classic
  /// walk does — the classic Enter() on a region root (no entry delta,
  /// restore-to-empty stream).
  void EnterRoot(Ctx& ctx) {
    ctx.cur.emplace(InitialState());
    ctx.cur->pending_undo = &ctx.pending_undo;
    Hash128 fp = StateFingerprint(*ctx.cur);
    if (!visited_.Insert(fp)) ++ctx.local->interner_hits;
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, *ctx.cur);
    if (triggered.empty()) {
      ctx.local->finals.try_emplace(initial_fp_, ctx.cur->db);
      RecordStream(ctx);
      return;
    }
    if (static_cast<int>(Depth(ctx)) >= options_.max_depth) {
      Abort();  // classic reports incomplete + may_not_terminate
      return;
    }
    Frame frame;
    frame.fp = fp;
    frame.restore_stream = 0;
    PushFrame(ctx, std::move(frame), triggered, /*via=*/-1);
  }

  /// Runs on worker 0 when the walk claims its kHelperStartSteps-th step:
  /// builds the root the helpers replay stolen paths from, then starts
  /// them. A helper whose thread fails to start is not retried — the
  /// workers already running finish the walk (an unstarted helper's deque
  /// just stays empty).
  void StartHelpers() {
    root_state_.emplace(InitialState());
    // Rendered once before any helper copies the root, so the copies
    // inherit per-table canonical caches and the shared root stays
    // read-only while the helpers run.
    (void)root_state_->db.CanonicalString();
    // Dedicated threads, NOT ThreadPool::ParallelFor: the pool counts its
    // chunks (`pool.chunks`, `pool.parallel_for_calls`), and a
    // chunk-per-worker loop would make those counters a function of
    // num_threads — breaking the byte-identical-counters contract that
    // CountersToJson keeps across pool sizes. A long-lived worker loop is
    // not chunked data-parallel work, so it stays off the pool's books.
    helpers_.reserve(num_workers_ - 1);
    for (size_t w = 1; w < num_workers_; ++w) {
      try {
        helpers_.emplace_back([this, w] {
          try {
            RunWorker(w);
          } catch (...) {
            std::lock_guard<std::mutex> lock(helper_error_mu_);
            if (helper_error_ == nullptr) {
              helper_error_ = std::current_exception();
            }
            Abort();
          }
        });
      } catch (const std::system_error&) {
        break;
      }
    }
  }

  /// Child entry: the live state sits at the child (delta open). Terminal
  /// outcomes revert; non-terminal ones push a frame that owns the delta.
  void Enter(Ctx& ctx, RuleIndex via, size_t restore_stream) {
    Hash128 fp = StateFingerprint(*ctx.cur);
    bool fresh = visited_.Insert(fp);
    if (!fresh) ++ctx.local->interner_hits;
    auto leave = [&] {
      ctx.cur->db.RevertDelta();
      ctx.pending_undo.RevertToMark();
      NoteRevert(ctx);
      ctx.stream.resize(restore_stream);
    };
    if (!fresh && ctx.on_path.count(fp) != 0) {
      may_not_terminate_.store(true, std::memory_order_relaxed);
      leave();
      return;
    }
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, *ctx.cur);
    if (triggered.empty()) {
      ctx.local->finals.try_emplace(ctx.cur->db.ContentFingerprint(),
                                    ctx.cur->db);
      RecordStream(ctx);
      leave();
      return;
    }
    if (static_cast<int>(Depth(ctx)) >= options_.max_depth) {
      leave();
      Abort();
      return;
    }
    Frame frame;
    frame.owns_delta = true;
    frame.fp = fp;
    frame.restore_stream = restore_stream;
    PushFrame(ctx, std::move(frame), triggered, via);
  }

  /// Computes the (POR-reduced) eligible set, publishes multi-child frames
  /// to the steal deque, and pushes the frame. `via` is the rule fired
  /// into this state (-1 for the exploration root).
  void PushFrame(Ctx& ctx, Frame&& frame, std::vector<RuleIndex>& triggered,
                 RuleIndex via) {
    std::vector<RuleIndex> eligible = EligibleRules(catalog_, triggered);
    ReduceEligible(por_safe_, &eligible, &ctx.local->por_pruned);
    ctx.on_path.insert(frame.fp);
    if (via >= 0) ctx.path_rules.push_back(via);
    ctx.path_fps.push_back(frame.fp);
    if (eligible.size() >= 2) {
      auto task = std::make_shared<StealTask>();
      task->path = ctx.path_rules;
      task->path_fps = ctx.path_fps;
      task->eligible = std::move(eligible);
      frame.task = task;
      ctx.frames.push_back(std::move(frame));
      deques_.Push(ctx.w, std::move(task));
    } else {
      frame.only = eligible[0];
      ctx.frames.push_back(std::move(frame));
    }
    ctx.local->peak_depth = std::max(ctx.local->peak_depth,
                                     static_cast<int>(Depth(ctx)));
  }

  void PopFrame(Ctx& ctx) {
    Frame& f = ctx.frames.back();
    if (f.task != nullptr) deques_.RemoveBack(ctx.w, f.task.get());
    if (f.owns_delta) {
      ctx.cur->db.RevertDelta();
      ctx.pending_undo.RevertToMark();
      NoteRevert(ctx);
    }
    ctx.on_path.erase(f.fp);
    ctx.stream.resize(f.restore_stream);
    if (!ctx.path_rules.empty()) ctx.path_rules.pop_back();
    if (!ctx.path_fps.empty()) ctx.path_fps.pop_back();
    ctx.frames.pop_back();
  }

  /// Adopts a stolen task: seeds the on-path prefix from the recorded
  /// fingerprints, replays the firing path on this worker's own state
  /// (regenerating the stream prefix; replay steps are not counted — their
  /// accounting belongs to the worker that first explored those edges),
  /// and pushes the task's frame so the claim loop takes over.
  void Adopt(Ctx& ctx, const std::shared_ptr<StealTask>& task) {
    const size_t len = task->path.size();
    ctx.replay.push_back({/*owns_delta=*/false, task->path_fps[0]});
    ctx.on_path.insert(task->path_fps[0]);
    for (size_t i = 0; i < len; ++i) {
      ctx.pending_undo.Mark();
      ctx.cur->db.BeginDelta();
      Result<StepOutcome> step =
          ConsiderRule(catalog_, &*ctx.cur, task->path[i]);
      if (!step.ok()) {
        Abort();
        return;
      }
      for (const ObservableEvent& ev : step.value().observables) {
        ctx.stream.push_back(ev);
      }
      ctx.replay.push_back({/*owns_delta=*/true, task->path_fps[i + 1]});
      if (i + 1 < len) ctx.on_path.insert(task->path_fps[i + 1]);
    }
    ctx.base_depth = len;
    ctx.path_rules = task->path;
    ctx.path_fps.assign(task->path_fps.begin(), task->path_fps.end() - 1);
    Frame frame;
    frame.task = task;
    frame.fp = task->path_fps[len];
    frame.restore_stream = ctx.stream.size();
    ctx.on_path.insert(frame.fp);
    ctx.path_fps.push_back(frame.fp);
    ctx.frames.push_back(std::move(frame));
    ctx.local->peak_depth = std::max(ctx.local->peak_depth,
                                     static_cast<int>(Depth(ctx)));
    // Republish: the task stays stealable from THIS worker's deque too, so
    // a third worker can join the same frontier.
    deques_.Push(ctx.w, task);
  }

  /// Unwinds the replayed prefix after an adopted region completes: revert
  /// the replay deltas (uncounted), clear the on-path prefix, and return
  /// the worker to the exploration root.
  void ResetRegion(Ctx& ctx) {
    while (!ctx.replay.empty()) {
      const ReplayMark& mark = ctx.replay.back();
      if (mark.owns_delta) {
        ctx.cur->db.RevertDelta();
        ctx.pending_undo.RevertToMark();
      }
      ctx.on_path.erase(mark.fp);
      ctx.replay.pop_back();
    }
    ctx.base_depth = 0;
    ctx.stream.clear();
    ctx.path_rules.clear();
    ctx.path_fps.clear();
  }

  /// Counts an undo-log revert at the logical (classic-equivalent) depth.
  void NoteRevert(Ctx& ctx) {
    ++ctx.local->delta_reverts;
    STARBURST_METRIC_HISTOGRAM("explorer.revert_depth", RevertDepthBounds(),
                               static_cast<int64_t>(Depth(ctx)));
  }

  /// Handles a ROLLBACK edge. The synthetic rollback state is interned
  /// exactly once globally (matching the classic walk's cached intern);
  /// every rollback edge still records the final state and its stream.
  void RecordRollback(Ctx& ctx) {
    if (!rollback_claimed_.exchange(true, std::memory_order_acq_rel)) {
      if (!visited_.Insert(rollback_fp_)) ++ctx.local->interner_hits;
    }
    ctx.local->finals.try_emplace(initial_fp_, initial_db_);
    RecordStream(ctx);
  }

  /// Records the current path's stream in the worker-local set. A local
  /// set past the cap proves the global union is past the cap — the
  /// classic walk would truncate, so abort to it.
  void RecordStream(Ctx& ctx) {
    auto [it, fresh] =
        ctx.local->streams.insert(ObservableStreamToString(ctx.stream));
    (void)it;
    if (fresh && static_cast<int>(ctx.local->streams.size()) >
                     options_.max_streams) {
      Abort();
    }
  }

  /// Merges the worker fragments into the classic-identical result.
  /// Returns nullopt when only the merge can see a truncation (stream
  /// union past the cap with every local set under it) — fall back.
  std::optional<ExplorationResult> Merge(
      std::chrono::steady_clock::time_point start) {
    ExplorationResult out;
    out.complete = true;
    out.may_not_terminate =
        may_not_terminate_.load(std::memory_order_relaxed);
    out.streams_evaluated = true;
    for (const WorkerLocal& local : locals_) {
      out.observable_streams.insert(local.streams.begin(),
                                    local.streams.end());
    }
    if (static_cast<int>(out.observable_streams.size()) >
        options_.max_streams) {
      return std::nullopt;
    }
    // Distinct final fingerprints across workers; canonical strings are
    // rendered once per distinct final, exactly like the classic walk's
    // fresh-fingerprint renders.
    std::unordered_set<Hash128, Hash128Hasher> seen;
    for (WorkerLocal& local : locals_) {
      for (auto& [fp, db] : local.finals) {
        if (!seen.insert(fp).second) continue;
        std::string db_key = db.CanonicalString();
        out.stats.canonicalization_bytes += static_cast<long>(db_key.size());
        out.final_states.insert(db_key);
        out.final_databases.emplace(std::move(db_key), std::move(db));
      }
    }
    for (const WorkerLocal& local : locals_) {
      out.steps_taken += local.steps;
      out.stats.interner_hits += local.interner_hits;
      out.stats.delta_reverts += local.delta_reverts;
      out.stats.por_pruned_orders += local.por_pruned;
      out.stats.peak_stack_depth =
          std::max(out.stats.peak_stack_depth, local.peak_depth);
    }
    long interned = static_cast<long>(visited_.Size());
    out.states_visited = interned;
    out.stats.states_interned = interned;
    out.stats.shared_interner_hits = out.stats.interner_hits;
    out.stats.steals = deques_.steals();
    out.stats.helper_threads = static_cast<long>(helpers_.size());
    STARBURST_METRIC_HISTOGRAM("explorer.interner_contention",
                               ContentionBounds(),
                               visited_.ContendedLocks());
    out.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
  }

  const RuleCatalog& catalog_;
  const Database& initial_db_;
  const ExplorerOptions& options_;
  const std::vector<bool>* por_safe_;
  const size_t num_workers_;

  const Transition* initial_transition_ = nullptr;
  /// The root the helpers copy and replay from; built by StartHelpers().
  std::optional<RuleProcessingState> root_state_;
  Hash128 initial_fp_;
  Hash128 rollback_fp_;

  /// The shared concurrent interner: every state any worker visits, keyed
  /// by 128-bit fingerprint.
  StripedHashSet<Hash128, Hash128Hasher> visited_;
  WorkStealingDeques<StealTask> deques_;
  std::atomic<long> steps_claimed_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> may_not_terminate_{false};
  std::atomic<bool> rollback_claimed_{false};
  std::vector<WorkerLocal> locals_;
  /// The first exception a helper threw; Run() rethrows it after the join.
  std::mutex helper_error_mu_;
  std::exception_ptr helper_error_;
  /// Helper threads actually started (workers 1..helpers_.size()),
  /// declared last: they use every member above.
  std::vector<std::thread> helpers_;
};

/// Flushes one exploration's counters into the process registry. Called
/// once per exploration with the final result (after the work-stealing
/// merge), so the registered totals are identical for any worker count.
/// Wall time goes to a gauge (cumulative microseconds) — it is real time
/// and thus outside the counter determinism contract; states/sec is
/// states_visited / wall_us.
void FlushExplorationMetrics(const ExplorationResult& r) {
  if (!metrics::Enabled()) return;
  STARBURST_METRIC_COUNT("explorer.explorations", 1);
  STARBURST_METRIC_COUNT("explorer.states_visited", r.states_visited);
  STARBURST_METRIC_COUNT("explorer.steps", r.steps_taken);
  STARBURST_METRIC_COUNT("explorer.states_interned",
                         r.stats.states_interned);
  STARBURST_METRIC_COUNT("explorer.interner_hits", r.stats.interner_hits);
  STARBURST_METRIC_COUNT("explorer.dedup_prunes", r.stats.dedup_hits);
  STARBURST_METRIC_COUNT("explorer.delta_reverts", r.stats.delta_reverts);
  STARBURST_METRIC_COUNT("explorer.por_pruned_orders",
                         r.stats.por_pruned_orders);
  STARBURST_METRIC_COUNT("explorer.canonical_bytes",
                         r.stats.canonicalization_bytes);
  STARBURST_METRIC_GAUGE_MAX("explorer.peak_stack_depth",
                             r.stats.peak_stack_depth);
  metrics::GetGauge("explorer.wall_us")
      ->Add(static_cast<int64_t>(r.stats.wall_seconds * 1e6));
  // Work-stealing scheduling telemetry. Gauges, not counters: steal counts
  // are schedule-dependent and the parallel-mode fields are zero in
  // classic mode, so none of them may enter the CountersToJson determinism
  // contract (which is byte-compared across explorer thread counts).
  if (r.stats.steals > 0) {
    metrics::GetGauge("explorer.steals")->Add(r.stats.steals);
  }
  if (r.stats.helper_threads > 0) {
    metrics::GetGauge("explorer.helper_threads")->Add(r.stats.helper_threads);
  }
  if (r.stats.shared_interner_hits > 0) {
    metrics::GetGauge("explorer.shared_interner_hits")
        ->Add(r.stats.shared_interner_hits);
  }
  if (r.stats.parallel_fallbacks > 0) {
    metrics::GetGauge("explorer.parallel_fallbacks")
        ->Add(r.stats.parallel_fallbacks);
  }
}

/// Dispatches between the classic single-threaded walk and the
/// work-stealing parallel mode. `record_graph` needs globally dense node
/// ids and `dedup_subtrees` a visit-order-dependent memo, so both run the
/// classic walk at every num_threads.
Result<ExplorationResult> RunExploration(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorerOptions& options) {
  std::optional<metrics::ScopedCollect> collect;
  if (options.collect_metrics) collect.emplace();
  STARBURST_TRACE_SPAN("explorer", "explore");
  // The POR safety bitvector is computed once and shared read-only by
  // every worker (and the fallback walk) of this exploration.
  const std::vector<bool> por_safe_storage = PorSafeRules(catalog, options);
  const std::vector<bool>* por_safe =
      por_safe_storage.empty() ? nullptr : &por_safe_storage;
  Result<ExplorationResult> result = [&]() -> Result<ExplorationResult> {
    if (options.num_threads >= 2 && !options.record_graph &&
        !options.dedup_subtrees) {
      WorkStealingExplorer stealing(catalog, initial_db, options, por_safe);
      return stealing.Run(initial_transition);
    }
    ExplorerImpl impl(catalog, initial_db, options, por_safe);
    return impl.Run(initial_transition);
  }();
  if (result.ok()) FlushExplorationMetrics(result.value());
  return result;
}

}  // namespace

Result<ExplorationResult> Explorer::Explore(const RuleCatalog& catalog,
                                            const Database& initial_db,
                                            const Transition& initial_transition,
                                            const ExplorerOptions& options) {
  return RunExploration(catalog, initial_db, initial_transition, options);
}

Result<ExplorationResult> Explorer::ExploreAfterStatements(
    const RuleCatalog& catalog, const Database& initial_db,
    const std::vector<std::string>& user_statements,
    const ExplorerOptions& options) {
  Database db = initial_db;
  STARBURST_ASSIGN_OR_RETURN(Transition initial_transition,
                             ApplyUserStatements(&db, user_statements));
  return RunExploration(catalog, db, initial_transition, options);
}

}  // namespace starburst
