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

/// ------------------------- The exploration core -------------------------
///
/// The one depth-first walk. Each worker steps its OWN live state (one
/// database + undo log) forward with Database::BeginDelta and backtracks
/// with RevertDelta, so a step costs O(delta), not O(database). States are
/// interned in a striped set keyed by 128-bit fingerprints: one stripe at
/// one worker, 64 at two or more.
///
/// One worker is the serial walk (num_threads 0 or 1, record_graph,
/// dedup_subtrees, terminal visitors, and every fallback rerun). It
/// publishes nothing and truncates deterministically: the step budget is
/// checked when a state is entered, after the final-state check; a depth
/// cut marks the run incomplete and may-not-terminate; the stream cap
/// keeps the first `max_streams` streams in DFS order; an error is
/// returned.
///
/// Two or more workers: every frame with two or more eligible rules is
/// published as a StealTask in the owner's deque. An idle worker steals
/// the shallowest task, replays its firing path from the root on its own
/// state, and then claims untaken children through the task's shared
/// atomic cursor — so one frame's children are partitioned between owner
/// and thieves without any barrier. `max_total_steps` is a single atomic
/// claimed per edge. The attempt either COMPLETES — in which case the
/// enumerated tree is exactly the one-worker tree (full enumeration never
/// prunes on the visited set; cycle cuts use the path-local on-path set
/// the replay reconstructs; POR reduction is a pure function of the state)
/// and every merged result field and counter equals the one-worker walk's
/// — or it ABORTS (budget / depth / stream-cap trip, error) and is rerun at
/// one worker, whose truncation order is deterministic. Work is never
/// lost: an owner drains its own cursors even when a task is stolen, so
/// completion does not depend on any thief making progress.
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

class ExplorerCore {
 public:
  /// `visitor`, when set, is handed every terminal; it needs one worker.
  ExplorerCore(const RuleCatalog& catalog, const Database& initial_db,
               const ExplorerOptions& options,
               const std::vector<bool>* por_safe, size_t num_workers,
               const TerminalVisitor* visitor = nullptr)
      : catalog_(catalog),
        initial_db_(initial_db),
        options_(options),
        por_safe_(por_safe),
        num_workers_(num_workers),
        visitor_(visitor),
        visited_(num_workers > 1 ? 64 : 1),
        deques_(num_workers_) {}

  ExplorerCore(const ExplorerCore&) = delete;
  ExplorerCore& operator=(const ExplorerCore&) = delete;

  /// Joins any helper still running when an exception escapes worker 0
  /// (allocation failure); Run() joins them on every normal path. Abort
  /// first: the helpers would otherwise wait for a worker 0 that never
  /// goes idle.
  ~ExplorerCore() {
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
    if (!Parallel() && !error_.ok()) return error_;
    // One worker merges even when a visitor stopped it.
    if (!Parallel() || !aborted_.load(std::memory_order_acquire)) {
      std::optional<ExplorationResult> merged = Merge(start);
      if (merged.has_value()) return std::move(*merged);
    }
    // Fallback: the attempt hit a limit (or an error) whose truncation
    // order is schedule-dependent. Discard it and rerun at one worker,
    // whose result (including the incomplete flag, the kept streams, and
    // any error) is deterministic — so every thread count reports exactly
    // the one-worker outcome. The rerun is bounded by the same budget that
    // tripped, capping total work at roughly twice `max_total_steps`.
    ExplorerCore rerun(catalog_, initial_db_, options_, por_safe_, 1);
    Result<ExplorationResult> result = rerun.Run(initial_transition);
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
    /// Shared stealable cursor: frames with >= 2 eligible rules when two
    /// or more workers run. Null otherwise; the frame is never published
    /// and claims from `eligible` / `next_child` below.
    std::shared_ptr<StealTask> task;
    std::vector<RuleIndex> eligible;
    uint32_t next_child = 0;
    /// This frame's entry edge holds an open delta on the worker's live
    /// state (false for region roots — the exploration root or an adopted
    /// frame, whose replay deltas are unwound by ResetRegion).
    bool owns_delta = false;
    Hash128 fp;
    size_t restore_stream = 0;
    /// Recorded-graph node (record_graph), else -1.
    int node = -1;
  };

  /// Per-worker tallies and result fragments, merged after the join. Every
  /// field is a deterministic function of the (schedule-independent) tree
  /// partition EXCEPT the partition itself — which sums/unions away.
  struct WorkerLocal {
    long steps = 0;
    long interner_hits = 0;
    long dedup_hits = 0;
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
    /// DFS depth — the frame count of the one-worker walk at this state —
    /// is base_depth + frames.size().
    size_t base_depth = 0;
    std::vector<ObservableEvent> stream;
    std::unordered_set<Hash128, Hash128Hasher> on_path;
    std::vector<RuleIndex> path_rules;  // root -> top frame
    std::vector<Hash128> path_fps;      // parallel to path_rules, + root
  };

  size_t Depth(const Ctx& ctx) const {
    return ctx.base_depth + ctx.frames.size();
  }

  bool Parallel() const { return num_workers_ > 1; }

  void Abort() { aborted_.store(true, std::memory_order_release); }
  bool Aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }

  /// Stops the walk on an error. One worker returns it; two or more abort
  /// the attempt, and the one-worker rerun reproduces it.
  void Fail(Status status) {
    if (!Parallel()) error_ = std::move(status);
    Abort();
  }

  void RunWorker(size_t w) {
    Ctx ctx;
    ctx.w = w;
    ctx.local = &locals_[w];
    if (w == 0) {
      ctx.cur.emplace(InitialState());
      ctx.cur->pending_undo = &ctx.pending_undo;
      Enter(ctx, /*via=*/-1, /*restore_stream=*/0);
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
  /// drains. Frames claim through the task's shared cursor when published,
  /// else through their own. Two or more workers claim the budget as one
  /// global atomic per edge (a claim at or beyond the budget aborts; a
  /// final state reached exactly at the trip is still kept because final
  /// children make no further claims, so a run with exactly
  /// `max_total_steps` edges completes); one worker checks it in Enter.
  void DriveLocal(Ctx& ctx) {
    while (!ctx.frames.empty()) {
      if (Aborted()) return;
      Frame& f = ctx.frames.back();
      const std::vector<RuleIndex>& children =
          f.task != nullptr ? f.task->eligible : f.eligible;
      uint32_t k = f.task != nullptr
                       ? f.task->next_child.fetch_add(
                             1, std::memory_order_relaxed)
                       : f.next_child++;
      if (k >= children.size()) {
        PopFrame(ctx);
        continue;
      }
      RuleIndex r = children[k];
      if (Parallel()) {
        long s = steps_claimed_.fetch_add(1, std::memory_order_relaxed);
        if (s >= options_.max_total_steps) {
          Abort();
          return;
        }
        // Worker 0 claims every step until the helpers exist, so exactly
        // one claim — its own — crosses the threshold.
        if (s + 1 == kHelperStartSteps) StartHelpers();
      }
      ++ctx.local->steps;
      ctx.pending_undo.Mark();
      ctx.cur->db.BeginDelta();
      auto step = ConsiderRule(catalog_, &*ctx.cur, r);
      if (!step.ok()) {
        Fail(step.status());
        return;
      }
      size_t mark = ctx.stream.size();
      if (!options_.dedup_subtrees) {
        for (const ObservableEvent& ev : step.value().observables) {
          ctx.stream.push_back(ev);
        }
      }
      if (step.value().rollback) {
        ctx.cur->db.RevertDelta();
        ctx.pending_undo.RevertToMark();
        NoteRevert(ctx);
        RecordRollback(ctx, r);
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

  /// Evaluates the state the live state sits at: interns it, records the
  /// incoming edge, and either handles it terminally (cycle, dedup hit,
  /// final, bound) or pushes a frame for expansion. `via` is the rule
  /// fired into it, -1 for the exploration root. A child's entry delta is
  /// open: terminal outcomes revert it; a pushed frame owns it.
  void Enter(Ctx& ctx, RuleIndex via, size_t restore_stream) {
    Hash128 fp = StateFingerprint(*ctx.cur);
    bool fresh = visited_.Insert(fp);
    if (!fresh) ++ctx.local->interner_hits;
    int node = GraphNode(fp);
    if (via >= 0) RecordEdge(ctx.frames.back().node, node, via);
    auto leave = [&] {
      if (via >= 0) {
        ctx.cur->db.RevertDelta();
        ctx.pending_undo.RevertToMark();
        NoteRevert(ctx);
      }
      ctx.stream.resize(restore_stream);
    };
    if (!fresh && ctx.on_path.count(fp) != 0) {
      // A cycle in the execution graph: an infinitely long path exists.
      may_not_terminate_.store(true, std::memory_order_relaxed);
      leave();
      return;
    }
    if (!fresh && options_.dedup_subtrees) {
      // Visit-once: a state off the DFS path was expanded (or cut) before.
      ++ctx.local->dedup_hits;
      leave();
      return;
    }
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, *ctx.cur);
    if (triggered.empty()) {
      if (node >= 0) result_.node_is_final[node] = true;
      RecordTerminal(ctx, ctx.cur->db, ctx.cur->db.ContentFingerprint(), via,
                     /*rollback=*/false);
      leave();
      return;
    }
    if (!WithinBounds(ctx)) {
      leave();
      return;
    }
    Frame frame;
    frame.owns_delta = via >= 0;
    frame.fp = fp;
    frame.restore_stream = restore_stream;
    frame.node = node;
    PushFrame(ctx, std::move(frame), triggered, via);
  }

  /// The budget and depth checks for a non-final state, made after the
  /// final-state check: a rule-free state reached exactly as the budget
  /// trips is still a real final state. One worker truncates here; two or
  /// more abort the attempt on a depth trip (their budget is per edge).
  bool WithinBounds(Ctx& ctx) {
    if (!Parallel() && ctx.local->steps >= options_.max_total_steps) {
      result_.complete = false;
      return false;
    }
    if (static_cast<int>(Depth(ctx)) < options_.max_depth) return true;
    if (Parallel()) {
      Abort();
    } else {
      result_.complete = false;
      may_not_terminate_.store(true, std::memory_order_relaxed);  // conservative
    }
    return false;
  }

  /// Computes the (POR-reduced) eligible set, publishes multi-child frames
  /// to the steal deque when two or more workers run, and pushes the
  /// frame. `via` is the rule fired into this state (-1 for the root).
  void PushFrame(Ctx& ctx, Frame&& frame,
                 const std::vector<RuleIndex>& triggered, RuleIndex via) {
    std::vector<RuleIndex> eligible = EligibleRules(catalog_, triggered);
    ReduceEligible(por_safe_, &eligible, &ctx.local->por_pruned);
    ctx.on_path.insert(frame.fp);
    if (via >= 0) ctx.path_rules.push_back(via);
    ctx.path_fps.push_back(frame.fp);
    if (Parallel() && eligible.size() >= 2) {
      auto task = std::make_shared<StealTask>();
      task->path = ctx.path_rules;
      task->path_fps = ctx.path_fps;
      task->eligible = std::move(eligible);
      frame.task = task;
      ctx.frames.push_back(std::move(frame));
      deques_.Push(ctx.w, std::move(task));
    } else {
      frame.eligible = std::move(eligible);
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

  /// Counts an undo-log revert at the logical (one-worker) depth. The
  /// per-event histogram Record is the only per-step registry write in the
  /// explorer, and it is gated on metrics::Enabled() inside the macro.
  void NoteRevert(Ctx& ctx) {
    ++ctx.local->delta_reverts;
    STARBURST_METRIC_HISTOGRAM("explorer.revert_depth", RevertDepthBounds(),
                               static_cast<int64_t>(Depth(ctx)));
  }

  /// Returns the recorded-graph node of state `fp`, numbered densely in
  /// first-visit order, or -1 when recording is off or the node cap was
  /// hit. One worker only.
  int GraphNode(const Hash128& fp) {
    if (!options_.record_graph) return -1;
    auto [it, fresh] = graph_nodes_.try_emplace(fp, -1);
    if (!fresh) return it->second;
    if (static_cast<int>(result_.node_is_final.size()) >=
        options_.max_recorded_nodes) {
      result_.graph_truncated = true;
    } else {
      it->second = static_cast<int>(result_.node_is_final.size());
      result_.node_is_final.push_back(false);
    }
    return it->second;
  }

  void RecordEdge(int from, int to, RuleIndex rule) {
    if (from >= 0 && to >= 0) result_.graph_edges.push_back({from, to, rule});
  }

  /// Handles a ROLLBACK edge: the path ends in a synthetic state whose
  /// database is the initial database. That state is interned exactly
  /// once globally, so states_visited, the recorded graph and the DOT
  /// output agree on node accounting; every rollback edge still records
  /// the final state and its stream.
  void RecordRollback(Ctx& ctx, RuleIndex via) {
    if (!rollback_claimed_.exchange(true, std::memory_order_acq_rel)) {
      if (!visited_.Insert(rollback_fp_)) ++ctx.local->interner_hits;
    }
    int node = GraphNode(rollback_fp_);
    if (node >= 0) result_.node_is_final[node] = true;
    RecordEdge(ctx.frames.back().node, node, via);
    RecordTerminal(ctx, initial_db_, initial_fp_, via, /*rollback=*/true);
  }

  /// Records a terminal reached via `via`: its final database (rendered at
  /// the merge, once per distinct fingerprint), the path's stream, and —
  /// when a visitor is set — the terminal itself, whose firing sequence is
  /// read off the frame stack. A visitor returning false stops the walk.
  void RecordTerminal(Ctx& ctx, const Database& db, const Hash128& db_fp,
                      RuleIndex via, bool rollback) {
    ctx.local->finals.try_emplace(db_fp, db);
    std::string stream = ObservableStreamToString(ctx.stream);
    if (visitor_ != nullptr) {
      if (via >= 0) ctx.path_rules.push_back(via);
      bool go_on = (*visitor_)(ExplorationTerminal{
          ctx.path_rules, db, db_fp, stream, rollback, ctx.local->steps});
      if (via >= 0) ctx.path_rules.pop_back();
      if (!go_on) {
        result_.complete = false;
        Abort();
      }
    }
    if (!options_.dedup_subtrees) RecordStream(ctx, std::move(stream));
  }

  /// Records the current path's stream in the worker-local set. One worker
  /// keeps the first `max_streams` distinct streams and marks the run
  /// incomplete on a new one past the cap (a stream already kept never
  /// does). With two or more workers, a local set past the cap proves the
  /// global union is past it, so the attempt aborts to the one-worker run.
  void RecordStream(Ctx& ctx, std::string stream) {
    std::set<std::string>& streams = ctx.local->streams;
    if (Parallel()) {
      if (streams.insert(std::move(stream)).second &&
          static_cast<int>(streams.size()) > options_.max_streams) {
        Abort();
      }
    } else if (static_cast<int>(streams.size()) < options_.max_streams) {
      streams.insert(std::move(stream));
    } else if (streams.count(stream) == 0) {
      result_.complete = false;
    }
  }

  /// Merges the worker fragments (and, at one worker, the truncation flag
  /// and recorded graph already in `result_`) into the result. Returns
  /// nullopt when only the merge can see a truncation (stream union past
  /// the cap with every local set under it) — fall back.
  std::optional<ExplorationResult> Merge(
      std::chrono::steady_clock::time_point start) {
    ExplorationResult out = std::move(result_);
    out.may_not_terminate =
        may_not_terminate_.load(std::memory_order_relaxed);
    out.streams_evaluated = !options_.dedup_subtrees;
    for (const WorkerLocal& local : locals_) {
      out.observable_streams.insert(local.streams.begin(),
                                    local.streams.end());
    }
    if (static_cast<int>(out.observable_streams.size()) >
        options_.max_streams) {
      return std::nullopt;
    }
    // Distinct final fingerprints across workers; canonical strings are
    // rendered once per distinct final, so a revisited final costs O(1).
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
      out.stats.dedup_hits += local.dedup_hits;
      out.stats.delta_reverts += local.delta_reverts;
      out.stats.por_pruned_orders += local.por_pruned;
      out.stats.peak_stack_depth =
          std::max(out.stats.peak_stack_depth, local.peak_depth);
    }
    long interned = static_cast<long>(visited_.Size());
    out.states_visited = interned;
    out.stats.states_interned = interned;
    out.stats.steals = deques_.steals();
    out.stats.helper_threads = static_cast<long>(helpers_.size());
    if (Parallel()) {
      STARBURST_METRIC_HISTOGRAM("explorer.interner_contention",
                                 ContentionBounds(),
                                 visited_.ContendedLocks());
    }
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
  const TerminalVisitor* visitor_;

  const Transition* initial_transition_ = nullptr;
  /// The root the helpers copy and replay from; built by StartHelpers().
  std::optional<RuleProcessingState> root_state_;
  Hash128 initial_fp_;
  Hash128 rollback_fp_;

  /// One worker only: the truncation flag and recorded graph (Merge fills
  /// the rest), the error that stopped the walk, and graph node ids by
  /// state fingerprint.
  ExplorationResult result_;
  Status error_;
  std::unordered_map<Hash128, int, Hash128Hasher> graph_nodes_;

  /// The interner every worker shares: every state any worker visits,
  /// keyed by 128-bit fingerprint.
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
  // are schedule-dependent and the parallel-mode fields are zero at one
  // worker, so none of them may enter the CountersToJson determinism
  // contract (which is byte-compared across explorer thread counts).
  if (r.stats.steals > 0) {
    metrics::GetGauge("explorer.steals")->Add(r.stats.steals);
  }
  if (r.stats.helper_threads > 0) {
    metrics::GetGauge("explorer.helper_threads")->Add(r.stats.helper_threads);
  }
  if (r.stats.parallel_fallbacks > 0) {
    metrics::GetGauge("explorer.parallel_fallbacks")
        ->Add(r.stats.parallel_fallbacks);
  }
}

/// Runs one exploration through the core. `record_graph` numbers nodes in
/// first-visit order, `dedup_subtrees` reads the visited set in DFS order,
/// and a visitor sees terminals in DFS order, so all three run at one
/// worker; otherwise num_threads >= 2 sets the worker count.
Result<ExplorationResult> RunExploration(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorerOptions& options,
                                         const TerminalVisitor* visitor) {
  std::optional<metrics::ScopedCollect> collect;
  if (options.collect_metrics) collect.emplace();
  STARBURST_TRACE_SPAN("explorer", "explore");
  // The POR safety bitvector is computed once and shared read-only by
  // every worker (and the fallback walk) of this exploration.
  const std::vector<bool> por_safe_storage = PorSafeRules(catalog, options);
  const std::vector<bool>* por_safe =
      por_safe_storage.empty() ? nullptr : &por_safe_storage;
  const bool one_worker = options.num_threads < 2 || options.record_graph ||
                          options.dedup_subtrees || visitor != nullptr;
  ExplorerCore core(catalog, initial_db, options, por_safe,
                    one_worker ? 1 : static_cast<size_t>(options.num_threads),
                    visitor);
  Result<ExplorationResult> result = core.Run(initial_transition);
  if (result.ok()) FlushExplorationMetrics(result.value());
  return result;
}

}  // namespace

Result<ExplorationResult> Explorer::Explore(const RuleCatalog& catalog,
                                            const Database& initial_db,
                                            const Transition& initial_transition,
                                            const ExplorerOptions& options) {
  return RunExploration(catalog, initial_db, initial_transition, options,
                        nullptr);
}

Result<ExplorationResult> Explorer::ExploreAfterStatements(
    const RuleCatalog& catalog, const Database& initial_db,
    const std::vector<std::string>& user_statements,
    const ExplorerOptions& options) {
  Database db = initial_db;
  STARBURST_ASSIGN_OR_RETURN(Transition initial_transition,
                             ApplyUserStatements(&db, user_statements));
  return RunExploration(catalog, db, initial_transition, options, nullptr);
}

Result<ExplorationResult> Explorer::VisitTerminals(
    const RuleCatalog& catalog, const Database& initial_db,
    const Transition& initial_transition, const ExplorerOptions& options,
    const TerminalVisitor& visitor) {
  return RunExploration(catalog, initial_db, initial_transition, options,
                        &visitor);
}

}  // namespace starburst
