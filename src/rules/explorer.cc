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
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/work_stealing.h"
#include "engine/exec.h"
#include "engine/fingerprint.h"
#include "rulelang/parser.h"

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

/// Serializes an observable stream for set-of-streams comparison.
std::string StreamToString(const std::vector<ObservableEvent>& stream) {
  return ObservableStreamToString(stream);
}

/// Interns canonical state strings to dense uint32 ids. Keys are looked up
/// by their 64-bit FNV-1a hash; colliding keys are chained and verified by
/// full-string comparison, so distinct canonical forms always get distinct
/// ids. The canonical string is stored exactly once, and every per-state
/// structure downstream (visited / on-path / graph-node / memo) is a flat
/// vector indexed by the dense id instead of a string-keyed hash set.
class StateInterner {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  /// Returns {dense id, true when freshly interned}.
  std::pair<uint32_t, bool> Intern(std::string&& key) {
    uint64_t h = Hash(key);
    auto it = buckets_.try_emplace(h, kNil).first;
    for (uint32_t id = it->second; id != kNil; id = next_[id]) {
      if (keys_[id] == key) return {id, false};
    }
    uint32_t id = static_cast<uint32_t>(keys_.size());
    keys_.push_back(std::move(key));
    next_.push_back(it->second);
    it->second = id;
    return {id, true};
  }

  const std::string& key(uint32_t id) const { return keys_[id]; }
  size_t size() const { return keys_.size(); }

 private:
  static uint64_t Hash(const std::string& s) {
    // FNV-1a over 8-byte words instead of bytes (8x fewer multiplies on the
    // long canonical strings this interner sees), with a final xor-shift
    // avalanche. Colliding keys are verified by full comparison, so the
    // hash only needs good distribution, not cryptographic strength.
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    const char* p = s.data();
    size_t n = s.size();
    while (n >= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 1099511628211ull;  // FNV-1a prime
      p += 8;
      n -= 8;
    }
    if (n > 0) {
      uint64_t tail = static_cast<uint64_t>(n) << 56;
      std::memcpy(&tail, p, n);
      h = (h ^ tail) * 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  std::unordered_map<uint64_t, uint32_t> buckets_;  // hash -> chain head
  std::vector<std::string> keys_;                   // id -> canonical form
  std::vector<uint32_t> next_;  // id -> next id with the same hash
};

/// Interns 128-bit state fingerprints to dense uint32 ids — the undo-log
/// backend's replacement for StateInterner. No canonical strings are stored;
/// distinct logical states are distinct up to 128-bit hash collisions
/// (cross-checked against the string-keyed backend by the delta_equivalence
/// fuzz oracle).
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

/// Fingerprint of an execution state for the undo-log backend: the
/// database's incremental content fingerprint plus each pending
/// transition's incremental content hash mixed with a per-rule salt.
/// Nothing is rendered — both lanes are maintained deltas. The
/// equivalence classes match the snapshot-copy backend's string keys: the
/// database lane is rid-independent in both backends, the pending lane is
/// rid-sensitive in both (Transition::ContentHash covers rids) — and
/// delta revert restores rid counters, so both backends see identical
/// pending content along equal paths.
Hash128 StateFingerprintUndo(const RuleProcessingState& state) {
  Hash128 fp = state.db.ContentFingerprint();
  uint64_t salt = kPendingSalt;
  for (const Transition& t : state.pending) {
    fp.Add(MixWithSalt(t.ContentHash(), salt++));
  }
  return fp;
}

/// Canonical key of an execution state (database + per-rule pending
/// transitions). `*db_len` receives the length of the database prefix,
/// which doubles as the final-state fingerprint. Shared by the classic
/// explorer's per-visit key builder and the sharded root key.
std::string CanonicalStateKey(const RuleProcessingState& state,
                              size_t* db_len, size_t reserve_hint = 0) {
  std::string key;
  key.reserve(reserve_hint);
  state.db.AppendCanonicalString(&key);
  *db_len = key.size();
  key += '#';
  for (const Transition& t : state.pending) {
    t.AppendCanonicalString(&key);
    key += '|';
  }
  return key;
}

/// Inclusive upper edges for the explorer.revert_depth histogram (DFS
/// stack depth at each undo-log revert).
const std::vector<int64_t>& RevertDepthBounds() {
  static const std::vector<int64_t>* bounds =
      new std::vector<int64_t>{1, 2, 4, 8, 16, 32, 64};
  return *bounds;
}

/// Inclusive upper edges for the explorer.shard_states histogram (states
/// visited per top-level shard in sharded mode).
const std::vector<int64_t>& ShardStatesBounds() {
  static const std::vector<int64_t>* bounds = new std::vector<int64_t>{
      1, 10, 100, 1000, 10000, 100000};
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
/// and shared read-only across shards. safe[r] holds when expanding r
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

class ExplorerImpl {
 public:
  /// `por_safe` is the precomputed POR safety bitvector (see PorSafeRules),
  /// or nullptr when reduction is off; it is shared read-only across every
  /// shard of a sharded exploration.
  ExplorerImpl(const RuleCatalog& catalog, const Database& initial_db,
               const ExplorerOptions& options,
               const std::vector<bool>* por_safe = nullptr)
      : catalog_(catalog),
        initial_db_(initial_db),
        options_(options),
        por_safe_(por_safe),
        undo_(options.backend == ExplorerOptions::StateBackend::kUndoLog) {}

  Result<ExplorationResult> Run(const Transition& initial_transition) {
    auto start = std::chrono::steady_clock::now();
    {
      RuleProcessingState state(&catalog_.schema(), catalog_.num_rules());
      state.db = initial_db_;
      for (Transition& t : state.pending) t = initial_transition;
      if (undo_) {
        // The one database copy of the whole exploration: every branch
        // below steps it forward and reverts it via the undo log.
        cur_.emplace(std::move(state));
        cur_->pending_undo = &pending_undo_;
        EnterUndo(kNoParent, /*via=*/-1, /*restore_stream=*/0,
                  /*delta_open=*/false);
      } else {
        Enter(std::move(state), kNoParent, /*via=*/-1, /*restore_stream=*/0);
      }
    }
    return Drive(start);
  }

  /// Sharded-mode seeding: interns the parent (root) state's key and marks
  /// it visited and on-path WITHOUT counting it, so a path looping back to
  /// the root is detected as a cycle exactly like in the classic explorer
  /// while the root itself is accounted once by the merge.
  void SeedRootOnPath(std::string root_key) {
    auto [id, fresh] = interner_.Intern(std::move(root_key));
    (void)fresh;
    SetBit(&visited_, id, true);
    SetBit(&on_path_, id, true);
  }

  /// Fingerprint analogue of SeedRootOnPath for the undo-log backend.
  void SeedRootOnPathFp(const Hash128& root_fp) {
    auto [id, fresh] = fp_interner_.Intern(root_fp);
    (void)fresh;
    SetBit(&visited_, id, true);
    SetBit(&on_path_, id, true);
  }

  /// Sharded-mode seeding: the observable events of the top-level rule
  /// consideration that produced this shard's start state. They prefix
  /// every stream the shard records.
  void SeedStream(const std::vector<ObservableEvent>& prefix) {
    stream_ = prefix;
  }

  /// Sharded-mode entry: explores the subtree rooted at `state` (the state
  /// one top-level consideration below the seeded root).
  Result<ExplorationResult> RunFromState(RuleProcessingState&& state) {
    auto start = std::chrono::steady_clock::now();
    if (undo_) {
      cur_.emplace(std::move(state));
      cur_->pending_undo = &pending_undo_;
      EnterUndo(kNoParent, /*via=*/-1, /*restore_stream=*/stream_.size(),
                /*delta_open=*/false);
    } else {
      Enter(std::move(state), kNoParent, /*via=*/-1,
            /*restore_stream=*/stream_.size());
    }
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
      bool last_child = f.next_child == f.eligible.size();
      if (undo_) {
        // The live state already sits at this frame: children revert their
        // database deltas AND their pending mutations (via the pending
        // undo log), so nothing is copied or restored per child.
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
          EnterUndo(top, r, mark, /*delta_open=*/true);  // may invalidate `f`
        }
        continue;
      }
      // Snapshot-copy backend: the frame's state feeds each child in turn;
      // the last child can steal it instead of copying (PopFrame never
      // reads it). Chains of single-eligible states — the common fixpoint
      // shape — therefore expand with zero database copies.
      RuleProcessingState next =
          last_child ? std::move(*f.state) : *f.state;
      auto step = ConsiderRule(catalog_, &next, r);
      if (!step.ok()) return step.status();
      size_t mark = stream_.size();
      if (!options_.dedup_subtrees) {
        for (const ObservableEvent& ev : step.value().observables) {
          stream_.push_back(ev);
        }
      }
      if (step.value().rollback) {
        // Transaction aborted: final database is the initial database.
        EnterRollback(top, r);
        stream_.resize(mark);
      } else {
        Enter(std::move(next), top, r, mark);  // may invalidate `f`
      }
    }
    result_.states_visited = visited_count_;
    result_.streams_evaluated = !options_.dedup_subtrees;
    result_.stats.states_interned = static_cast<long>(
        undo_ ? fp_interner_.size() : interner_.size());
    result_.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(result_);
  }

 private:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);
  static constexpr int kNodeUnassigned = -2;

  struct Frame {
    /// Snapshot-copy backend: the frame's full state (absent in undo mode).
    std::optional<RuleProcessingState> state;
    /// Undo-log backend: true when this frame holds an open delta on
    /// `cur_->db` plus a matching pending-undo mark (every frame except a
    /// path root); PopFrame reverts both. The frame stores no state of its
    /// own — `cur_` is stepped forward and reverted in place.
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

  /// Canonical key of an execution state (database + per-rule pending
  /// transitions), built once per visit into a single buffer. Rid-sensitive,
  /// so logically identical states reached with different tuple identities
  /// get distinct keys — that only costs extra exploration, never wrong
  /// results. `*db_len` receives the length of the database prefix, which
  /// doubles as the final-state fingerprint.
  std::string BuildStateKey(const RuleProcessingState& state,
                            size_t* db_len) {
    std::string key = CanonicalStateKey(state, db_len, last_key_size_ + 32);
    last_key_size_ = key.size();
    return key;
  }

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
    std::string s = StreamToString(stream_);
    if (static_cast<int>(result_.observable_streams.size()) <
        options_.max_streams) {
      result_.observable_streams.insert(std::move(s));
    } else if (result_.observable_streams.count(s) == 0) {
      result_.complete = false;
    }
  }

  /// Records a final database (by canonical fingerprint) and the path's
  /// observable stream.
  uint32_t RecordFinal(std::string db_key, const Database& db) {
    auto [it, fresh] = final_ids_.try_emplace(
        db_key, static_cast<uint32_t>(final_ids_.size()));
    if (fresh) {
      result_.final_states.insert(db_key);
      result_.final_databases.emplace(std::move(db_key), db);
    }
    RecordStream();
    return it->second;
  }

  /// Undo-backend analogue of RecordFinal: final databases are deduplicated
  /// by content fingerprint, and the reported canonical string is rendered
  /// only for FRESH fingerprints — the whole point of the backend is that
  /// revisited finals cost O(1), not O(database).
  uint32_t RecordFinalUndo(const Database& db) {
    auto [it, fresh] = final_fp_ids_.try_emplace(
        db.ContentFingerprint(),
        static_cast<uint32_t>(final_fp_ids_.size()));
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

  /// Evaluates one execution state: interns it, records the incoming edge,
  /// and either handles it terminally (cycle / memo hit / final / budget /
  /// depth) or pushes a DFS frame for expansion. `restore_stream` is the
  /// stream length to restore once the state's subtree is done (terminal
  /// states restore it immediately).
  void Enter(RuleProcessingState&& state, size_t parent, RuleIndex via,
             size_t restore_stream) {
    size_t db_len = 0;
    std::string key = BuildStateKey(state, &db_len);
    result_.stats.canonicalization_bytes += static_cast<long>(key.size());
    auto [id, fresh] = interner_.Intern(std::move(key));
    if (!fresh) ++result_.stats.interner_hits;
    int node = GraphNode(id);
    if (parent != kNoParent) RecordEdge(stack_[parent].node, node, via);
    if (!fresh && TestBit(on_path_, id)) {
      // A cycle in the execution graph: an infinitely long path exists.
      // The cycle target's subtree is still being enumerated, so every
      // ancestor's reachable-final memo is incomplete.
      result_.may_not_terminate = true;
      Taint(parent);
      stream_.resize(restore_stream);
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
      stream_.resize(restore_stream);
      return;
    }
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, state);
    if (triggered.empty()) {
      if (node >= 0) result_.node_is_final[node] = true;
      uint32_t fid = RecordFinal(interner_.key(id).substr(0, db_len),
                                 state.db);
      AddFinal(parent, fid);
      MemoizeFinal(id, fid);
      stream_.resize(restore_stream);
      return;
    }
    // The budget check comes AFTER the final-state check: a rule-free
    // state reached exactly as the budget trips is still a real final
    // state and must be recorded, not dropped.
    if (result_.steps_taken >= options_.max_total_steps) {
      result_.complete = false;
      Taint(parent);
      stream_.resize(restore_stream);
      return;
    }
    if (static_cast<int>(stack_.size()) >= options_.max_depth) {
      result_.complete = false;
      result_.may_not_terminate = true;  // conservative
      Taint(parent);
      stream_.resize(restore_stream);
      return;
    }
    SetBit(&on_path_, id, true);
    Frame frame;
    frame.state.emplace(std::move(state));
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

  /// Undo-backend analogue of Enter(): evaluates the state currently held
  /// in `cur_` (the one live database) without keying it by canonical
  /// string — the incremental fingerprint is the intern key. Every terminal
  /// outcome must undo what the caller set up, which `leave()` centralizes:
  /// revert this step's delta (when one is open) and roll the stream back.
  /// Non-terminal states instead push a frame that OWNS the open delta;
  /// PopFrame reverts it when the subtree is done.
  void EnterUndo(size_t parent, RuleIndex via, size_t restore_stream,
                 bool delta_open) {
    Hash128 fp = StateFingerprintUndo(*cur_);
    auto [id, fresh] = fp_interner_.Intern(fp);
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
      uint32_t fid = RecordFinalUndo(cur_->db);
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
      if (undo_) {
        rollback_id_ =
            fp_interner_
                .Intern(MixWithSalt(initial_db_.ContentFingerprint(),
                                    kRollbackSalt))
                .first;
      } else {
        std::string db_key = initial_db_.CanonicalString();
        std::string key = "ROLLBACK#" + db_key;
        result_.stats.canonicalization_bytes += static_cast<long>(key.size());
        rollback_id_ = interner_.Intern(std::move(key)).first;
        rollback_db_key_ = std::move(db_key);
      }
      rollback_interned_ = true;
    }
    MarkVisited(rollback_id_);
    int node = GraphNode(rollback_id_);
    if (node >= 0) result_.node_is_final[node] = true;
    RecordEdge(stack_[parent].node, node, via);
    uint32_t fid = undo_ ? RecordFinalUndo(initial_db_)
                         : RecordFinal(rollback_db_key_, initial_db_);
    AddFinal(parent, fid);
    MemoizeFinal(rollback_id_, fid);
  }

  void PopFrame() {
    Frame& f = stack_.back();
    SetBit(&on_path_, f.id, false);
    if (undo_ && f.owns_delta) {
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
  /// True for ExplorerOptions::StateBackend::kUndoLog.
  bool undo_;
  ExplorationResult result_;

  StateInterner interner_;
  /// Undo backend: the one live state the whole DFS steps forward and
  /// reverts — the database via its own delta log, the pending
  /// transitions via `pending_undo_`.
  std::optional<RuleProcessingState> cur_;
  /// Undo backend: inverse log for `cur_->pending` mutations; one mark per
  /// rule consideration, reverted wherever the step's db delta is.
  TransitionUndoLog pending_undo_;
  FingerprintInterner fp_interner_;
  /// Undo backend: final databases, content fingerprint -> dense final id.
  std::unordered_map<Hash128, uint32_t, Hash128Hasher> final_fp_ids_;
  std::vector<Frame> stack_;
  std::vector<ObservableEvent> stream_;
  std::vector<bool> visited_;  // by interned id
  std::vector<bool> on_path_;  // by interned id
  long visited_count_ = 0;
  size_t last_key_size_ = 0;

  // Recorded-graph node ids, by interned id (kNodeUnassigned / -1 capped).
  std::vector<int> graph_node_;
  int next_graph_node_ = 0;

  // Final databases: canonical fingerprint -> dense final id.
  std::unordered_map<std::string, uint32_t> final_ids_;

  // Dedup-subtrees memo: black = subtree fully enumerated; finals =
  // final ids reachable from the state.
  std::vector<bool> memo_black_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> memo_finals_;

  // Synthetic rollback state (interned lazily on the first rollback path).
  bool rollback_interned_ = false;
  uint32_t rollback_id_ = 0;
  std::string rollback_db_key_;
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
        undo_(options.backend == ExplorerOptions::StateBackend::kUndoLog),
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
    if (undo_) {
      initial_fp_ = initial_db_.ContentFingerprint();
      rollback_fp_ = MixWithSalt(initial_fp_, kRollbackSalt);
    } else {
      // Rendered before worker 0 copies the initial database, so its root
      // (and later the helpers' root copy) inherits the rendering, and no
      // worker ever renders the shared database.
      rollback_db_key_ = initial_db_.CanonicalString();
      rollback_fp_ = HashString128("ROLLBACK#" + rollback_db_key_);
      rollback_key_bytes_ =
          static_cast<long>(9 /* "ROLLBACK#" */ + rollback_db_key_.size());
    }

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
    /// Undo backend: this frame's entry edge holds an open delta on the
    /// worker's live state (false for region roots — the exploration root
    /// or an adopted frame, whose replay deltas are unwound by Reset).
    bool owns_delta = false;
    /// Snapshot backend: the frame's full state.
    std::optional<RuleProcessingState> state;
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
    long canonical_bytes = 0;
    int peak_depth = 0;
    std::unordered_map<Hash128, Database, Hash128Hasher> finals_undo;
    std::map<std::string, Database> finals_copy;
    std::set<std::string> streams;
  };

  /// One worker's run state: its own database (+ undo log), DFS stack,
  /// stream, and path-local cycle-detection set.
  struct Ctx {
    size_t w = 0;
    WorkerLocal* local = nullptr;
    std::optional<RuleProcessingState> cur;  // undo backend
    TransitionUndoLog pending_undo;          // undo backend
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
    size_t last_key_size = 0;           // snapshot key reserve hint
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
    } else if (undo_) {
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
      if (undo_) {
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
          EnterUndo(ctx, r, mark);
        }
        continue;
      }
      bool last = k + 1 == fan && f.state.has_value();
      RuleProcessingState next = last ? std::move(*f.state) : *f.state;
      auto step = ConsiderRule(catalog_, &next, r);
      if (!step.ok()) {
        Abort();
        return;
      }
      size_t mark = ctx.stream.size();
      for (const ObservableEvent& ev : step.value().observables) {
        ctx.stream.push_back(ev);
      }
      if (step.value().rollback) {
        RecordRollback(ctx);
        ctx.stream.resize(mark);
      } else {
        EnterCopy(ctx, std::move(next), r, mark);
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
    RuleProcessingState root = InitialState();
    Hash128 fp;
    std::string key;  // snapshot backend only
    size_t db_len = 0;
    if (undo_) {
      ctx.cur.emplace(std::move(root));
      ctx.cur->pending_undo = &ctx.pending_undo;
      fp = StateFingerprintUndo(*ctx.cur);
    } else {
      key = CanonicalStateKey(root, &db_len);
      ctx.local->canonical_bytes += static_cast<long>(key.size());
      fp = HashString128(key);
    }
    bool fresh = visited_.Insert(fp);
    if (!fresh) ++ctx.local->interner_hits;
    std::vector<RuleIndex> triggered =
        TriggeredRules(catalog_, undo_ ? *ctx.cur : root);
    if (triggered.empty()) {
      if (undo_) {
        ctx.local->finals_undo.try_emplace(initial_fp_, ctx.cur->db);
      } else {
        key.resize(db_len);
        ctx.local->finals_copy.try_emplace(std::move(key), std::move(root.db));
      }
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
    if (!undo_) frame.state.emplace(std::move(root));
    PushFrame(ctx, std::move(frame), triggered, /*via=*/-1);
  }

  /// Runs on worker 0 when the walk claims its kHelperStartSteps-th step:
  /// builds the root the helpers replay stolen paths from, then starts
  /// them. A helper whose thread fails to start is not retried — the
  /// workers already running finish the walk (an unstarted helper's deque
  /// just stays empty).
  void StartHelpers() {
    root_state_.emplace(InitialState());
    if (undo_) {
      // Rendered once before any helper copies the root, so the copies
      // inherit per-table canonical caches and the shared root stays
      // read-only while the helpers run.
      (void)root_state_->db.CanonicalString();
    }
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

  /// Undo-backend child entry: the live state sits at the child (delta
  /// open). Terminal outcomes revert; non-terminal ones push a frame that
  /// owns the delta.
  void EnterUndo(Ctx& ctx, RuleIndex via, size_t restore_stream) {
    Hash128 fp = StateFingerprintUndo(*ctx.cur);
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
      ctx.local->finals_undo.try_emplace(ctx.cur->db.ContentFingerprint(),
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

  /// Snapshot-backend child entry. The shared set is keyed by the hash of
  /// the canonical state key (the on-path set likewise), so cycle cuts and
  /// intern counts match the classic string-keyed walk up to 128-bit
  /// collisions — the same risk class the undo backend always carries.
  void EnterCopy(Ctx& ctx, RuleProcessingState&& state, RuleIndex via,
                 size_t restore_stream) {
    size_t db_len = 0;
    std::string key =
        CanonicalStateKey(state, &db_len, ctx.last_key_size + 32);
    ctx.last_key_size = key.size();
    ctx.local->canonical_bytes += static_cast<long>(key.size());
    Hash128 fp = HashString128(key);
    bool fresh = visited_.Insert(fp);
    if (!fresh) ++ctx.local->interner_hits;
    if (!fresh && ctx.on_path.count(fp) != 0) {
      may_not_terminate_.store(true, std::memory_order_relaxed);
      ctx.stream.resize(restore_stream);
      return;
    }
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, state);
    if (triggered.empty()) {
      ctx.local->finals_copy.try_emplace(key.substr(0, db_len), state.db);
      RecordStream(ctx);
      ctx.stream.resize(restore_stream);
      return;
    }
    if (static_cast<int>(Depth(ctx)) >= options_.max_depth) {
      ctx.stream.resize(restore_stream);
      Abort();
      return;
    }
    Frame frame;
    frame.state.emplace(std::move(state));
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
    std::optional<RuleProcessingState> walker;
    if (!undo_) walker.emplace(*root_state_);
    for (size_t i = 0; i < len; ++i) {
      Result<StepOutcome> step = [&] {
        if (undo_) {
          ctx.pending_undo.Mark();
          ctx.cur->db.BeginDelta();
          return ConsiderRule(catalog_, &*ctx.cur, task->path[i]);
        }
        return ConsiderRule(catalog_, &*walker, task->path[i]);
      }();
      if (!step.ok()) {
        Abort();
        return;
      }
      for (const ObservableEvent& ev : step.value().observables) {
        ctx.stream.push_back(ev);
      }
      ctx.replay.push_back({/*owns_delta=*/undo_, task->path_fps[i + 1]});
      if (i + 1 < len) ctx.on_path.insert(task->path_fps[i + 1]);
    }
    ctx.base_depth = len;
    ctx.path_rules = task->path;
    ctx.path_fps.assign(task->path_fps.begin(), task->path_fps.end() - 1);
    Frame frame;
    frame.task = task;
    frame.fp = task->path_fps[len];
    frame.restore_stream = ctx.stream.size();
    if (!undo_) frame.state.emplace(std::move(*walker));
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
      bool fresh = visited_.Insert(rollback_fp_);
      if (!fresh) ++ctx.local->interner_hits;
      if (!undo_) ctx.local->canonical_bytes += rollback_key_bytes_;
    }
    if (undo_) {
      ctx.local->finals_undo.try_emplace(initial_fp_, initial_db_);
    } else {
      ctx.local->finals_copy.try_emplace(rollback_db_key_, initial_db_);
    }
    RecordStream(ctx);
  }

  /// Records the current path's stream in the worker-local set. A local
  /// set past the cap proves the global union is past the cap — the
  /// classic walk would truncate, so abort to it.
  void RecordStream(Ctx& ctx) {
    std::string s = StreamToString(ctx.stream);
    auto [it, fresh] = ctx.local->streams.insert(std::move(s));
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
    long merge_bytes = 0;
    if (undo_) {
      // Distinct final fingerprints across workers; canonical strings are
      // rendered once per distinct final, exactly like the classic undo
      // walk's fresh-fingerprint renders.
      std::unordered_set<Hash128, Hash128Hasher> seen;
      for (WorkerLocal& local : locals_) {
        for (auto& [fp, db] : local.finals_undo) {
          if (!seen.insert(fp).second) continue;
          std::string db_key = db.CanonicalString();
          merge_bytes += static_cast<long>(db_key.size());
          out.final_states.insert(db_key);
          out.final_databases.emplace(std::move(db_key), std::move(db));
        }
      }
    } else {
      for (WorkerLocal& local : locals_) {
        for (auto& [db_key, db] : local.finals_copy) {
          if (out.final_states.insert(db_key).second) {
            out.final_databases.emplace(db_key, std::move(db));
          }
        }
      }
    }
    for (const WorkerLocal& local : locals_) {
      out.steps_taken += local.steps;
      out.stats.interner_hits += local.interner_hits;
      out.stats.delta_reverts += local.delta_reverts;
      out.stats.por_pruned_orders += local.por_pruned;
      out.stats.canonicalization_bytes += local.canonical_bytes;
      out.stats.peak_stack_depth =
          std::max(out.stats.peak_stack_depth, local.peak_depth);
    }
    out.stats.canonicalization_bytes += merge_bytes;
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
  const bool undo_;
  const size_t num_workers_;

  const Transition* initial_transition_ = nullptr;
  /// The root the helpers copy and replay from; built by StartHelpers().
  std::optional<RuleProcessingState> root_state_;
  Hash128 initial_fp_;
  Hash128 rollback_fp_;
  std::string rollback_db_key_;
  long rollback_key_bytes_ = 0;

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

/// Legacy deterministic sharding, kept for dedup_subtrees mode (the
/// subtree memo is schedule-dependent under concurrent workers, so it
/// cannot ride the work-stealing pool): the root state is expanded once,
/// then each top-level subtree — one per initial eligible rule — is
/// explored independently with its own interner, own step-budget slice,
/// and the root seeded on-path for cycle detection. Shard results are
/// merged in rule order, so the merged result is identical for any worker
/// count. When POR (or the workload) reduces the root to a single eligible
/// rule, the walk IS the classic walk — run it directly instead of paying
/// pool setup for one shard.
Result<ExplorationResult> ExploreSharded(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorerOptions& options,
                                         const std::vector<bool>* por_safe) {
  auto start = std::chrono::steady_clock::now();
  RuleProcessingState root(&catalog.schema(), catalog.num_rules());
  root.db = initial_db;
  for (Transition& t : root.pending) t = initial_transition;
  const bool undo =
      options.backend == ExplorerOptions::StateBackend::kUndoLog;
  size_t db_len = 0;
  // Also renders (and caches) the canonical strings inside root.db, so the
  // per-shard copies below start from a clean cache and workers never
  // touch a shared mutable one — needed in BOTH backends: the undo backend
  // still renders canonical strings for final states, and a root that is
  // itself final takes the string path below.
  std::string root_key = CanonicalStateKey(root, &db_len);
  Hash128 root_fp;
  if (undo) root_fp = StateFingerprintUndo(root);

  ExplorationResult merged;
  merged.streams_evaluated = !options.dedup_subtrees;
  merged.states_visited = 1;
  merged.stats.states_interned = 1;
  merged.stats.canonicalization_bytes =
      static_cast<long>(undo ? 0 : root_key.size());

  std::vector<RuleIndex> triggered = TriggeredRules(catalog, root);
  if (triggered.empty()) {
    // The root is final; mirrors the classic explorer's terminal Enter.
    std::string fingerprint = root_key.substr(0, db_len);
    merged.final_databases.emplace(fingerprint, root.db);
    merged.final_states.insert(std::move(fingerprint));
    if (!options.dedup_subtrees) merged.observable_streams.insert("");
    merged.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return merged;
  }
  // Terminal-bound checks in the classic Enter() order: budget, depth.
  if (options.max_total_steps <= 0) {
    merged.complete = false;
    return merged;
  }
  if (options.max_depth <= 0) {
    merged.complete = false;
    merged.may_not_terminate = true;  // conservative
    return merged;
  }

  std::vector<RuleIndex> eligible = EligibleRules(catalog, triggered);
  // The root state gets the same ample-set reduction as every in-shard
  // state, so classic and sharded POR prune the identical tree.
  ReduceEligible(por_safe, &eligible, &merged.stats.por_pruned_orders);
  if (eligible.size() == 1) {
    // POR (or the workload) reduced the root to one eligible rule: the one
    // "shard" is the whole walk, so run the classic explorer directly
    // instead of paying pool setup for a single worker. The classic walk
    // recounts por_pruned_orders from scratch; `merged` is discarded.
    ExplorerImpl impl(catalog, initial_db, options, por_safe);
    return impl.Run(initial_transition);
  }
  // Precomputed on this thread: the rollback fingerprint reads (and fills)
  // initial_db's mutable canonical-string caches.
  std::string rollback_fingerprint = initial_db.CanonicalString();

  struct ShardOutcome {
    Status error;
    ExplorationResult result;
  };
  std::vector<ShardOutcome> shards(eligible.size());
  ExplorerOptions shard_options = options;
  shard_options.num_threads = 0;
  shard_options.record_graph = false;
  // The shard's start state already sits one consideration below the root.
  shard_options.max_depth = options.max_depth - 1;
  // `max_total_steps` is divided across the shards (remainder to the first
  // shards in rule order) so the aggregate budget matches the classic
  // mode instead of silently handing every shard the full allowance. The
  // shard's slice funds its top-level consideration (the += 1 after the
  // sub-exploration) plus the subtree below it; a slice of 1 leaves a
  // sub-budget of 0, mirroring a classic child entered right at the trip
  // point (finals are still recorded — the budget check runs after the
  // final-state check).
  const long budget = options.max_total_steps;
  const long num_shards = static_cast<long>(eligible.size());

  ThreadPool pool(static_cast<int>(std::min(
      static_cast<size_t>(options.num_threads), eligible.size())));
  pool.ParallelFor(eligible.size(), 1, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      STARBURST_TRACE_SPAN("explorer", "explore.shard");
      RuleProcessingState state = root;
      auto step = ConsiderRule(catalog, &state, eligible[k]);
      if (!step.ok()) {
        shards[k].error = step.status();
        continue;
      }
      ExplorationResult& out = shards[k].result;
      if (step.value().rollback) {
        // Top-level rollback: the path ends at the initial database.
        out.steps_taken = 1;
        out.states_visited = 1;  // the synthetic rollback state
        out.stats.states_interned = 2;  // root seed + rollback (see merge)
        out.final_databases.emplace(rollback_fingerprint, initial_db);
        out.final_states.insert(rollback_fingerprint);
        if (!options.dedup_subtrees) {
          out.observable_streams.insert(
              StreamToString(step.value().observables));
        }
        continue;
      }
      ExplorerOptions sub_options = shard_options;
      sub_options.max_total_steps =
          budget / num_shards +
          (static_cast<long>(k) < budget % num_shards ? 1 : 0) - 1;
      ExplorerImpl impl(catalog, initial_db, sub_options, por_safe);
      if (undo) {
        impl.SeedRootOnPathFp(root_fp);
      } else {
        impl.SeedRootOnPath(root_key);
      }
      if (!options.dedup_subtrees) impl.SeedStream(step.value().observables);
      auto result = impl.RunFromState(std::move(state));
      if (!result.ok()) {
        shards[k].error = result.status();
        continue;
      }
      shards[k].result = std::move(result).value();
      shards[k].result.steps_taken += 1;  // the top-level consideration
    }
  });

  for (ShardOutcome& shard : shards) {
    if (!shard.error.ok()) return shard.error;
    ExplorationResult& r = shard.result;
    merged.complete = merged.complete && r.complete;
    merged.may_not_terminate =
        merged.may_not_terminate || r.may_not_terminate;
    merged.final_states.insert(r.final_states.begin(), r.final_states.end());
    for (auto& [fingerprint, db] : r.final_databases) {
      merged.final_databases.emplace(fingerprint, std::move(db));
    }
    merged.observable_streams.insert(r.observable_streams.begin(),
                                     r.observable_streams.end());
    merged.states_visited += r.states_visited;
    merged.steps_taken += r.steps_taken;
    STARBURST_METRIC_HISTOGRAM("explorer.shard_states", ShardStatesBounds(),
                               r.states_visited);
    // Counter aggregates: states shared between sibling subtrees are
    // counted once per shard; the seeded root id is discounted here.
    merged.stats.states_interned += r.stats.states_interned - 1;
    merged.stats.dedup_hits += r.stats.dedup_hits;
    merged.stats.interner_hits += r.stats.interner_hits;
    merged.stats.canonicalization_bytes += r.stats.canonicalization_bytes;
    merged.stats.delta_reverts += r.stats.delta_reverts;
    merged.stats.por_pruned_orders += r.stats.por_pruned_orders;
    merged.stats.peak_stack_depth = std::max(
        merged.stats.peak_stack_depth, r.stats.peak_stack_depth + 1);
  }
  // Strictly greater than the cap: a union of EXACTLY max_streams fully
  // enumerated streams is complete — only a stream beyond the cap
  // truncates (mirrors the classic RecordStream boundary, pinned by the
  // at-cap / cap-plus-one explorer tests).
  if (!options.dedup_subtrees &&
      static_cast<int>(merged.observable_streams.size()) >
          options.max_streams) {
    auto it = merged.observable_streams.begin();
    std::advance(it, options.max_streams);
    merged.observable_streams.erase(it, merged.observable_streams.end());
    merged.complete = false;
  }
  merged.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

/// Flushes one exploration's counters into the process registry. Called
/// once per exploration with the MERGED result, never per shard, so the
/// registered totals are identical whether the exploration ran classic or
/// sharded and for any worker count. Wall time goes to a gauge (cumulative
/// microseconds) — it is real time and thus outside the counter
/// determinism contract; states/sec is states_visited / wall_us.
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

/// Dispatches between the classic single-threaded explorer, the
/// work-stealing parallel mode, and the legacy sharded mode (dedup only).
Result<ExplorationResult> RunExploration(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorerOptions& options) {
  std::optional<metrics::ScopedCollect> collect;
  if (options.collect_metrics) collect.emplace();
  STARBURST_TRACE_SPAN("explorer", "explore");
  // The POR safety bitvector is computed once, before any shard spawns,
  // and shared read-only by every ExplorerImpl of this exploration.
  const std::vector<bool> por_safe_storage = PorSafeRules(catalog, options);
  const std::vector<bool>* por_safe =
      por_safe_storage.empty() ? nullptr : &por_safe_storage;
  Result<ExplorationResult> result = [&]() -> Result<ExplorationResult> {
    if (options.num_threads >= 1 && !options.record_graph) {
      if (options.dedup_subtrees) {
        // The subtree memo is schedule-dependent under concurrent workers
        // (memo soundness depends on visit order), so dedup mode keeps the
        // deterministic top-level sharding.
        return ExploreSharded(catalog, initial_db, initial_transition,
                              options, por_safe);
      }
      if (options.num_threads >= 2) {
        WorkStealingExplorer stealing(catalog, initial_db, options,
                                      por_safe);
        return stealing.Run(initial_transition);
      }
      // num_threads == 1: one worker is the classic walk — skip pool and
      // shared-structure setup entirely.
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
  Executor executor(&db);
  Transition initial_transition;
  for (const std::string& sql : user_statements) {
    STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
    STARBURST_ASSIGN_OR_RETURN(ExecOutcome outcome,
                               executor.Execute(*stmt, nullptr, nullptr));
    if (outcome.rollback) {
      return Status::InvalidArgument(
          "user statements for exploration must not roll back");
    }
    STARBURST_RETURN_IF_ERROR(initial_transition.Compose(outcome.delta));
  }
  return RunExploration(catalog, db, initial_transition, options);
}

}  // namespace starburst
