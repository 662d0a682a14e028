#ifndef STARBURST_ENGINE_TRANSITION_H_
#define STARBURST_ENGINE_TRANSITION_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/fingerprint.h"
#include "engine/table.h"

namespace starburst {

/// The net effect of a transition on one tuple, per [WF90] / Section 2 of
/// the paper:
///   * updated several times  -> one composite update
///   * updated then deleted   -> a deletion (of the original tuple)
///   * inserted then updated  -> insertion of the updated tuple
///   * inserted then deleted  -> nothing at all (the entry is dropped)
/// A composite update whose old and new tuples are identical is also
/// dropped: it has no net effect (this is what makes "undo" rules able to
/// untrigger other rules).
struct NetChange {
  enum class Kind { kInserted, kDeleted, kUpdated };
  Kind kind = Kind::kInserted;
  Tuple old_tuple;  // valid for kDeleted and kUpdated
  Tuple new_tuple;  // valid for kInserted and kUpdated

  /// Cache of TableTransition::EntryHash for this entry under the rid it
  /// is keyed by; maintained (and invalidated on mutation) exclusively in
  /// transition.cc. Copies carry the cache with them — deliberately:
  /// composing one delta entry into the pending transitions of every rule
  /// on its table hashes it once.
  mutable Hash128 entry_hash;
  mutable bool entry_hash_valid = false;
};

/// Net effect of a transition on one table: rid -> NetChange, closed under
/// the composition rules above.
class TableTransition {
 public:
  bool empty() const { return changes_.empty(); }
  const std::map<Rid, NetChange>& changes() const { return changes_; }

  /// Records that `rid` was just inserted with value `tuple`.
  /// Internal error if `rid` already appears (rids are never reused).
  Status ApplyInsert(Rid rid, Tuple tuple);

  /// Records that `rid` (current value `old_tuple`) was just deleted.
  Status ApplyDelete(Rid rid, Tuple old_tuple);

  /// Records that `rid` was just updated from `old_tuple` to `new_tuple`.
  Status ApplyUpdate(Rid rid, Tuple old_tuple, Tuple new_tuple);

  /// Composes `next` after this transition (this ∘ next), merging per-rid
  /// per the net-effect rules.
  Status Compose(const TableTransition& next);

  /// Applies one net change from a composing transition — the per-entry
  /// body of Compose, exposed so Transition::ComposeLogged can record an
  /// inverse before each entry lands.
  Status ApplyChange(Rid rid, const NetChange& change);

  /// Whether the net effect contains any insertion / any deletion.
  bool HasInserts() const;
  bool HasDeletes() const;

  /// Column ids c such that some net update changes column c.
  std::set<ColumnId> UpdatedColumns() const;

  /// Transition-table contents (Section 2): `inserted` holds new tuples of
  /// net insertions, `deleted` old tuples of net deletions, `new_updated` /
  /// `old_updated` the new/old values of net updates. Tuples are returned
  /// in rid order (deterministic).
  std::vector<Tuple> InsertedTuples() const;
  std::vector<Tuple> DeletedTuples() const;
  std::vector<Tuple> NewUpdatedTuples() const;
  std::vector<Tuple> OldUpdatedTuples() const;

  /// Canonical rendering for state hashing in the explorer.
  std::string CanonicalString() const;

  /// Appends CanonicalString() to `*out` (explorer hot path).
  void AppendCanonicalString(std::string* out) const;

  /// Incremental multiset hash of the net changes: the sum over entries of
  /// HashBytes128 of that entry's canonical rendering, kept up to date by
  /// every Apply*/Compose. Because entries are keyed by rid, two table
  /// transitions have equal content hashes exactly when their canonical
  /// strings are equal (128-bit collisions aside) — this is what lets the
  /// explorer's undo-log backend fingerprint pending transitions without
  /// rendering them per visited state.
  const Hash128& content_hash() const { return content_hash_; }

 private:
  friend class TransitionUndoLog;

  /// Appends the canonical rendering of one entry (shared by
  /// AppendCanonicalString and the incremental content hash).
  static void AppendEntry(std::string* out, Rid rid, const NetChange& change);
  static Hash128 EntryHash(Rid rid, const NetChange& change);

  /// Puts entry `rid` back to its pre-mutation state: the recorded old
  /// change when `had` (erased otherwise), and the recorded content hash.
  void RestoreEntry(Rid rid, bool had, NetChange&& old_change,
                    const Hash128& old_hash);

  std::map<Rid, NetChange> changes_;
  Hash128 content_hash_;
};

class Transition;

/// Inverse-operation log for pending-transition mutations — the analogue
/// of TableStorage's undo log one level up. The explorer's undo-log
/// backend opens a mark before each rule consideration (whose mutations go
/// through Transition::ClearLogged / ComposeLogged) and reverts to it when
/// backtracking, so the per-rule pending transitions are restored in
/// O(changes made) instead of being deep-copied per DFS child. Records
/// hold raw Transition pointers: the logged transitions must stay at fixed
/// addresses between Mark() and RevertToMark().
class TransitionUndoLog {
 public:
  void Mark() { marks_.push_back(records_.size()); }

  /// Undoes every logged mutation since the most recent Mark(), newest
  /// first, and pops that mark.
  void RevertToMark();

 private:
  friend class Transition;

  struct Record {
    Transition* target = nullptr;
    bool is_clear = false;
    // Entry records: which entry of which table, what it was before.
    TableId table = 0;
    Rid rid = 0;
    bool had_entry = false;
    NetChange old_change;
    Hash128 old_hash;
    // Clear records: the whole per-table map, moved (not copied) here.
    std::map<TableId, TableTransition> old_tables;
  };

  std::vector<Record> records_;
  std::vector<size_t> marks_;
};

/// Net effect of a transition on the whole database: one TableTransition
/// per touched table. This is the "composite transition" a rule sees
/// between consecutive considerations (Section 2).
class Transition {
 public:
  bool empty() const;

  /// The per-table net effect; creates an empty entry on demand.
  TableTransition& ForTable(TableId table);

  /// Returns nullptr when the table is untouched.
  const TableTransition* Find(TableId table) const;

  const std::map<TableId, TableTransition>& tables() const { return tables_; }

  /// Composes `next` after this transition.
  Status Compose(const Transition& next);

  /// Composes `next`, a net effect on `table`, after this transition's
  /// entry for `table`, with inverse records appended to `*log`, so a later
  /// TransitionUndoLog::RevertToMark restores this transition exactly.
  Status ComposeLogged(TableId table, const TableTransition& next,
                       TransitionUndoLog* log);

  void Clear() { tables_.clear(); }

  /// Clear whose inverse is logged; the current contents are moved into
  /// the log record, not copied.
  void ClearLogged(TransitionUndoLog* log);

  std::string CanonicalString() const;

  /// Appends CanonicalString() to `*out` (explorer hot path).
  void AppendCanonicalString(std::string* out) const;

  /// Content hash of the whole transition: the sum over non-empty tables
  /// of the per-table content hash mixed with a table-id salt (so moving
  /// the same changes to a different table changes the hash). Equal iff
  /// CanonicalString() is equal, collisions aside. O(#touched tables).
  Hash128 ContentHash() const;

 private:
  friend class TransitionUndoLog;

  std::map<TableId, TableTransition> tables_;
};

}  // namespace starburst

#endif  // STARBURST_ENGINE_TRANSITION_H_
