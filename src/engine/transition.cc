#include "engine/transition.h"

#include <charconv>

namespace starburst {

namespace {

bool TuplesEqual(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

Status TableTransition::ApplyInsert(Rid rid, Tuple tuple) {
  auto it = changes_.find(rid);
  if (it != changes_.end()) {
    return Status::Internal("insert of rid " + std::to_string(rid) +
                            " which already has a net change (rids are never "
                            "reused)");
  }
  NetChange change;
  change.kind = NetChange::Kind::kInserted;
  change.new_tuple = std::move(tuple);
  auto pos = changes_.emplace(rid, std::move(change)).first;
  content_hash_.Add(EntryHash(rid, pos->second));
  return Status::OK();
}

Status TableTransition::ApplyDelete(Rid rid, Tuple old_tuple) {
  auto it = changes_.find(rid);
  if (it == changes_.end()) {
    NetChange change;
    change.kind = NetChange::Kind::kDeleted;
    change.old_tuple = std::move(old_tuple);
    auto pos = changes_.emplace(rid, std::move(change)).first;
    content_hash_.Add(EntryHash(rid, pos->second));
    return Status::OK();
  }
  NetChange& existing = it->second;
  switch (existing.kind) {
    case NetChange::Kind::kInserted:
      // Inserted then deleted: not considered at all.
      content_hash_.Sub(EntryHash(rid, existing));
      changes_.erase(it);
      return Status::OK();
    case NetChange::Kind::kUpdated:
      // Updated then deleted: a deletion of the original tuple.
      content_hash_.Sub(EntryHash(rid, existing));
      existing.kind = NetChange::Kind::kDeleted;
      existing.new_tuple.clear();
      existing.entry_hash_valid = false;
      content_hash_.Add(EntryHash(rid, existing));
      return Status::OK();
    case NetChange::Kind::kDeleted:
      return Status::Internal("double delete of rid " + std::to_string(rid));
  }
  return Status::Internal("corrupt net change");
}

Status TableTransition::ApplyUpdate(Rid rid, Tuple old_tuple,
                                    Tuple new_tuple) {
  auto it = changes_.find(rid);
  if (it == changes_.end()) {
    if (TuplesEqual(old_tuple, new_tuple)) return Status::OK();
    NetChange change;
    change.kind = NetChange::Kind::kUpdated;
    change.old_tuple = std::move(old_tuple);
    change.new_tuple = std::move(new_tuple);
    auto pos = changes_.emplace(rid, std::move(change)).first;
    content_hash_.Add(EntryHash(rid, pos->second));
    return Status::OK();
  }
  NetChange& existing = it->second;
  switch (existing.kind) {
    case NetChange::Kind::kInserted:
      // Inserted then updated: insertion of the updated tuple.
      content_hash_.Sub(EntryHash(rid, existing));
      existing.new_tuple = std::move(new_tuple);
      existing.entry_hash_valid = false;
      content_hash_.Add(EntryHash(rid, existing));
      return Status::OK();
    case NetChange::Kind::kUpdated:
      // Composite update; drop if it nets out to no change.
      content_hash_.Sub(EntryHash(rid, existing));
      if (TuplesEqual(existing.old_tuple, new_tuple)) {
        changes_.erase(it);
      } else {
        existing.new_tuple = std::move(new_tuple);
        existing.entry_hash_valid = false;
        content_hash_.Add(EntryHash(rid, existing));
      }
      return Status::OK();
    case NetChange::Kind::kDeleted:
      return Status::Internal("update of deleted rid " + std::to_string(rid));
  }
  return Status::Internal("corrupt net change");
}

Status TableTransition::Compose(const TableTransition& next) {
  for (const auto& [rid, change] : next.changes_) {
    STARBURST_RETURN_IF_ERROR(ApplyChange(rid, change));
  }
  return Status::OK();
}

Status TableTransition::ApplyChange(Rid rid, const NetChange& change) {
  auto it = changes_.find(rid);
  if (it == changes_.end()) {
    if (change.kind == NetChange::Kind::kUpdated &&
        TuplesEqual(change.old_tuple, change.new_tuple)) {
      return Status::OK();
    }
    // Fresh entry: it lands as an exact copy of `change`, so the source's
    // cached entry hash — computed at most once per composed delta entry —
    // is reused for every pending transition the delta is composed into.
    content_hash_.Add(EntryHash(rid, change));
    changes_.emplace(rid, change);
    return Status::OK();
  }
  switch (change.kind) {
    case NetChange::Kind::kInserted:
      return ApplyInsert(rid, change.new_tuple);
    case NetChange::Kind::kDeleted:
      return ApplyDelete(rid, change.old_tuple);
    case NetChange::Kind::kUpdated:
      return ApplyUpdate(rid, change.old_tuple, change.new_tuple);
  }
  return Status::Internal("corrupt net change");
}

void TableTransition::RestoreEntry(Rid rid, bool had, NetChange&& old_change,
                                   const Hash128& old_hash) {
  if (had) {
    changes_.insert_or_assign(rid, std::move(old_change));
  } else {
    changes_.erase(rid);
  }
  content_hash_ = old_hash;
}

bool TableTransition::HasInserts() const {
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kInserted) return true;
  }
  return false;
}

bool TableTransition::HasDeletes() const {
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kDeleted) return true;
  }
  return false;
}

std::set<ColumnId> TableTransition::UpdatedColumns() const {
  std::set<ColumnId> cols;
  for (const auto& [rid, change] : changes_) {
    if (change.kind != NetChange::Kind::kUpdated) continue;
    for (size_t c = 0; c < change.old_tuple.size(); ++c) {
      if (!(change.old_tuple[c] == change.new_tuple[c])) {
        cols.insert(static_cast<ColumnId>(c));
      }
    }
  }
  return cols;
}

std::vector<Tuple> TableTransition::InsertedTuples() const {
  std::vector<Tuple> out;
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kInserted) {
      out.push_back(change.new_tuple);
    }
  }
  return out;
}

std::vector<Tuple> TableTransition::DeletedTuples() const {
  std::vector<Tuple> out;
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kDeleted) {
      out.push_back(change.old_tuple);
    }
  }
  return out;
}

std::vector<Tuple> TableTransition::NewUpdatedTuples() const {
  std::vector<Tuple> out;
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kUpdated) {
      out.push_back(change.new_tuple);
    }
  }
  return out;
}

std::vector<Tuple> TableTransition::OldUpdatedTuples() const {
  std::vector<Tuple> out;
  for (const auto& [rid, change] : changes_) {
    if (change.kind == NetChange::Kind::kUpdated) {
      out.push_back(change.old_tuple);
    }
  }
  return out;
}

std::string TableTransition::CanonicalString() const {
  std::string out;
  AppendCanonicalString(&out);
  return out;
}

void TableTransition::AppendCanonicalString(std::string* out) const {
  *out += '{';
  for (const auto& [rid, change] : changes_) {
    AppendEntry(out, rid, change);
  }
  *out += '}';
}

void TableTransition::AppendEntry(std::string* out, Rid rid,
                                  const NetChange& change) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), rid);
  out->append(buf, end);
  switch (change.kind) {
    case NetChange::Kind::kInserted:
      *out += '+';
      AppendTupleToString(out, change.new_tuple);
      break;
    case NetChange::Kind::kDeleted:
      *out += '-';
      AppendTupleToString(out, change.old_tuple);
      break;
    case NetChange::Kind::kUpdated:
      *out += '~';
      AppendTupleToString(out, change.old_tuple);
      *out += '>';
      AppendTupleToString(out, change.new_tuple);
      break;
  }
  *out += ';';
}

Hash128 TableTransition::EntryHash(Rid rid, const NetChange& change) {
  if (change.entry_hash_valid) return change.entry_hash;
  // Entries are short ("12+(1);" and the like), so this usually stays in
  // the small-string buffer. Runs once per distinct net change, not per
  // visited explorer state.
  std::string rendered;
  AppendEntry(&rendered, rid, change);
  change.entry_hash = HashString128(rendered);
  change.entry_hash_valid = true;
  return change.entry_hash;
}

bool Transition::empty() const {
  for (const auto& [table, tt] : tables_) {
    if (!tt.empty()) return false;
  }
  return true;
}

TableTransition& Transition::ForTable(TableId table) {
  return tables_[table];
}

const TableTransition* Transition::Find(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second;
}

Status Transition::Compose(const Transition& next) {
  for (const auto& [table, tt] : next.tables_) {
    STARBURST_RETURN_IF_ERROR(tables_[table].Compose(tt));
  }
  return Status::OK();
}

Status Transition::ComposeLogged(TableId table, const TableTransition& next,
                                 TransitionUndoLog* log) {
  TableTransition& tt = tables_[table];
  for (const auto& [rid, change] : next.changes()) {
    TransitionUndoLog::Record rec;
    rec.target = this;
    rec.table = table;
    rec.rid = rid;
    rec.old_hash = tt.content_hash();
    auto it = tt.changes().find(rid);
    if (it != tt.changes().end()) {
      rec.had_entry = true;
      rec.old_change = it->second;
    }
    log->records_.push_back(std::move(rec));
    STARBURST_RETURN_IF_ERROR(tt.ApplyChange(rid, change));
  }
  return Status::OK();
}

void Transition::ClearLogged(TransitionUndoLog* log) {
  TransitionUndoLog::Record rec;
  rec.target = this;
  rec.is_clear = true;
  rec.old_tables = std::move(tables_);
  tables_.clear();  // moved-from: make the empty state explicit
  log->records_.push_back(std::move(rec));
}

void TransitionUndoLog::RevertToMark() {
  size_t mark = marks_.back();
  marks_.pop_back();
  while (records_.size() > mark) {
    Record& rec = records_.back();
    if (rec.is_clear) {
      rec.target->tables_ = std::move(rec.old_tables);
    } else {
      rec.target->tables_[rec.table].RestoreEntry(
          rec.rid, rec.had_entry, std::move(rec.old_change), rec.old_hash);
    }
    records_.pop_back();
  }
}

std::string Transition::CanonicalString() const {
  std::string out;
  AppendCanonicalString(&out);
  return out;
}

void Transition::AppendCanonicalString(std::string* out) const {
  char buf[16];
  for (const auto& [table, tt] : tables_) {
    if (tt.empty()) continue;
    *out += 't';
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), table);
    out->append(buf, end);
    tt.AppendCanonicalString(out);
  }
}

Hash128 Transition::ContentHash() const {
  constexpr uint64_t kTransitionTableSalt = 0x7472616e736974ull;  // "transit"
  Hash128 h;
  for (const auto& [table, tt] : tables_) {
    if (tt.empty()) continue;
    h.Add(MixWithSalt(tt.content_hash(),
                      kTransitionTableSalt + static_cast<uint64_t>(table)));
  }
  return h;
}

}  // namespace starburst
