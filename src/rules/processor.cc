#include "rules/processor.h"

#include <cstdio>

#include "common/trace.h"
#include "rulelang/parser.h"

namespace starburst {

namespace {

/// Inclusive upper edges for processor.assert_steps: rule considerations
/// per assertion point — the cascade (recursion) depth of rule processing.
const std::vector<int64_t>& AssertStepsBounds() {
  static const std::vector<int64_t>* bounds = new std::vector<int64_t>{
      1, 2, 4, 8, 16, 32, 64, 128, 256, 1024};
  return *bounds;
}

bool IsTriggered(const RuleCatalog& catalog, const RuleProcessingState& state,
                 RuleIndex r) {
  const RulePrelim& prelim = catalog.prelim().rule(r);
  const TableTransition* tt = state.pending[r].Find(prelim.table);
  if (tt == nullptr || tt->empty()) return false;
  // Probe the rule's Triggered-By set directly instead of materializing the
  // transition's net-effect OperationSet — equivalent to
  // Intersects(NetOperations(...), triggered_by) but allocation-free, and
  // this runs once per rule per visited explorer state.
  const OperationSet& by = prelim.triggered_by;
  if (tt->HasInserts() && by.count(Operation::Insert(prelim.table)) > 0) {
    return true;
  }
  if (tt->HasDeletes() && by.count(Operation::Delete(prelim.table)) > 0) {
    return true;
  }
  for (ColumnId c : tt->UpdatedColumns()) {
    if (by.count(Operation::Update(prelim.table, c)) > 0) return true;
  }
  return false;
}

}  // namespace

std::string CanonicalStateKey(const RuleProcessingState& state) {
  std::string key;
  state.db.AppendCanonicalString(&key);
  key += '#';
  for (const Transition& t : state.pending) {
    t.AppendCanonicalString(&key);
    key += '|';
  }
  return key;
}

Result<Transition> ApplyUserStatements(
    Database* db, const std::vector<std::string>& user_statements) {
  Executor executor(db);
  Transition initial;
  for (const std::string& sql : user_statements) {
    STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
    STARBURST_ASSIGN_OR_RETURN(ExecOutcome outcome,
                               executor.Execute(*stmt, nullptr, nullptr));
    if (outcome.rollback) {
      return Status::InvalidArgument("user statements must not roll back");
    }
    STARBURST_RETURN_IF_ERROR(initial.Compose(outcome.delta));
  }
  return initial;
}

std::vector<RuleIndex> TriggeredRules(const RuleCatalog& catalog,
                                      const RuleProcessingState& state) {
  std::vector<RuleIndex> out;
  for (RuleIndex r = 0; r < catalog.num_rules(); ++r) {
    if (IsTriggered(catalog, state, r)) out.push_back(r);
  }
  return out;
}

std::vector<RuleIndex> EligibleRules(const RuleCatalog& catalog,
                                     const std::vector<RuleIndex>& triggered) {
  return catalog.priority().Choose(triggered);
}

Result<StepOutcome> ConsiderRule(const RuleCatalog& catalog,
                                 RuleProcessingState* state, RuleIndex r) {
  const RuleDef& rule = catalog.rule(r);
  const RulePrelim& prelim = catalog.prelim().rule(r);
  const TableDef& table_def = catalog.schema().table(prelim.table);

  // Snapshot the rule's triggering transition: condition and action see the
  // transition tables of the composite transition since last consideration.
  TableTransition triggering;
  if (const TableTransition* tt = state->pending[r].Find(prelim.table)) {
    triggering = *tt;
  }
  // The rule is now considered: it has processed its pending transition.
  if (state->pending_undo != nullptr) {
    state->pending[r].ClearLogged(state->pending_undo);
  } else {
    state->pending[r].Clear();
  }

  StepOutcome outcome;

  if (rule.condition != nullptr) {
    Evaluator eval(&state->db, &triggering, &table_def);
    STARBURST_ASSIGN_OR_RETURN(bool cond, eval.EvalPredicate(*rule.condition));
    if (!cond) {
      outcome.condition_was_true = false;
      return outcome;
    }
  }
  outcome.condition_was_true = true;

  Executor executor(&state->db);
  for (const StmtPtr& stmt : rule.actions) {
    STARBURST_ASSIGN_OR_RETURN(ExecOutcome exec,
                               executor.Execute(*stmt, &triggering, &table_def));
    for (ObservableEvent& ev : exec.observables) {
      outcome.observables.push_back(std::move(ev));
    }
    if (exec.rollback) {
      outcome.rollback = true;
      return outcome;  // caller restores state and aborts
    }
    // Tally net tuple changes for tracing.
    for (const auto& [table, tt] : exec.delta.tables()) {
      for (const auto& [rid, change] : tt.changes()) {
        switch (change.kind) {
          case NetChange::Kind::kInserted:
            ++outcome.tuples_inserted;
            break;
          case NetChange::Kind::kDeleted:
            ++outcome.tuples_deleted;
            break;
          case NetChange::Kind::kUpdated:
            ++outcome.tuples_updated;
            break;
        }
      }
    }
    // Compose the action's changes into every rule's pending transition
    // (including r's own, reset above): rules not yet considered see the
    // action as part of their composite transition.
    for (Transition& pending : state->pending) {
      if (state->pending_undo != nullptr) {
        STARBURST_RETURN_IF_ERROR(
            pending.ComposeLogged(exec.delta, state->pending_undo));
      } else {
        STARBURST_RETURN_IF_ERROR(pending.Compose(exec.delta));
      }
    }
    outcome.transition_compositions +=
        static_cast<int>(state->pending.size());
  }
  return outcome;
}

std::string TraceToString(const std::vector<ConsiderationTrace>& trace,
                          const RuleCatalog& catalog) {
  std::string out =
      "step  rule                 cond   ins  del  upd  trig  elig\n";
  for (size_t i = 0; i < trace.size(); ++i) {
    const ConsiderationTrace& t = trace[i];
    std::string name = t.rule >= 0 && t.rule < catalog.num_rules()
                           ? catalog.prelim().rule(t.rule).name
                           : "?";
    name.resize(20, ' ');
    char line[128];
    std::snprintf(line, sizeof(line), "%4zu  %s %s %5d %4d %4d %5d %5d%s\n",
                  i, name.c_str(), t.condition_was_true ? "true " : "false",
                  t.tuples_inserted, t.tuples_deleted, t.tuples_updated,
                  t.triggered_count, t.eligible_count,
                  t.rolled_back ? "  ROLLBACK" : "");
    out += line;
  }
  return out;
}

ChoiceStrategy FirstEligibleStrategy() {
  return [](const std::vector<RuleIndex>& eligible, int /*step*/) -> size_t {
    (void)eligible;
    return 0;
  };
}

ChoiceStrategy SeededRandomStrategy(uint64_t seed) {
  return [seed](const std::vector<RuleIndex>& eligible, int step) -> size_t {
    // SplitMix64 on (seed, step) — deterministic per (seed, step) pair.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(step) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return static_cast<size_t>(z % eligible.size());
  };
}

RuleProcessor::RuleProcessor(Database* db, const RuleCatalog* catalog,
                             ProcessorOptions options)
    : db_(db),
      catalog_(catalog),
      options_(std::move(options)),
      pending_(catalog->num_rules()),
      enabled_(catalog->num_rules(), true) {
  if (!options_.choice) options_.choice = FirstEligibleStrategy();
}

Status RuleProcessor::SetRuleEnabled(const std::string& name, bool enabled) {
  RuleIndex r = catalog_->FindRule(name);
  if (r < 0) return Status::NotFound("no rule named '" + name + "'");
  enabled_[r] = enabled;
  return Status::OK();
}

void RuleProcessor::Begin() {
  if (in_transaction_) return;
  // O(1): rollback is an undo-log revert, not a whole-database copy.
  db_->BeginDelta();
  for (Transition& t : pending_) t.Clear();
  in_transaction_ = true;
}

Result<ExecOutcome> RuleProcessor::ExecuteUserStatement(const Stmt& stmt) {
  Begin();
  Executor executor(db_);
  STARBURST_ASSIGN_OR_RETURN(ExecOutcome outcome,
                             executor.Execute(stmt, nullptr, nullptr));
  if (outcome.rollback) {
    db_->RevertDelta();
    for (Transition& t : pending_) t.Clear();
    in_transaction_ = false;
    return outcome;
  }
  for (Transition& pending : pending_) {
    STARBURST_RETURN_IF_ERROR(pending.Compose(outcome.delta));
  }
  return outcome;
}

Result<ExecOutcome> RuleProcessor::ExecuteUserStatement(std::string_view sql) {
  STARBURST_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
  return ExecuteUserStatement(*stmt);
}

void RuleProcessor::NoteFiring(RuleIndex r) {
  if (!metrics::Enabled()) return;
  if (fired_counters_.empty()) {
    fired_counters_.resize(static_cast<size_t>(catalog_->num_rules()),
                           nullptr);
  }
  metrics::Counter*& counter = fired_counters_[static_cast<size_t>(r)];
  if (counter == nullptr) {
    counter = metrics::GetCounter("processor.fired." +
                                  catalog_->prelim().rule(r).name);
  }
  counter->Increment();
}

Result<ProcessingResult> RuleProcessor::AssertRules() {
  STARBURST_TRACE_SPAN("processor", "assert_rules");
  Begin();
  ProcessingResult result;
  long firings = 0;
  long compositions = 0;
  // One registry flush per assertion point, on every exit path; per-event
  // work stays in locals so the processing loop costs nothing extra.
  auto flush_metrics = [&]() {
    if (!metrics::Enabled()) return;
    STARBURST_METRIC_COUNT("processor.assert_rules", 1);
    STARBURST_METRIC_COUNT("processor.considerations", result.steps);
    STARBURST_METRIC_COUNT("processor.firings", firings);
    STARBURST_METRIC_COUNT("processor.transition_compositions",
                           compositions);
    STARBURST_METRIC_HISTOGRAM("processor.assert_steps", AssertStepsBounds(),
                               result.steps);
  };
  // Borrow the database into a processing state; pendings are shared via
  // move in/out to avoid copies.
  RuleProcessingState state(&db_->schema(), 0);
  state.db = std::move(*db_);
  state.pending = std::move(pending_);

  auto restore = [&]() {
    *db_ = std::move(state.db);
    pending_ = std::move(state.pending);
  };

  while (true) {
    std::vector<RuleIndex> triggered;
    for (RuleIndex r : TriggeredRules(*catalog_, state)) {
      if (enabled_[r]) triggered.push_back(r);
    }
    if (triggered.empty()) {
      result.terminated = true;
      break;
    }
    if (result.steps >= options_.max_steps) {
      restore();
      flush_metrics();
      return Status::LimitExceeded(
          "rule processing exceeded " + std::to_string(options_.max_steps) +
          " considerations; the rule set may not terminate");
    }
    std::vector<RuleIndex> eligible = EligibleRules(*catalog_, triggered);
    size_t pick = options_.choice(eligible, result.steps);
    if (pick >= eligible.size()) pick = 0;
    RuleIndex r = eligible[pick];
    result.considered.push_back(r);
    ++result.steps;
    if (options_.record_trace) {
      ConsiderationTrace entry;
      entry.rule = r;
      entry.triggered_count = static_cast<int>(triggered.size());
      entry.eligible_count = static_cast<int>(eligible.size());
      result.trace.push_back(entry);
    }

    auto step = ConsiderRule(*catalog_, &state, r);
    if (!step.ok()) {
      // A failed rule action may have applied part of its statements;
      // abort the transaction so no partial effects survive.
      state.db.RevertDelta();
      *db_ = std::move(state.db);
      for (Transition& t : state.pending) t.Clear();
      pending_ = std::move(state.pending);
      in_transaction_ = false;
      flush_metrics();
      return step.status();
    }
    compositions += step.value().transition_compositions;
    if (step.value().condition_was_true) {
      ++firings;
      NoteFiring(r);
    }
    if (options_.record_trace) {
      ConsiderationTrace& entry = result.trace.back();
      entry.condition_was_true = step.value().condition_was_true;
      entry.rolled_back = step.value().rollback;
      entry.tuples_inserted = step.value().tuples_inserted;
      entry.tuples_deleted = step.value().tuples_deleted;
      entry.tuples_updated = step.value().tuples_updated;
    }
    for (ObservableEvent& ev : step.value().observables) {
      result.observables.push_back(std::move(ev));
    }
    if (step.value().rollback) {
      // Restore to transaction start and abort.
      state.db.RevertDelta();
      *db_ = std::move(state.db);
      for (Transition& t : state.pending) t.Clear();
      pending_ = std::move(state.pending);
      in_transaction_ = false;
      result.rolled_back = true;
      result.terminated = true;
      STARBURST_METRIC_COUNT("processor.rollbacks", 1);
      flush_metrics();
      return result;
    }
  }
  restore();
  // Processing terminated: the next assertion point starts a fresh
  // composite transition for every rule.
  for (Transition& t : pending_) t.Clear();
  flush_metrics();
  return result;
}

void RuleProcessor::Commit() {
  if (in_transaction_) db_->CommitDelta();
  for (Transition& t : pending_) t.Clear();
  in_transaction_ = false;
}

}  // namespace starburst
