#include "testing/reference_explorer.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rules/processor.h"

namespace starburst {
namespace fuzzing {

namespace {

class ReferenceWalk {
 public:
  ReferenceWalk(const RuleCatalog& catalog, const Database& initial_db,
                const ExplorerOptions& options)
      : catalog_(catalog), initial_db_(initial_db), options_(options) {}

  Result<ExplorationResult> Run(const Transition& initial_transition) {
    RuleProcessingState root =
        InitialProcessingState(catalog_, initial_db_, initial_transition);
    STARBURST_RETURN_IF_ERROR(Visit(root, /*depth=*/0));
    result_.states_visited =
        static_cast<long>(visited_.size()) + (rollback_reached_ ? 1 : 0);
    return std::move(result_);
  }

 private:
  Status Visit(const RuleProcessingState& state, int depth) {
    std::string key = CanonicalStateKey(state);
    if (on_path_.count(key) != 0) {
      // A cycle in the execution graph: an infinitely long path exists.
      result_.may_not_terminate = true;
      return Status::OK();
    }
    visited_.insert(key);
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, state);
    if (triggered.empty()) {
      RecordFinal(state.db);
      return Status::OK();
    }
    if (depth >= options_.max_depth) {
      result_.complete = false;
      result_.may_not_terminate = true;
      return Status::OK();
    }
    on_path_.insert(key);
    Status status = Status::OK();
    for (RuleIndex r : EligibleRules(catalog_, triggered)) {
      // The budget is checked where a step is claimed. Once it is spent
      // every later claim trips too, so the whole walk stops here.
      if (result_.steps_taken >= options_.max_total_steps) {
        result_.complete = false;
        break;
      }
      ++result_.steps_taken;
      RuleProcessingState next = state;
      Result<StepOutcome> step = ConsiderRule(catalog_, &next, r);
      if (!step.ok()) {
        status = step.status();
        break;
      }
      size_t mark = stream_.size();
      stream_.insert(stream_.end(), step.value().observables.begin(),
                     step.value().observables.end());
      if (step.value().rollback) {
        // The transaction aborts: the path ends in the synthetic rollback
        // state, whose database is the initial database.
        rollback_reached_ = true;
        RecordFinal(initial_db_);
      } else {
        status = Visit(next, depth + 1);
      }
      stream_.resize(mark);
      if (!status.ok()) break;
    }
    on_path_.erase(key);
    return status;
  }

  void RecordFinal(const Database& db) {
    std::string db_key = db.CanonicalString();
    if (result_.final_states.insert(db_key).second) {
      result_.final_databases.emplace(std::move(db_key), db);
    }
    std::string stream = ObservableStreamToString(stream_);
    if (static_cast<int>(result_.observable_streams.size()) <
        options_.max_streams) {
      result_.observable_streams.insert(std::move(stream));
    } else if (result_.observable_streams.count(stream) == 0) {
      result_.complete = false;
    }
  }

  const RuleCatalog& catalog_;
  const Database& initial_db_;
  const ExplorerOptions& options_;
  ExplorationResult result_;
  std::vector<ObservableEvent> stream_;
  std::unordered_set<std::string> visited_;
  std::unordered_set<std::string> on_path_;
  bool rollback_reached_ = false;
};

}  // namespace

Result<ExplorationResult> ReferenceExplore(const RuleCatalog& catalog,
                                           const Database& initial_db,
                                           const Transition& initial_transition,
                                           const ExplorerOptions& options) {
  return ReferenceWalk(catalog, initial_db, options).Run(initial_transition);
}

}  // namespace fuzzing
}  // namespace starburst
