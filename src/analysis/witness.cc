#include "analysis/witness.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "analysis/rule_index.h"
#include "common/metrics.h"

namespace starburst {

namespace {

/// One terminating path found during reconstruction.
struct FoundPath {
  std::vector<RuleIndex> sequence;
  std::string final_state;  // canonical database string
  std::string stream;       // ObservableStreamToString rendering
  bool rollback = false;
};

/// Deterministic bounded DFS over the execution graph, looking for the
/// first path (in ascending-rule-index expansion order, i.e. the
/// lexicographically smallest firing sequence) to each of two target
/// outcomes. Snapshot-copy states keep the walk simple; the budgets bound
/// the cost like the explorer's.
class Reconstructor {
 public:
  Reconstructor(const RuleCatalog& catalog, const Database& initial_db,
                const Transition& initial_transition,
                const WitnessOptions& options, DivergenceWitness::Kind kind,
                const std::string& target_a, const std::string& target_b)
      : catalog_(catalog),
        initial_db_(initial_db),
        initial_transition_(initial_transition),
        options_(options),
        kind_(kind),
        target_a_(target_a),
        target_b_(target_b),
        initial_canonical_(initial_db.CanonicalString()) {}

  /// Runs the DFS. On success path_a() / path_b() hold the two paths;
  /// exhausted() reports whether a budget bound was hit before both were
  /// found (targets may then legitimately be missing).
  Status Run() {
    RuleProcessingState state(&catalog_.schema(), catalog_.num_rules());
    state.db = initial_db_;
    for (Transition& t : state.pending) t = initial_transition_;
    std::vector<RuleIndex> sequence;
    std::vector<ObservableEvent> stream;
    return Visit(state, &sequence, &stream, /*depth=*/0);
  }

  bool both_found() const {
    return path_a_.has_value() && path_b_.has_value();
  }
  bool exhausted() const { return exhausted_; }
  const FoundPath& path_a() const { return *path_a_; }
  const FoundPath& path_b() const { return *path_b_; }

 private:
  /// Records a terminating path against the targets. The DFS expands rules
  /// in ascending index order, so the first hit per target is the
  /// lexicographically smallest sequence reaching it.
  void NoteTerminal(const std::vector<RuleIndex>& sequence,
                    const std::string& final_state,
                    std::vector<ObservableEvent>* stream, bool rollback) {
    const std::string rendered = ObservableStreamToString(*stream);
    const std::string& outcome =
        kind_ == DivergenceWitness::Kind::kFinalState ? final_state : rendered;
    if (!path_a_.has_value() && outcome == target_a_) {
      path_a_ = FoundPath{sequence, final_state, rendered, rollback};
    } else if (!path_b_.has_value() && outcome == target_b_) {
      path_b_ = FoundPath{sequence, final_state, rendered, rollback};
    }
  }

  Status Visit(const RuleProcessingState& state,
               std::vector<RuleIndex>* sequence,
               std::vector<ObservableEvent>* stream, int depth) {
    if (both_found()) return Status::OK();
    std::vector<RuleIndex> triggered = TriggeredRules(catalog_, state);
    if (triggered.empty()) {
      NoteTerminal(*sequence, state.db.CanonicalString(), stream, false);
      return Status::OK();
    }
    if (depth >= options_.max_depth) {
      exhausted_ = true;
      return Status::OK();
    }
    // CanonicalStateKey draws the explorer's state equivalence, so
    // reconstruction cuts cycles at the same states the explorer does.
    std::string key = CanonicalStateKey(state);
    if (!on_path_.insert(key).second) return Status::OK();  // cycle: cut
    std::vector<RuleIndex> eligible = EligibleRules(catalog_, triggered);
    Status status = Status::OK();
    for (RuleIndex r : eligible) {
      if (both_found()) break;
      if (++steps_ > options_.max_total_steps) {
        exhausted_ = true;
        break;
      }
      RuleProcessingState next = state;
      Result<StepOutcome> outcome = ConsiderRule(catalog_, &next, r);
      if (!outcome.ok()) {
        status = outcome.status();
        break;
      }
      sequence->push_back(r);
      size_t stream_mark = stream->size();
      stream->insert(stream->end(), outcome.value().observables.begin(),
                     outcome.value().observables.end());
      if (outcome.value().rollback) {
        // ROLLBACK terminates the path at the initial database; the
        // rollback event is already in the stream.
        NoteTerminal(*sequence, initial_canonical_, stream, true);
      } else {
        status = Visit(next, sequence, stream, depth + 1);
      }
      stream->resize(stream_mark);
      sequence->pop_back();
      if (!status.ok()) break;
    }
    on_path_.erase(key);
    return status;
  }

  const RuleCatalog& catalog_;
  const Database& initial_db_;
  const Transition& initial_transition_;
  const WitnessOptions& options_;
  const DivergenceWitness::Kind kind_;
  const std::string target_a_;
  const std::string target_b_;
  const std::string initial_canonical_;

  std::set<std::string> on_path_;
  long steps_ = 0;
  bool exhausted_ = false;
  std::optional<FoundPath> path_a_;
  std::optional<FoundPath> path_b_;
};

WitnessExtraction NotEvaluated(std::string note) {
  WitnessExtraction extraction;
  extraction.status = WitnessStatus::kNotEvaluated;
  extraction.note = std::move(note);
  return extraction;
}

/// The result of replaying one witness sequence.
struct ReplayedLane {
  bool ok = false;
  std::string message;
  std::string final_state;
  std::string stream;
  bool rollback = false;
};

ReplayedLane LaneMismatch(std::string message) {
  ReplayedLane lane;
  lane.message = std::move(message);
  return lane;
}

/// Re-executes one forced firing sequence through the rule-processing step
/// semantics (the same TriggeredRules / EligibleRules / ConsiderRule the
/// processor and explorer use).
Result<ReplayedLane> ReplaySequence(const RuleCatalog& catalog,
                                    const Database& initial_db,
                                    const Transition& initial_transition,
                                    const std::vector<RuleIndex>& sequence,
                                    const std::string& label) {
  RuleProcessingState state(&catalog.schema(), catalog.num_rules());
  state.db = initial_db;
  for (Transition& t : state.pending) t = initial_transition;
  std::vector<ObservableEvent> stream;
  ReplayedLane lane;
  for (size_t k = 0; k < sequence.size(); ++k) {
    RuleIndex r = sequence[k];
    if (r < 0 || r >= catalog.num_rules()) {
      return LaneMismatch("sequence " + label + " step " +
                          std::to_string(k + 1) + ": rule index " +
                          std::to_string(r) + " out of range");
    }
    std::vector<RuleIndex> eligible =
        EligibleRules(catalog, TriggeredRules(catalog, state));
    if (!std::binary_search(eligible.begin(), eligible.end(), r)) {
      return LaneMismatch("sequence " + label + " step " +
                          std::to_string(k + 1) + ": rule " +
                          catalog.rule(r).name + " is not eligible");
    }
    STARBURST_ASSIGN_OR_RETURN(StepOutcome outcome,
                               ConsiderRule(catalog, &state, r));
    stream.insert(stream.end(), outcome.observables.begin(),
                  outcome.observables.end());
    if (outcome.rollback) {
      if (k + 1 != sequence.size()) {
        return LaneMismatch("sequence " + label + " step " +
                            std::to_string(k + 1) +
                            ": rollback before the last step");
      }
      lane.rollback = true;
    }
  }
  if (!lane.rollback) {
    if (!TriggeredRules(catalog, state).empty()) {
      return LaneMismatch("sequence " + label +
                          " does not reach quiescence: rules remain "
                          "triggered after the last step");
    }
    lane.final_state = state.db.CanonicalString();
  } else {
    lane.final_state = initial_db.CanonicalString();
  }
  lane.stream = ObservableStreamToString(stream);
  lane.ok = true;
  return lane;
}

}  // namespace

int SharedPrefixLength(const std::vector<RuleIndex>& a,
                       const std::vector<RuleIndex>& b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<int>(i);
}

bool SelectNoncommutingPair(const PrelimAnalysis& prelim,
                            const std::vector<RuleIndex>& seq_a,
                            const std::vector<RuleIndex>& seq_b,
                            int prefix_len, RuleIndex* i, RuleIndex* j) {
  auto noncommuting = [&prelim](RuleIndex a, RuleIndex b) {
    return a != b &&
           !CommutativityAnalyzer::SyntacticallyCommutePair(prelim, a, b);
  };
  size_t p = static_cast<size_t>(prefix_len);
  // Preferentially the divergence-point pair itself.
  if (p < seq_a.size() && p < seq_b.size() &&
      noncommuting(seq_a[p], seq_b[p])) {
    *i = std::min(seq_a[p], seq_b[p]);
    *j = std::max(seq_a[p], seq_b[p]);
    return true;
  }
  // Otherwise the first non-commuting cross pair over the divergent
  // suffixes (the pair whose reordering the divergence must flow through).
  for (size_t a = p; a < seq_a.size(); ++a) {
    for (size_t b = p; b < seq_b.size(); ++b) {
      if (noncommuting(seq_a[a], seq_b[b])) {
        *i = std::min(seq_a[a], seq_b[b]);
        *j = std::max(seq_a[a], seq_b[b]);
        return true;
      }
    }
  }
  return false;
}

std::vector<TableId> SharedFootprintTables(const PrelimAnalysis& prelim,
                                           RuleIndex i, RuleIndex j) {
  std::vector<TableId> fi = RuleFootprintIndex::FootprintOf(prelim.rule(i));
  std::vector<TableId> fj = RuleFootprintIndex::FootprintOf(prelim.rule(j));
  std::vector<TableId> shared;
  std::set_intersection(fi.begin(), fi.end(), fj.begin(), fj.end(),
                        std::back_inserter(shared));
  return shared;
}

Result<WitnessExtraction> ExtractWitness(const RuleCatalog& catalog,
                                         const Database& initial_db,
                                         const Transition& initial_transition,
                                         const ExplorationResult& result,
                                         const WitnessOptions& options) {
  WitnessExtraction extraction;
  DivergenceWitness::Kind kind;
  std::string target_a;
  std::string target_b;
  if (result.final_states.size() >= 2) {
    // Final-state divergence needs no streams, so dedup_subtrees (which
    // leaves observable_streams empty) does not block this lane.
    kind = DivergenceWitness::Kind::kFinalState;
    auto it = result.final_states.begin();
    target_a = *it++;
    target_b = *it;
  } else if (!result.streams_evaluated) {
    return NotEvaluated(
        "observable streams not evaluated (dedup_subtrees): a stream-only "
        "divergence cannot be witnessed in this mode");
  } else if (result.observable_streams.size() >= 2) {
    kind = DivergenceWitness::Kind::kObservableStream;
    auto it = result.observable_streams.begin();
    target_a = *it++;
    target_b = *it;
  } else {
    extraction.status = WitnessStatus::kNone;
    return extraction;
  }

  Reconstructor reconstructor(catalog, initial_db, initial_transition,
                              options, kind, target_a, target_b);
  STARBURST_RETURN_IF_ERROR(reconstructor.Run());
  if (!reconstructor.both_found()) {
    if (reconstructor.exhausted()) {
      return NotEvaluated("witness reconstruction budget exhausted");
    }
    // The divergent outcomes were unreachable on re-walk: the exploration
    // result does not belong to this (catalog, db, transition) triple.
    return NotEvaluated(
        "divergent outcomes unreachable during reconstruction (stale or "
        "mismatched exploration result)");
  }

  DivergenceWitness w;
  w.kind = kind;
  w.sequence_a = reconstructor.path_a().sequence;
  w.sequence_b = reconstructor.path_b().sequence;
  w.final_a = reconstructor.path_a().final_state;
  w.final_b = reconstructor.path_b().final_state;
  w.stream_a = reconstructor.path_a().stream;
  w.stream_b = reconstructor.path_b().stream;
  w.rollback_a = reconstructor.path_a().rollback;
  w.rollback_b = reconstructor.path_b().rollback;
  w.prefix_len = SharedPrefixLength(w.sequence_a, w.sequence_b);
  size_t p = static_cast<size_t>(w.prefix_len);
  w.diverge_a = p < w.sequence_a.size() ? w.sequence_a[p] : -1;
  w.diverge_b = p < w.sequence_b.size() ? w.sequence_b[p] : -1;
  w.pair_explained = SelectNoncommutingPair(
      catalog.prelim(), w.sequence_a, w.sequence_b, w.prefix_len, &w.pair_i,
      &w.pair_j);
  if (!w.pair_explained) {
    // Fall back to the divergence-point rules so the witness still names
    // the firing choice, even without a Lemma 6.1 explanation.
    w.pair_i = std::min(w.diverge_a, w.diverge_b);
    w.pair_j = std::max(w.diverge_a, w.diverge_b);
  }
  if (w.pair_i >= 0 && w.pair_j >= 0) {
    w.pair_name_i = catalog.rule(w.pair_i).name;
    w.pair_name_j = catalog.rule(w.pair_j).name;
    if (w.pair_explained) {
      w.causes =
          CommutativityAnalyzer::ExplainPair(catalog.prelim(), w.pair_i,
                                             w.pair_j);
      w.overlap_tables =
          SharedFootprintTables(catalog.prelim(), w.pair_i, w.pair_j);
    }
  }
  extraction.status = WitnessStatus::kFound;
  extraction.witness = std::move(w);
  STARBURST_METRIC_COUNT("explorer.witnesses_extracted", 1);
  return extraction;
}

Result<WitnessExtraction> ExtractWitnessAfterStatements(
    const RuleCatalog& catalog, const Database& initial_db,
    const std::vector<std::string>& user_statements,
    const ExplorerOptions& explorer_options,
    const WitnessOptions& witness_options) {
  Database db = initial_db;
  STARBURST_ASSIGN_OR_RETURN(Transition initial_transition,
                             ApplyUserStatements(&db, user_statements));
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult result,
      Explorer::Explore(catalog, db, initial_transition, explorer_options));
  return ExtractWitness(catalog, db, initial_transition, result,
                        witness_options);
}

Result<WitnessReplay> ReplayWitness(const RuleCatalog& catalog,
                                    const Database& initial_db,
                                    const Transition& initial_transition,
                                    const DivergenceWitness& witness) {
  STARBURST_METRIC_COUNT("explorer.witness_replays", 1);
  WitnessReplay replay;
  STARBURST_ASSIGN_OR_RETURN(
      ReplayedLane lane_a,
      ReplaySequence(catalog, initial_db, initial_transition,
                     witness.sequence_a, "A"));
  if (!lane_a.ok) {
    replay.message = lane_a.message;
    return replay;
  }
  STARBURST_ASSIGN_OR_RETURN(
      ReplayedLane lane_b,
      ReplaySequence(catalog, initial_db, initial_transition,
                     witness.sequence_b, "B"));
  if (!lane_b.ok) {
    replay.message = lane_b.message;
    return replay;
  }
  replay.final_a = lane_a.final_state;
  replay.final_b = lane_b.final_state;
  replay.stream_a = lane_a.stream;
  replay.stream_b = lane_b.stream;
  if (lane_a.rollback != witness.rollback_a ||
      lane_b.rollback != witness.rollback_b) {
    replay.message = "replayed rollback flags do not match the witness";
    return replay;
  }
  if (lane_a.final_state != witness.final_a ||
      lane_b.final_state != witness.final_b) {
    replay.message = "replayed final states do not match the witness";
    return replay;
  }
  if (lane_a.stream != witness.stream_a || lane_b.stream != witness.stream_b) {
    replay.message = "replayed observable streams do not match the witness";
    return replay;
  }
  if (witness.kind == DivergenceWitness::Kind::kFinalState
          ? lane_a.final_state == lane_b.final_state
          : lane_a.stream == lane_b.stream) {
    replay.message = "replayed sequences do not diverge";
    return replay;
  }
  replay.ok = true;
  return replay;
}

std::string WitnessToString(const DivergenceWitness& witness,
                            const RuleCatalog& catalog) {
  auto name = [&catalog](RuleIndex r) -> std::string {
    if (r < 0 || r >= catalog.num_rules()) return "<none>";
    return catalog.rule(r).name;
  };
  auto sequence = [&name](const std::vector<RuleIndex>& seq) {
    if (seq.empty()) return std::string("(no firings)");
    std::string out;
    for (size_t i = 0; i < seq.size(); ++i) {
      if (i > 0) out += " -> ";
      out += name(seq[i]);
    }
    return out;
  };
  std::string out;
  out += witness.kind == DivergenceWitness::Kind::kFinalState
             ? "divergence: two rule-firing orders reach different final "
               "databases (non-confluent, Section 6)\n"
             : "divergence: two rule-firing orders produce different "
               "observable streams (nondeterministic, Section 8)\n";
  out += "  sequence A: " + sequence(witness.sequence_a);
  if (witness.rollback_a) out += "  [rolls back]";
  out += "\n";
  out += "  sequence B: " + sequence(witness.sequence_b);
  if (witness.rollback_b) out += "  [rolls back]";
  out += "\n";
  out += "  first divergence after " + std::to_string(witness.prefix_len) +
         " shared firing(s): A fires " + name(witness.diverge_a) +
         ", B fires " + name(witness.diverge_b) + "\n";
  if (witness.pair_explained) {
    out += "  responsible non-commuting pair: " + witness.pair_name_i +
           " / " + witness.pair_name_j + "\n";
    for (const NoncommutativityCause& cause : witness.causes) {
      out += "    - " +
             cause.Describe(catalog.prelim(), catalog.schema()) + "\n";
    }
    if (!witness.overlap_tables.empty()) {
      out += "  overlapping table(s):";
      for (TableId t : witness.overlap_tables) {
        out += " " + catalog.schema().table(t).name();
      }
      out += "\n";
    }
  } else {
    out += "  no syntactically non-commuting pair explains the divergence "
           "(Lemma 6.1 analysis incomplete for this input)\n";
  }
  if (witness.kind == DivergenceWitness::Kind::kFinalState) {
    out += "  final database A: " + witness.final_a + "\n";
    out += "  final database B: " + witness.final_b + "\n";
  } else {
    out += "  observable stream A:\n" + witness.stream_a;
    out += "  observable stream B:\n" + witness.stream_b;
  }
  return out;
}

}  // namespace starburst
