#include "analysis/witness.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "analysis/rule_index.h"
#include "common/metrics.h"

namespace starburst {

namespace {

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
  RuleProcessingState state =
      InitialProcessingState(catalog, initial_db, initial_transition);
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
  } else if (!result.complete) {
    // A cut exploration may not have reached a second outcome yet: no
    // divergence found is not "none".
    return NotEvaluated("witness reconstruction budget exhausted");
  } else {
    extraction.status = WitnessStatus::kNone;
    return extraction;
  }

  // Re-walk at one worker with POR and dedup off and no stream cap: the
  // core expands eligible rules in ascending index order, so the first
  // terminal reaching each target has the lexicographically smallest
  // firing sequence to it. A final-state target is matched by the
  // fingerprint of its final database, a stream target by its string.
  const bool by_state = kind == DivergenceWitness::Kind::kFinalState;
  auto fingerprint_of = [&](const std::string& target) {
    auto it = result.final_databases.find(target);
    return by_state && it != result.final_databases.end()
               ? std::optional<Hash128>(it->second.ContentFingerprint())
               : std::nullopt;
  };
  const std::optional<Hash128> fp_a = fingerprint_of(target_a);
  const std::optional<Hash128> fp_b = fingerprint_of(target_b);
  DivergenceWitness w;
  w.kind = kind;
  bool found_a = false;
  bool found_b = false;
  auto visit = [&](const ExplorationTerminal& t) {
    auto reaches = [&](const std::optional<Hash128>& fp,
                       const std::string& target) {
      return by_state ? fp == t.final_fingerprint : t.stream == target;
    };
    if (!found_a && reaches(fp_a, target_a)) {
      found_a = true;
      w.sequence_a = t.sequence;
      w.final_a = t.final_db.CanonicalString();
      w.stream_a = t.stream;
      w.rollback_a = t.rollback;
    } else if (!found_b && reaches(fp_b, target_b)) {
      found_b = true;
      w.sequence_b = t.sequence;
      w.final_b = t.final_db.CanonicalString();
      w.stream_b = t.stream;
      w.rollback_b = t.rollback;
    }
    return !(found_a && found_b);
  };
  ExplorerOptions walk;
  walk.max_depth = options.max_depth;
  walk.max_total_steps = options.max_total_steps;
  walk.max_streams = std::numeric_limits<int>::max();
  walk.por = ExplorerOptions::PorMode::kOff;
  STARBURST_ASSIGN_OR_RETURN(
      ExplorationResult walked,
      Explorer::VisitTerminals(catalog, initial_db, initial_transition, walk,
                               visit));
  if (!found_a || !found_b) {
    if (!walked.complete) {
      return NotEvaluated("witness reconstruction budget exhausted");
    }
    // The divergent outcomes were unreachable on re-walk: the exploration
    // result does not belong to this (catalog, db, transition) triple.
    return NotEvaluated(
        "divergent outcomes unreachable during reconstruction (stale or "
        "mismatched exploration result)");
  }

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
