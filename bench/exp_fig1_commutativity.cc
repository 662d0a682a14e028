// Experiment E1 (Figure 1): commutativity.
//
// Figure 1 of the paper depicts the commutativity diamond: considering ri
// then rj from any state S reaches the same state S' as rj then ri. We
// reproduce it empirically:
//   * generate many random rule pairs,
//   * classify each pair with Lemma 6.1 (conservative, syntactic),
//   * execute both consideration orders from random database states, and
//   * report (a) zero diamond violations among pairs classified
//     commutative (soundness), and (b) how often pairs classified
//     noncommutative actually commuted on the sampled states
//     (conservatism, the paper's own caveat in Section 6.1).

#include <cstdio>

#include "analysis/commutativity.h"
#include "rules/processor.h"
#include "rules/rule_catalog.h"
#include "workload/random_gen.h"

using namespace starburst;  // NOLINT: experiment brevity

namespace {

struct Trial {
  bool classified_commutative = false;
  bool diverged = false;
};

Result<Trial> RunTrial(uint64_t seed) {
  RandomRuleSetParams params;
  params.seed = seed;
  params.num_rules = 2;
  params.num_tables = 3;
  params.columns_per_table = 2;
  params.max_actions_per_rule = 1;
  params.tables_per_rule = 2;
  params.update_bound = 3;
  GeneratedRuleSet gen = RandomRuleSetGenerator::Generate(params);
  STARBURST_ASSIGN_OR_RETURN(
      RuleCatalog catalog,
      RuleCatalog::Build(gen.schema.get(), std::move(gen.rules)));
  CommutativityAnalyzer commutativity(catalog.prelim(), catalog.schema());

  Trial trial;
  trial.classified_commutative = commutativity.Commute(0, 1);

  Database db(gen.schema.get());
  STARBURST_RETURN_IF_ERROR(PopulateRandomDatabase(&db, 3, seed ^ 0x9e37));
  // Initial transition: one insert into each rule's own table.
  Transition initial;
  for (RuleIndex r = 0; r < 2; ++r) {
    TableId t = catalog.prelim().rule(r).table;
    Tuple tuple(catalog.schema().table(t).num_columns(), Value::Int(1));
    STARBURST_ASSIGN_OR_RETURN(Rid rid, db.storage(t).Insert(tuple));
    STARBURST_RETURN_IF_ERROR(initial.ForTable(t).ApplyInsert(rid, tuple));
  }

  RuleProcessingState forward = InitialProcessingState(catalog, db, initial);
  RuleProcessingState backward = forward;

  STARBURST_RETURN_IF_ERROR(ConsiderRule(catalog, &forward, 0).status());
  STARBURST_RETURN_IF_ERROR(ConsiderRule(catalog, &forward, 1).status());
  STARBURST_RETURN_IF_ERROR(ConsiderRule(catalog, &backward, 1).status());
  STARBURST_RETURN_IF_ERROR(ConsiderRule(catalog, &backward, 0).status());

  trial.diverged =
      forward.db.CanonicalString() != backward.db.CanonicalString() ||
      TriggeredRules(catalog, forward) != TriggeredRules(catalog, backward);
  return trial;
}

}  // namespace

int main() {
  constexpr int kTrials = 2000;
  int commutative = 0, noncommutative = 0;
  int sound_violations = 0;           // must stay 0
  int conservative_but_agreed = 0;    // flagged pairs that did not diverge
  int skipped = 0;

  for (uint64_t seed = 0; seed < kTrials; ++seed) {
    auto trial = RunTrial(seed);
    if (!trial.ok()) {
      ++skipped;
      continue;
    }
    if (trial.value().classified_commutative) {
      ++commutative;
      if (trial.value().diverged) ++sound_violations;
    } else {
      ++noncommutative;
      if (!trial.value().diverged) ++conservative_but_agreed;
    }
  }

  std::printf("== E1 / Figure 1: rule commutativity ==\n");
  std::printf("trials                                : %d\n", kTrials);
  std::printf("pairs classified commutative (Lemma 6.1): %d\n", commutative);
  std::printf("pairs classified noncommutative        : %d\n",
              noncommutative);
  std::printf("diamond violations among commutative   : %d  (paper: 0)\n",
              sound_violations);
  std::printf(
      "flagged pairs that agreed on the sample: %d  (%.1f%% — Lemma 6.1 is "
      "conservative, Section 6.1)\n",
      conservative_but_agreed,
      noncommutative > 0
          ? 100.0 * conservative_but_agreed / noncommutative
          : 0.0);
  if (skipped > 0) std::printf("skipped (execution error): %d\n", skipped);
  return sound_violations == 0 ? 0 : 1;
}
