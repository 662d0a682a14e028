#include "analysis/termination.h"

#include <utility>

#include "common/strings.h"

namespace starburst {

namespace {

/// Cache key for a cyclic component: the member rules' name@version pairs
/// (ascending index order) plus the component's certified names. Any
/// rule-set edit bumps versions (or changes membership), so a key match
/// means the component's AcyclicWithout verdict is still valid.
std::string ComponentKey(const PrelimAnalysis& prelim,
                         const TerminationComponentCache& cache,
                         const CycleReport& cycle) {
  std::string key;
  for (RuleIndex r : cycle.rules) {
    std::string lower = ToLower(prelim.rule(r).name);
    auto it = cache.rule_versions.find(lower);
    uint64_t version = it == cache.rule_versions.end() ? 0 : it->second;
    key += lower;
    key += '@';
    key += std::to_string(version);
    key += ';';
  }
  key += '#';
  for (RuleIndex r : cycle.certified) {
    key += ToLower(prelim.rule(r).name);
    key += ';';
  }
  return key;
}

TerminationReport AnalyzeGraph(const PrelimAnalysis& prelim,
                               const TriggeringGraph& graph,
                               const TerminationCertifications& certs,
                               TerminationComponentCache* cache = nullptr) {
  TerminationReport report;
  std::map<std::string, bool> looked_up;  // replaces cache->discharged
  auto cyclic = graph.CyclicComponents();
  report.acyclic = cyclic.empty();
  report.guaranteed = true;
  for (auto& component : cyclic) {
    CycleReport cycle;
    cycle.rules = component;
    for (RuleIndex r : component) {
      for (const std::string& name : certs.quiescent_rules) {
        if (EqualsIgnoreCase(prelim.rule(r).name, name)) {
          cycle.certified.push_back(r);
          break;
        }
      }
    }
    if (cycle.certified.empty()) {
      cycle.discharged = false;
    } else if (cache != nullptr) {
      std::string key = ComponentKey(prelim, *cache, cycle);
      auto it = cache->discharged.find(key);
      if (it != cache->discharged.end()) {
        ++cache->hits;
        cycle.discharged = it->second;
      } else {
        ++cache->misses;
        cycle.discharged = graph.AcyclicWithout(cycle.rules, cycle.certified);
      }
      looked_up.emplace(std::move(key), cycle.discharged);
    } else {
      cycle.discharged = graph.AcyclicWithout(cycle.rules, cycle.certified);
    }
    if (!cycle.discharged) report.guaranteed = false;
    report.cycles.push_back(std::move(cycle));
  }
  if (cache != nullptr) cache->discharged = std::move(looked_up);
  return report;
}

}  // namespace

TerminationReport TerminationAnalyzer::Analyze(
    const PrelimAnalysis& prelim, const TerminationCertifications& certs,
    TerminationComponentCache* cache) {
  TriggeringGraph graph(prelim);
  return AnalyzeGraph(prelim, graph, certs, cache);
}

TerminationReport TerminationAnalyzer::AnalyzeSubset(
    const PrelimAnalysis& prelim, const std::vector<RuleIndex>& members,
    const TerminationCertifications& certs) {
  TriggeringGraph graph(prelim, members);
  return AnalyzeGraph(prelim, graph, certs);
}

}  // namespace starburst
