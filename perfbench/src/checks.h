#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// The correctness checks behind the benchmark's "correct" field. Each takes
// what the program produced plus an independently computed expectation and
// returns an empty string when they agree, else a description of the first
// mismatch. They are pure functions so the self-test can feed them
// tampered inputs.

#include <string>
#include <vector>

#include "analysis/incremental.h"
#include "engine/fingerprint.h"
#include "rules/explorer.h"

namespace perfbench {

/// Hex rendering of a content fingerprint, as the service's transition
/// responses print it.
std::string HexFingerprint(const starburst::Hash128& fp);

/// service_mix. Indexed [connection][request].
struct ServiceExpectation {
  /// Committed transitions: fingerprint of the tenant's committed database
  /// right after that commit (an in-process RuleProcessor replay); "" for
  /// every other request.
  std::vector<std::vector<std::string>> fingerprint;
  /// Analyze requests: index into `reports` (the batch FullReportToJson
  /// bytes under the certifications issued so far); -1 otherwise.
  std::vector<std::vector<int>> report;
  std::vector<std::string> reports;
  /// Per tenant: the replay's final committed fingerprint.
  std::vector<std::string> final_fingerprint;
};

struct ServiceObservation {
  /// HTTP status per request; 0 for a transport failure.
  std::vector<std::vector<int>> status;
  /// The "fingerprint" field of committed transition responses ("" else).
  std::vector<std::vector<std::string>> fingerprint;
  /// Analyze response bodies ("" for other requests).
  std::vector<std::vector<std::string>> body;
  /// Per tenant: the fingerprint reported by its last committed transition.
  std::vector<std::string> final_fingerprint;
};

std::string CheckService(const ServiceExpectation& expected,
                         const ServiceObservation& observed);

/// explore_mix: the default configuration (0 threads, POR off) and the
/// fast path (2 threads, POR on) must agree on final states and observable
/// streams.
std::string CheckExploreJob(const starburst::ExplorationResult& serial,
                            const starburst::ExplorationResult& parallel);

/// certify_10k: a canonical rendering of an incremental analysis result
/// (termination + confluence), compared byte for byte against the same
/// rendering of a cold analysis of the final catalog.
std::string ReportDigest(
    const starburst::IncrementalAnalyzer::RunResult& result);
std::string CheckCertify(const std::string& incremental_digest,
                         const std::string& cold_digest);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
