#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// An in-process `ruled` server on a loopback port, 8 generated tenants,
/// driven in a closed loop by keep-alive client connections.
PassResult RunServiceMix(const PassConfig& config);

/// A seeded list of Explorer::ExploreAfterStatements jobs, each run with 0
/// threads / POR off and with parallel workers / POR on.
PassResult RunExploreMix(const PassConfig& config);

/// A 10k-rule sparse catalog certified cold from its script text, then a
/// seeded sequence of one-rule edits, each followed by Analyze.
PassResult RunCertify10k(const PassConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
