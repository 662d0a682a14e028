// service_mix: an in-process RuledServer on a loopback port with 8
// generated tenants, driven in a closed loop by keep-alive connections.
// Each tenant belongs to exactly one connection and every connection sends
// a fixed, seeded request list, so every round ends in the same tenant
// state. A round is: start the server and load the tenants (set-up), send
// the lists, stop the server. Rounds repeat until the run's time is up.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/json_report.h"
#include "checks.h"
#include "common/metrics.h"
#include "rules/processor.h"
#include "service/http.h"
#include "service/router.h"
#include "service/server.h"
#include "service/tenant.h"
#include "testing/oracles.h"
#include "workload/random_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using starburst::Analyzer;
using starburst::Database;
using starburst::FullReport;
using starburst::GeneratedRuleSet;
using starburst::Result;
using starburst::RuleDef;
using starburst::RuleProcessor;
using starburst::SplitMix64;
using starburst::Status;
namespace svc = starburst::service;

constexpr int kTenants = 8;
constexpr int kRequestsPerConnection = 20000;
constexpr int kFifths = 5;
// Request mix: the rest are transitions.
constexpr double kStatsShare = 0.01;  // half /stats, half /healthz
constexpr double kAnalyzeShare = 0.05;
constexpr double kCertifyShare = 0.005;
// Share of transitions that commit; large enough that tenant tables grow
// several-fold over a round.
constexpr double kCommitShare = 0.3;
// The gated transition tail stops at p95. p99 lies in the region where
// host scheduling stalls of the client and server threads decide the
// value: over ten seeds on a shared 4-CPU host it spread 0.30 of its
// median, p95 0.14.
constexpr double kTransitionTail = 0.95;

enum class Kind { kTransition, kAnalyze, kCertify, kStats };

struct Request {
  int tenant = 0;
  Kind kind = Kind::kTransition;
  bool commit = false;
  std::string method = "POST";
  std::string target;
  std::string body;  // the transition statement
};

struct TenantInput {
  std::string name;
  std::string script;
};

struct Inputs {
  std::vector<TenantInput> tenants;
  std::vector<std::vector<Request>> streams;  // per connection
  ServiceExpectation expected;
  /// Committed rows over all tenants after each fifth of every stream.
  std::vector<int64_t> rows_at_fifth;
  int64_t transitions = 0;
  int64_t analyzes = 0;
};

double Uniform(SplitMix64* rng) {
  return static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::string InsertStatement(const starburst::Schema& schema, SplitMix64* rng) {
  int t = rng->Below(schema.num_tables());
  const starburst::TableDef& table = schema.tables()[static_cast<size_t>(t)];
  std::string stmt = "insert into " + table.name() + " values (";
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) stmt += ", ";
    stmt += std::to_string(rng->Below(8));
  }
  return stmt + ")";
}

/// The first seeded 6-rule catalog that the Section 5 analysis proves
/// terminating (as rule_load does), so every transition cascade is short.
Result<GeneratedRuleSet> TenantCatalog(uint64_t seed, int index) {
  starburst::RandomRuleSetParams params;
  params.num_tables = 3;
  params.columns_per_table = 2;
  params.num_rules = 6;
  const uint64_t base = seed * 1000003ULL + static_cast<uint64_t>(index) * 7919;
  for (uint64_t attempt = 0; attempt < 256; ++attempt) {
    params.seed = base + attempt;
    GeneratedRuleSet set = starburst::RandomRuleSetGenerator::Generate(params);
    std::vector<RuleDef> rules;
    for (const RuleDef& rule : set.rules) rules.push_back(rule.Clone());
    Result<Analyzer> analyzer = Analyzer::Create(set.schema.get(), std::move(rules));
    if (analyzer.ok() && analyzer.value().AnalyzeAll().termination.guaranteed) {
      return set;
    }
  }
  return Status::ExecutionError("no terminating catalog for tenant " +
                                std::to_string(index));
}

int64_t TotalRows(const Database& db) {
  int64_t rows = 0;
  for (int t = 0; t < db.schema().num_tables(); ++t) {
    rows += static_cast<int64_t>(db.storage(t).size());
  }
  return rows;
}

/// One tenant's replica for computing expectations: its committed database
/// and certification-aware analyzer (which holds the catalog), replayed in
/// process.
struct Replica {
  GeneratedRuleSet set;
  std::optional<Database> db;
  std::optional<Analyzer> analyzer;
  int report = -1;  // cached expected report for the current certifications
  std::string last_commit;
};

Status BuildInputs(uint64_t seed, int connections, Inputs* in) {
  std::vector<Replica> replicas(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Result<GeneratedRuleSet> set = TenantCatalog(seed, t);
    if (!set.ok()) return set.status();
    TenantInput tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.script = starburst::fuzzing::RuleSetToScript(set.value());
    // The replica is built from the script text, exactly as the server
    // builds its tenant.
    Result<GeneratedRuleSet> parsed =
        starburst::fuzzing::ParseRuleSetScript(tenant.script);
    if (!parsed.ok()) return parsed.status();
    Replica& r = replicas[static_cast<size_t>(t)];
    r.set = std::move(parsed).value();
    r.db.emplace(r.set.schema.get());
    std::vector<RuleDef> rules;
    for (const RuleDef& rule : r.set.rules) rules.push_back(rule.Clone());
    Result<Analyzer> analyzer = Analyzer::Create(r.set.schema.get(), std::move(rules));
    if (!analyzer.ok()) return analyzer.status();
    r.analyzer.emplace(std::move(analyzer).value());
    in->tenants.push_back(std::move(tenant));
  }

  ServiceExpectation& ex = in->expected;
  in->streams.assign(static_cast<size_t>(connections), {});
  ex.fingerprint.assign(static_cast<size_t>(connections), {});
  ex.report.assign(static_cast<size_t>(connections), {});
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(connections),
                                         std::vector<int64_t>(kFifths, 0));
  const int fifth = kRequestsPerConnection / kFifths;
  for (int c = 0; c < connections; ++c) {
    std::vector<int> mine;
    for (int t = c; t < kTenants; t += connections) mine.push_back(t);
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1);
    std::vector<Request>& stream = in->streams[static_cast<size_t>(c)];
    for (int i = 0; i < kRequestsPerConnection; ++i) {
      Request q;
      q.tenant = mine[static_cast<size_t>(rng.Below(static_cast<int>(mine.size())))];
      Replica& r = replicas[static_cast<size_t>(q.tenant)];
      const std::string prefix = "/v1/tenants/" + in->tenants[static_cast<size_t>(q.tenant)].name;
      std::string fp;
      int report = -1;
      double draw = Uniform(&rng);
      if (draw < kStatsShare) {
        q.kind = Kind::kStats;
        q.method = "GET";
        q.target = rng.Chance(0.5) ? "/stats?section=service" : "/healthz";
      } else if (draw < kStatsShare + kAnalyzeShare) {
        q.kind = Kind::kAnalyze;
        q.target = prefix + "/analyze";
        if (r.report < 0) {
          FullReport full = r.analyzer->AnalyzeAll(-1);
          ex.reports.push_back(starburst::FullReportToJson(full, r.analyzer->catalog()));
          r.report = static_cast<int>(ex.reports.size() - 1);
        }
        report = r.report;
        ++in->analyzes;
      } else if (draw < kStatsShare + kAnalyzeShare + kCertifyShare) {
        q.kind = Kind::kCertify;
        int n = static_cast<int>(r.set.rules.size());
        int i1 = rng.Below(n);
        int i2 = (i1 + 1 + rng.Below(n - 1)) % n;
        const std::string& a = r.set.rules[static_cast<size_t>(i1)].name;
        const std::string& b = r.set.rules[static_cast<size_t>(i2)].name;
        q.target = prefix + "/certify?kind=commute&a=" + a + "&b=" + b;
        r.analyzer->CertifyCommute(a, b);
        r.report = -1;
      } else {
        q.kind = Kind::kTransition;
        q.commit = rng.Chance(kCommitShare);
        q.target = prefix + (q.commit ? "/transition" : "/transition?commit=0");
        q.body = InsertStatement(*r.set.schema, &rng);
        ++in->transitions;
        if (q.commit) {
          RuleProcessor processor(&*r.db, &r.analyzer->catalog());
          Result<starburst::ExecOutcome> exec = processor.ExecuteUserStatement(q.body);
          if (!exec.ok()) return exec.status();
          Result<starburst::ProcessingResult> asserted = processor.AssertRules();
          if (!asserted.ok()) return asserted.status();
          processor.Commit();
          fp = HexFingerprint(r.db->ContentFingerprint());
          r.last_commit = fp;
        }
      }
      ex.fingerprint[static_cast<size_t>(c)].push_back(fp);
      ex.report[static_cast<size_t>(c)].push_back(report);
      stream.push_back(std::move(q));
      if ((i + 1) % fifth == 0) {
        for (int t : mine) {
          rows[static_cast<size_t>(c)][static_cast<size_t>((i + 1) / fifth - 1)] +=
              TotalRows(*replicas[static_cast<size_t>(t)].db);
        }
      }
    }
  }
  in->rows_at_fifth.assign(kFifths, 0);
  for (int c = 0; c < connections; ++c) {
    for (int k = 0; k < kFifths; ++k) in->rows_at_fifth[k] += rows[c][k];
  }
  for (const Replica& r : replicas) ex.final_fingerprint.push_back(r.last_commit);
  return Status::OK();
}

const char* RequestSpanName(Kind kind) {
  switch (kind) {
    case Kind::kTransition:
      return "request.transition";
    case Kind::kAnalyze:
      return "request.analyze";
    case Kind::kCertify:
      return "request.certify";
    case Kind::kStats:
      return "request.stats";
  }
  return "request";
}

std::string FingerprintField(const std::string& body) {
  const std::string key = "\"fingerprint\":\"";
  size_t at = body.find(key);
  if (at == std::string::npos) return "";
  return body.substr(at + key.size(), 32);
}

struct Round {
  std::string error;
  double setup_s = 0;
  int64_t failed = 0;
  ServiceObservation observed;
  std::vector<double> transition_ms;
  std::vector<double> analyze_ms;
  std::vector<double> all_ms;
  double ops_per_s = 0;
  double steady_ratio = 0;
};

Round RunRound(const Inputs& in, Tracer* tracer) {
  Round round;
  const size_t connections = in.streams.size();
  const int64_t setup_start = NowNs();
  svc::TenantRegistry registry;
  svc::ServerOptions options;
  options.port = 0;
  options.max_connections = static_cast<int>(connections) + 2;
  svc::RuledServer server(&registry, options);
  if (Status started = server.Start(); !started.ok()) {
    round.error = "server start: " + started.ToString();
    return round;
  }
  {
    Result<svc::HttpClientConnection> setup =
        svc::HttpClientConnection::Connect("127.0.0.1", server.port());
    if (!setup.ok()) {
      round.error = "setup connect: " + setup.status().ToString();
      return round;
    }
    for (const TenantInput& tenant : in.tenants) {
      Result<svc::HttpResponse> loaded =
          setup.value().RoundTrip("POST", "/v1/tenants/" + tenant.name, tenant.script);
      if (!loaded.ok() || loaded.value().status != 201) {
        round.error = "loading " + tenant.name + " failed";
        return round;
      }
    }
  }
  round.setup_s = SecondsSince(setup_start);

  ServiceObservation& obs = round.observed;
  obs.status.resize(connections);
  obs.fingerprint.resize(connections);
  obs.body.resize(connections);
  std::vector<std::vector<double>> latency(connections);
  // Per connection: its start, then the end of each fifth of its list.
  std::vector<std::vector<int64_t>> marks(connections);
  std::vector<int64_t> failed(connections, 0);
  std::vector<TraceLane*> lanes(connections, nullptr);
  if (tracer != nullptr) {
    for (size_t c = 0; c < connections; ++c) {
      lanes[c] = tracer->NewLane("client " + std::to_string(c));
    }
  }
  const int64_t drive_start = NowNs();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        const std::vector<Request>& stream = in.streams[c];
        const size_t n = stream.size();
        obs.status[c].assign(n, 0);
        obs.fingerprint[c].assign(n, "");
        obs.body[c].assign(n, "");
        latency[c].assign(n, 0);
        const size_t fifth = n / kFifths;
        Result<svc::HttpClientConnection> conn =
            svc::HttpClientConnection::Connect("127.0.0.1", server.port());
        marks[c].push_back(NowNs());
        for (size_t i = 0; i < n; ++i) {
          const Request& q = stream[i];
          if (!conn.ok() || !conn.value().connected()) {
            conn = svc::HttpClientConnection::Connect("127.0.0.1", server.port());
          }
          const int64_t t0 = NowNs();
          Result<svc::HttpResponse> response = Status::ExecutionError("not connected");
          if (conn.ok()) {
            Span span(lanes[c], RequestSpanName(q.kind),
                      static_cast<int64_t>(c * n + i));
            response = conn.value().RoundTrip(q.method, q.target, q.body);
          }
          latency[c][i] = static_cast<double>(NowNs() - t0) / 1e6;
          if (!response.ok()) {
            ++failed[c];
            if (conn.ok()) conn.value().Close();
          } else {
            svc::HttpResponse& r = response.value();
            obs.status[c][i] = r.status;
            if (r.status >= 400) ++failed[c];
            if (q.kind == Kind::kTransition && q.commit) {
              obs.fingerprint[c][i] = FingerprintField(r.body);
            } else if (q.kind == Kind::kAnalyze) {
              obs.body[c][i] = std::move(r.body);
            }
          }
          if ((i + 1) % fifth == 0) marks[c].push_back(NowNs());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const int64_t drive_end = NowNs();
  server.Stop();

  obs.final_fingerprint.assign(in.tenants.size(), "");
  int64_t requests = 0;
  double first_fifth = 0;
  double last_fifth = 0;
  for (size_t c = 0; c < connections; ++c) {
    const std::vector<Request>& stream = in.streams[c];
    for (size_t i = 0; i < stream.size(); ++i) {
      const Request& q = stream[i];
      if (q.kind == Kind::kTransition) {
        round.transition_ms.push_back(latency[c][i]);
        if (q.commit) {
          obs.final_fingerprint[static_cast<size_t>(q.tenant)] = obs.fingerprint[c][i];
        }
      } else if (q.kind == Kind::kAnalyze) {
        round.analyze_ms.push_back(latency[c][i]);
      }
      round.all_ms.push_back(latency[c][i]);
    }
    requests += static_cast<int64_t>(stream.size());
    round.failed += failed[c];
    first_fifth += static_cast<double>(marks[c][1] - marks[c][0]);
    last_fifth += static_cast<double>(marks[c][kFifths] - marks[c][kFifths - 1]);
  }
  round.ops_per_s =
      static_cast<double>(requests) / (static_cast<double>(drive_end - drive_start) / 1e9);
  // Last-fifth throughput over first-fifth throughput: every fifth holds
  // the same request count, so it is the inverse ratio of their durations.
  round.steady_ratio = first_fifth / last_fifth;
  return round;
}

void Tamper(const std::string& what, ServiceObservation* obs) {
  if (what == "fingerprint" && !obs->final_fingerprint.empty()) {
    std::string& fp = obs->final_fingerprint[0];
    if (fp.empty()) fp = "0";
    fp[0] = fp[0] == '0' ? '1' : '0';
  } else if (what == "report") {
    for (auto& bodies : obs->body) {
      for (std::string& body : bodies) {
        if (!body.empty()) {
          body[body.size() / 2] ^= 0x01;
          return;
        }
      }
    }
  }
}

/// The traced replay: the same request lists against a twin registry in
/// process, timing each request through HttpRequestParser::Feed,
/// ServiceRouter::Handle and SerializeResponse, with the handler's own
/// public calls timed beside it on the twin tenant's state.
void TwinReplay(const Inputs& in, Tracer* tracer, MetricList* layers) {
  TraceLane* lane = tracer->NewLane("twin replay");
  svc::TenantRegistry registry;
  svc::ServiceRouter router(&registry);
  for (const TenantInput& tenant : in.tenants) {
    Span span(lane, "service.load");
    (void)registry.Load(tenant.name, tenant.script);
  }
  starburst::metrics::Reset();
  const size_t connections = in.streams.size();
  const size_t n = in.streams.empty() ? 0 : in.streams[0].size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < connections; ++c) {
      const Request& q = in.streams[c][i];
      const int64_t id = static_cast<int64_t>(c * n + i);
      Span request(lane, "twin.request", id);
      const std::string wire = svc::SerializeRequest(q.method, q.target, q.body, "127.0.0.1");
      svc::HttpRequestParser parser;
      {
        Span span(lane, "service.http.parse", id);
        parser.Feed(wire.data(), wire.size());
      }
      std::shared_ptr<svc::Tenant> tenant =
          registry.Find(in.tenants[static_cast<size_t>(q.tenant)].name);
      if (q.kind == Kind::kTransition && tenant != nullptr) {
        std::lock_guard<std::mutex> strand(tenant->strand());
        Span shadow(lane, "shadow.transition", id);
        std::optional<Database> work;
        {
          Span span(lane, "engine.db_copy", id);
          work.emplace(tenant->db());
        }
        RuleProcessor processor(&*work, &tenant->catalog());
        {
          Span span(lane, "engine.exec", id);
          (void)processor.ExecuteUserStatement(q.body);
        }
        {
          Span span(lane, "rules.assert", id);
          (void)processor.AssertRules();
        }
        processor.Commit();
        Span span(lane, "engine.fingerprint", id);
        (void)work->ContentFingerprint();
      }
      svc::HttpResponse response;
      {
        const char* name = q.kind == Kind::kTransition ? "service.router.transition"
                           : q.kind == Kind::kAnalyze  ? "service.router.analyze"
                                                       : "service.router.other";
        Span span(lane, name, id);
        starburst::metrics::ScopedCollect collect;
        response = router.Handle(parser.request());
      }
      if (q.kind == Kind::kAnalyze && tenant != nullptr) {
        std::lock_guard<std::mutex> strand(tenant->strand());
        Span shadow(lane, "shadow.analyze", id);
        std::optional<FullReport> report;
        {
          Span span(lane, "analysis.analyze_all", id);
          report.emplace(tenant->analyzer().AnalyzeAll(-1));
        }
        Span span(lane, "analysis.report_json", id);
        (void)starburst::FullReportToJson(*report, tenant->catalog());
      }
      Span span(lane, "service.http.serialize", id);
      (void)svc::SerializeResponse(response);
    }
  }

  const starburst::metrics::Snapshot snapshot = starburst::metrics::Collect();
  auto counter = [&](const char* name) {
    for (const auto& [key, value] : snapshot.counters) {
      if (key == name) return static_cast<double>(value);
    }
    return 0.0;
  };
  const auto totals = tracer->Totals();
  auto mean_us = [&](const char* name) { return Lookup(totals, name).MeanUs(); };
  auto total_ns = [&](const char* name) {
    return static_cast<double>(Lookup(totals, name).total_ns);
  };
  const double requests = static_cast<double>(connections * n);
  double socket_ns = 0;
  for (const char* name : {"request.transition", "request.analyze",
                           "request.certify", "request.stats"}) {
    socket_ns += total_ns(name);
  }
  const double in_process_ns =
      total_ns("service.http.parse") + total_ns("service.router.transition") +
      total_ns("service.router.analyze") + total_ns("service.router.other") +
      total_ns("service.http.serialize");
  const double shadow_ns = total_ns("engine.db_copy") + total_ns("engine.exec") +
                           total_ns("rules.assert") + total_ns("engine.fingerprint");
  const double transitions = static_cast<double>(in.transitions);
  const double analyzes = static_cast<double>(std::max<int64_t>(1, in.analyzes));
  layers->insert(
      layers->end(),
      {
          {"service.http.parse_us", mean_us("service.http.parse"), "us", "HttpRequestParser::Feed"},
          {"service.http.serialize_us", mean_us("service.http.serialize"), "us", "SerializeResponse"},
          {"service.router.transition_us", mean_us("service.router.transition"), "us", "ServiceRouter::Handle"},
          {"service.router.analyze_us", mean_us("service.router.analyze"), "us", "ServiceRouter::Handle"},
          {"service.wire_us", (socket_ns - in_process_ns) / requests / 1e3, "us",
           "socket round trip minus parse + Handle + serialize"},
          {"engine.db_copy_us", mean_us("engine.db_copy"), "us", "tenant Database copy"},
          {"engine.exec_us", mean_us("engine.exec"), "us", "RuleProcessor::ExecuteUserStatement"},
          {"rules.assert_us", mean_us("rules.assert"), "us", "RuleProcessor::AssertRules"},
          {"engine.fingerprint_us", mean_us("engine.fingerprint"), "us", "Database::ContentFingerprint"},
          {"engine.tenant_rows", static_cast<double>(in.rows_at_fifth.back()), "count",
           "committed rows, all tenants, end of round"},
          {"analysis.analyze_all_us", mean_us("analysis.analyze_all"), "us", "Analyzer::AnalyzeAll"},
          {"analysis.report_json_us", mean_us("analysis.report_json"), "us", "FullReportToJson"},
          {"processor.considerations", counter("processor.considerations") / transitions, "count",
           "per transition"},
          {"processor.transition_compositions", counter("processor.transition_compositions") / transitions,
           "count", "per transition"},
          {"analysis.pairs_swept", counter("analysis.pairs_swept") / analyzes, "count", "per analyze"},
          {"service.router.attributed_share", shadow_ns / total_ns("service.router.transition"), "ratio",
           "copy + exec + assert + fingerprint over transition Handle"},
          {"service_mix.layer_coverage", in_process_ns / socket_ns, "ratio",
           "parse + Handle + serialize over the socket round trip"},
      });
  std::string rows;
  for (int64_t r : in.rows_at_fifth) rows += (rows.empty() ? "" : ", ") + std::to_string(r);
  std::printf("service_mix: committed rows at each fifth: %s\n", rows.c_str());
}

}  // namespace

PassResult RunServiceMix(const PassConfig& config) {
  PassResult result;
  const int connections = std::max(1, std::min(2, config.threads));
  Inputs in;
  if (Status built = BuildInputs(config.seed, connections, &in); !built.ok()) {
    result.mismatch = "input generation: " + built.ToString();
    return result;
  }
  result.threads_note = std::to_string(connections) + " client connections, " +
                        std::to_string(connections) +
                        " server connection threads, 1 accept thread";

  std::vector<double> setup, rps, tr_p50, tr_tail, tr_p99, an_p50, an_tail, steady;
  double tr_q = 0.5, tr99_q = 0.5, an_q = 0.5;
  size_t tr_n = 0, an_n = 0;
  const int64_t start = NowNs();
  while (result.rounds == 0 || SecondsSince(start) < config.seconds) {
    Round round = RunRound(in, config.tracer);
    ++result.rounds;
    if (!round.error.empty()) {
      result.mismatch = round.error;
      return result;
    }
    if (!config.tamper.empty()) Tamper(config.tamper, &round.observed);
    result.attempted += static_cast<int64_t>(round.all_ms.size());
    result.failed += round.failed;
    if (result.mismatch.empty()) {
      result.mismatch = CheckService(in.expected, round.observed);
    }
    Summary tr = Summarize(round.transition_ms, kTransitionTail);
    Summary tr99 = Summarize(round.transition_ms);
    Summary an = Summarize(round.analyze_ms);
    setup.push_back(round.setup_s);
    rps.push_back(round.ops_per_s);
    tr_p50.push_back(tr.p50);
    tr_tail.push_back(tr.tail);
    tr_p99.push_back(tr99.tail);
    an_p50.push_back(an.p50);
    an_tail.push_back(an.tail);
    steady.push_back(round.steady_ratio);
    tr_q = tr.tail_quantile;
    tr99_q = tr99.tail_quantile;
    an_q = an.tail_quantile;
    tr_n = tr.count;
    an_n = an.count;
  }

  EndToEnd& e = result.e2e;
  e.setup_s = Median(setup);
  e.peak_rss_mb = PeakRssMb();
  e.ops_per_s = Median(rps);
  e.op_p50_ms = Median(tr_p50);
  e.op_tail_ms = Median(tr_tail);
  e.op2_p50_ms = Median(an_p50);
  e.steady_ratio = Median(steady);
  const std::string per_round = " per round, median of " + std::to_string(result.rounds) + " rounds";
  auto tail_note = [&](double q, size_t n) {
    return QuantileLabel(q) + " of " + std::to_string(n) + per_round;
  };
  result.named = {
      {"setup_s", e.setup_s, "s", "server start + 8 tenant loads"},
      {"peak_rss_mb", e.peak_rss_mb, "MB", ""},
      {"service_rps", e.ops_per_s, "req/s", "all request kinds"},
      {"transition_p50_ms", e.op_p50_ms, "ms", "of " + std::to_string(tr_n) + per_round},
      {"transition_p95_ms", e.op_tail_ms, "ms", tail_note(tr_q, tr_n)},
      {"transition_p99_ms", Median(tr_p99), "ms", tail_note(tr99_q, tr_n)},
      {"analyze_p50_ms", e.op2_p50_ms, "ms", "of " + std::to_string(an_n) + per_round},
      {"analyze_p99_ms", Median(an_tail), "ms", tail_note(an_q, an_n)},
      {"service_steady_ratio", e.steady_ratio, "ratio", "last-fifth / first-fifth req/s"},
  };
  if (config.tracer != nullptr) TwinReplay(in, config.tracer, &result.layers);
  return result;
}

}  // namespace perfbench
