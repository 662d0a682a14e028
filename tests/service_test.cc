// Router-level tests for the multi-tenant rule service: tenant lifecycle,
// error codes, transition semantics, and the per-tenant determinism
// contract (service analyze bytes == batch FullReportToJson bytes, also
// under concurrent load on other tenants). Socket-level coverage lives in
// service_server_test.cc.

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/json_report.h"
#include "analysis/witness.h"
#include "rules/processor.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "service/admin.h"
#include "service/router.h"
#include "service/tenant.h"
#include "testing/oracles.h"
#include "json_lint.h"

namespace starburst {
namespace service {
namespace {

using ::starburst::testing::IsValidJson;

std::string ReadCorpus(const std::string& name) {
  std::ifstream in(std::string(STARBURST_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing corpus file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

HttpRequest MakeRequest(const std::string& method, const std::string& target,
                        const std::string& body = "") {
  // Round-trip through the real parser so tests exercise the same query
  // splitting the server does.
  std::string raw = method + " " + target + " HTTP/1.1\r\n" +
                    "Host: test\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()),
            HttpRequestParser::State::kComplete)
      << parser.error();
  return parser.request();
}

TEST(TenantRegistryTest, LoadListUnload) {
  TenantRegistry registry;
  auto info = registry.Load("alpha", ReadCorpus("acyclic_chain.rules"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().name, "alpha");
  EXPECT_EQ(info.value().num_rules, 2);
  EXPECT_EQ(info.value().num_tables, 3);

  ASSERT_TRUE(
      registry.Load("beta", ReadCorpus("nonconfluent_pair.rules")).ok());
  std::vector<TenantInfo> list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "alpha");  // sorted
  EXPECT_EQ(list[1].name, "beta");

  EXPECT_TRUE(registry.Unload("alpha").ok());
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Unload("alpha").code(), StatusCode::kNotFound);
}

TEST(TenantRegistryTest, DuplicateNameIsConflict) {
  TenantRegistry registry;
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_TRUE(registry.Load("dup", script).ok());
  auto again = registry.Load("dup", script);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.status().message().find("already loaded"),
            std::string::npos);
  EXPECT_EQ(HttpStatusFor(again.status()), 409);
  EXPECT_EQ(ErrorCodeFor(again.status()), "conflict");
  EXPECT_EQ(registry.size(), 1);
}

TEST(TenantRegistryTest, ParseErrorLeavesRegistryUnchanged) {
  TenantRegistry registry;
  ASSERT_TRUE(
      registry.Load("keep", ReadCorpus("acyclic_chain.rules")).ok());
  auto bad = registry.Load("broken", "create table (((");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Find("broken"), nullptr);
  EXPECT_NE(registry.Find("keep"), nullptr);
  // A semantically invalid catalog (rule on a missing table) is also
  // rejected without registering.
  auto semantic = registry.Load(
      "broken2",
      "create table t (a int);\n"
      "create rule r on missing when inserted then update t set a = 1;");
  ASSERT_FALSE(semantic.ok());
  EXPECT_EQ(registry.size(), 1);
}

TEST(TenantRegistryTest, RejectsBadNames) {
  TenantRegistry registry;
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  EXPECT_FALSE(registry.Load("", script).ok());
  EXPECT_FALSE(registry.Load("has space", script).ok());
  EXPECT_FALSE(registry.Load("has/slash", script).ok());
  EXPECT_FALSE(registry.Load(std::string(65, 'x'), script).ok());
  EXPECT_TRUE(registry.Load(std::string(64, 'x'), script).ok());
}

TEST(ServiceRouterTest, HealthzAndUnknownEndpoint) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  HttpResponse health = router.Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"status\":\"ok\",\"tenants\":0}");
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/nope")).status, 404);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/healthz")).status, 405);
  EXPECT_EQ(router.Handle(MakeRequest("PATCH", "/v1/tenants")).status, 405);
}

TEST(ServiceRouterTest, TenantLifecycleOverHttp) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  HttpResponse created = router.Handle(MakeRequest(
      "POST", "/v1/tenants/alpha", ReadCorpus("acyclic_chain.rules")));
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_EQ(created.body,
            "{\"name\":\"alpha\",\"rules\":2,\"tables\":3}");

  HttpResponse dup = router.Handle(MakeRequest(
      "POST", "/v1/tenants/alpha", ReadCorpus("acyclic_chain.rules")));
  EXPECT_EQ(dup.status, 409);

  HttpResponse bad =
      router.Handle(MakeRequest("POST", "/v1/tenants/bad", "create ???"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(registry.size(), 1);

  EXPECT_EQ(router.Handle(MakeRequest("GET", "/v1/tenants/alpha")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/v1/tenants/ghost")).status,
            404);
  HttpResponse list = router.Handle(MakeRequest("GET", "/v1/tenants"));
  EXPECT_EQ(list.status, 200);
  EXPECT_TRUE(IsValidJson(list.body)) << list.body;

  EXPECT_EQ(router.Handle(MakeRequest("DELETE", "/v1/tenants/alpha")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("DELETE", "/v1/tenants/alpha")).status,
            404);
}

TEST(ServiceRouterTest, TransitionRunsRulesAndCommitControlsState) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);

  // commit=0: rules fire but the tenant database is untouched.
  HttpResponse dry = router.Handle(
      MakeRequest("POST", "/v1/tenants/chain/transition?commit=0",
                  "insert into t0 values (1, 2)"));
  ASSERT_EQ(dry.status, 200) << dry.body;
  EXPECT_TRUE(IsValidJson(dry.body)) << dry.body;
  EXPECT_NE(dry.body.find("\"terminated\":true"), std::string::npos);
  // t1 is empty, so step1's update changes no rows and step2 stays
  // untriggered: exactly one firing.
  EXPECT_NE(dry.body.find("\"fired\":[\"step1\"]"), std::string::npos)
      << dry.body;
  EXPECT_NE(dry.body.find("\"committed\":false"), std::string::npos);

  std::shared_ptr<Tenant> tenant = registry.Find("chain");
  ASSERT_NE(tenant, nullptr);
  std::string before = tenant->db().CanonicalString();

  // Replaying the same transition with commit=1 changes the database, and
  // the response fingerprint matches the committed state.
  HttpResponse wet =
      router.Handle(MakeRequest("POST", "/v1/tenants/chain/transition",
                                "insert into t0 values (1, 2)"));
  ASSERT_EQ(wet.status, 200) << wet.body;
  EXPECT_NE(wet.body.find("\"committed\":true"), std::string::npos);
  EXPECT_NE(tenant->db().CanonicalString(), before);

  // The dry run reported the same fingerprint the wet run committed.
  auto fingerprint_of = [](const std::string& body) {
    size_t at = body.find("\"fingerprint\":\"");
    EXPECT_NE(at, std::string::npos);
    return body.substr(at + 15, 32);
  };
  EXPECT_EQ(fingerprint_of(dry.body), fingerprint_of(wet.body));

  // Statement errors surface as execution errors and never corrupt state.
  std::string after = tenant->db().CanonicalString();
  HttpResponse broken = router.Handle(MakeRequest(
      "POST", "/v1/tenants/chain/transition", "insert into t0 values (1)"));
  EXPECT_EQ(broken.status, 422) << broken.body;
  EXPECT_EQ(tenant->db().CanonicalString(), after);

  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/chain/transition",
                                    ""))
                .status,
            400);
}

// The determinism contract, batch side: the analyze endpoint's bytes are
// exactly FullReportToJson over a batch Analyzer built from the same
// script.
std::string BatchReportJson(const std::string& script, int max_violations) {
  auto set = fuzzing::ParseRuleSetScript(script);
  EXPECT_TRUE(set.ok());
  auto analyzer = Analyzer::Create(set.value().schema.get(),
                                   std::move(set.value().rules));
  EXPECT_TRUE(analyzer.ok());
  FullReport report = analyzer.value().AnalyzeAll(max_violations);
  return FullReportToJson(report, analyzer.value().catalog());
}

TEST(ServiceRouterTest, AnalyzeMatchesBatchPathByteForByte) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  for (const char* corpus :
       {"acyclic_chain.rules", "nonconfluent_pair.rules",
        "observable_ordered_pair.rules", "quiescing_cycle.rules"}) {
    std::string script = ReadCorpus(corpus);
    ASSERT_EQ(
        router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
        201);
    HttpResponse analyzed =
        router.Handle(MakeRequest("POST", "/v1/tenants/t/analyze"));
    ASSERT_EQ(analyzed.status, 200);
    EXPECT_EQ(analyzed.body, BatchReportJson(script, -1)) << corpus;
    EXPECT_TRUE(IsValidJson(analyzed.body));
    ASSERT_EQ(
        router.Handle(MakeRequest("DELETE", "/v1/tenants/t")).status, 200);
  }
}

TEST(ServiceRouterTest, CertifyChangesVerdictLikeBatch) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
      201);

  // Unknown rule names are rejected before touching certifications.
  EXPECT_EQ(router
                .Handle(MakeRequest(
                    "POST", "/v1/tenants/t/certify?kind=commute&a=nope&b=x"))
                .status,
            404);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/t/certify"))
                .status,
            400);

  HttpResponse certified = router.Handle(MakeRequest(
      "POST", "/v1/tenants/t/certify?kind=commute&a=writer1&b=writer2"));
  ASSERT_EQ(certified.status, 200) << certified.body;

  HttpResponse analyzed =
      router.Handle(MakeRequest("POST", "/v1/tenants/t/analyze"));
  ASSERT_EQ(analyzed.status, 200);

  // Batch equivalent: same certification, then analyze.
  auto set = fuzzing::ParseRuleSetScript(script);
  ASSERT_TRUE(set.ok());
  auto batch = Analyzer::Create(set.value().schema.get(),
                                std::move(set.value().rules));
  ASSERT_TRUE(batch.ok());
  batch.value().CertifyCommute("writer1", "writer2");
  FullReport report = batch.value().AnalyzeAll(-1);
  EXPECT_EQ(analyzed.body, FullReportToJson(report, batch.value().catalog()));
  EXPECT_NE(analyzed.body.find("\"confluent\":true"), std::string::npos)
      << analyzed.body;
}

TEST(ServiceRouterTest, WitnessMatchesDirectExtractionByteForByte) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/t", script)).status,
      201);
  // Seed a row in s so the writers' conflicting updates actually diverge
  // (on an empty s both updates are no-ops and every order converges).
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/t/transition",
                                    "insert into s values (0)"))
                .status,
            200);
  HttpResponse witness = router.Handle(MakeRequest(
      "POST", "/v1/tenants/t/witness", "insert into t values (1)"));
  ASSERT_EQ(witness.status, 200) << witness.body;
  EXPECT_TRUE(IsValidJson(witness.body));
  EXPECT_NE(witness.body.find("\"status\":\"found\""), std::string::npos)
      << witness.body;

  auto set = fuzzing::ParseRuleSetScript(script);
  ASSERT_TRUE(set.ok());
  auto catalog = RuleCatalog::Build(set.value().schema.get(),
                                    std::move(set.value().rules));
  ASSERT_TRUE(catalog.ok());
  Database db(set.value().schema.get());
  {
    RuleProcessor processor(&db, &catalog.value());
    ASSERT_TRUE(
        processor.ExecuteUserStatement("insert into s values (0)").ok());
    ASSERT_TRUE(processor.AssertRules().ok());
    processor.Commit();
  }
  auto extraction = ExtractWitnessAfterStatements(
      catalog.value(), db, {"insert into t values (1)"});
  ASSERT_TRUE(extraction.ok());
  EXPECT_EQ(witness.body,
            WitnessExtractionToJson(extraction.value(), catalog.value()));
}

// Regression: witness reconstruction once recursed one C++ frame per rule
// firing and copied the whole state at every level, so a deep enough
// request overflowed the stack and killed the server. `inc` retriggers
// itself forever with a fresh x each time, so the first path never ends
// and the walk must stop on max_steps — iteratively, without a crash.
TEST(ServiceRouterTest, DeepWitnessRequestHitsBudgetWithoutCrashing) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  const std::string script =
      "create table a (x int); create table b (x int); "
      "create rule inc on a when inserted, updated(x) "
      "then update a set x = x + 1; "
      "create rule stop1 on a when inserted, updated(x) "
      "then delete from a; "
      "create rule stop2 on a when inserted, updated(x) "
      "then delete from a; "
      "insert into b values (2);";
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/deep", script)).status,
      201);
  const std::string target =
      "/v1/tenants/deep/witness?max_depth=1000000&max_steps=30000";
  HttpResponse witness = router.Handle(
      MakeRequest("POST", target, "insert into a values (0)"));
  ASSERT_EQ(witness.status, 200) << witness.body;
  EXPECT_EQ(witness.body,
            "{\"status\":\"not_evaluated\",\"note\":\"witness reconstruction "
            "budget exhausted\"}");
  // The tenant still answers.
  HttpResponse again = router.Handle(MakeRequest(
      "POST", "/v1/tenants/deep/witness?max_steps=100",
      "insert into a values (0)"));
  EXPECT_EQ(again.status, 200) << again.body;
}

TEST(ServiceRouterTest, UnloadWhileRequestInFlightIsSafe) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/victim",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);

  // Deterministic version: a request holds the tenant (shared_ptr +
  // strand) while the unload happens; the in-flight request completes on
  // the detached tenant.
  std::shared_ptr<Tenant> held = registry.Find("victim");
  ASSERT_NE(held, nullptr);
  {
    std::unique_lock<std::mutex> strand(held->strand());
    EXPECT_TRUE(registry.Unload("victim").ok());
  }
  // The detached tenant still answers (lifetime via shared_ptr), but the
  // registry no longer routes to it.
  EXPECT_EQ(held->catalog().num_rules(), 2);
  EXPECT_EQ(
      router.Handle(MakeRequest("GET", "/v1/tenants/victim")).status, 404);
  held.reset();

  // Concurrent hammer: loaders, analyzers, and unloaders race on one
  // tenant name; nothing may crash and every response is a known status.
  std::string script = ReadCorpus("nonconfluent_pair.rules");
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 50 && !stop.load(); ++i) {
        HttpResponse response;
        switch ((w + i) % 3) {
          case 0:
            response = router.Handle(
                MakeRequest("POST", "/v1/tenants/racy", script));
            EXPECT_TRUE(response.status == 201 || response.status == 409)
                << response.status;
            break;
          case 1:
            response =
                router.Handle(MakeRequest("POST", "/v1/tenants/racy/analyze"));
            EXPECT_TRUE(response.status == 200 || response.status == 404)
                << response.status;
            break;
          default:
            response =
                router.Handle(MakeRequest("DELETE", "/v1/tenants/racy"));
            EXPECT_TRUE(response.status == 200 || response.status == 404)
                << response.status;
            break;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

// The /stats counters slice must be byte-identical across analysis pool
// sizes for a fixed request sequence (the PR5 determinism contract
// extended to the service).
std::string CountersAfterFixedSequence(int pool_threads) {
  ThreadPool::SetDefaultThreadCount(pool_threads);
  metrics::Reset();
  metrics::ScopedCollect collect;
  TenantRegistry registry;
  ServiceRouter router(&registry);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/b",
                                    ReadCorpus("nonconfluent_pair.rules")))
                .status,
            201);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/v1/tenants/a/analyze")).status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("POST", "/v1/tenants/b/analyze")).status,
            200);
  EXPECT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a/transition",
                                    "insert into t0 values (1, 2)"))
                .status,
            200);
  EXPECT_EQ(router.Handle(MakeRequest("GET", "/healthz")).status, 200);
  HttpResponse stats =
      router.Handle(MakeRequest("GET", "/stats?section=counters"));
  EXPECT_EQ(stats.status, 200);
  EXPECT_TRUE(IsValidJson(stats.body));
  metrics::Reset();
  return stats.body;
}

TEST(ServiceStatsTest, CountersByteIdenticalAcrossPoolSizes) {
  std::string one = CountersAfterFixedSequence(1);
  std::string four = CountersAfterFixedSequence(4);
  ThreadPool::SetDefaultThreadCount(ThreadPool::DefaultThreadCount());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"service.requests\":7"), std::string::npos) << one;
  EXPECT_NE(one.find("\"service.tenant.a.requests\":2"), std::string::npos)
      << one;
}

TEST(ServiceStatsTest, StatsShapeAndSections) {
  metrics::ScopedCollect collect;
  TenantRegistry registry;
  ServiceRouter router(&registry);
  ASSERT_EQ(router
                .Handle(MakeRequest("POST", "/v1/tenants/a",
                                    ReadCorpus("acyclic_chain.rules")))
                .status,
            201);
  HttpResponse stats = router.Handle(MakeRequest("GET", "/stats"));
  ASSERT_EQ(stats.status, 200);
  EXPECT_TRUE(IsValidJson(stats.body)) << stats.body;
  EXPECT_EQ(stats.body.compare(0, 12, "{\"service\":{"), 0) << stats.body;
  EXPECT_NE(stats.body.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(stats.body.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(stats.body.find("\"histograms\":{"), std::string::npos);
  HttpResponse service =
      router.Handle(MakeRequest("GET", "/stats?section=service"));
  EXPECT_TRUE(IsValidJson(service.body));
  EXPECT_NE(service.body.find("\"tenants\":1"), std::string::npos);
  metrics::Reset();
}

// The acceptance-criteria pin: tenant A's analyze bytes are identical to
// the batch path while other tenants are under concurrent load.
TEST(ServiceDeterminismTest, AnalyzeBytesStableUnderConcurrentLoad) {
  TenantRegistry registry;
  ServiceRouter router(&registry);
  std::string script_a = ReadCorpus("observable_ordered_pair.rules");
  std::string script_b = ReadCorpus("acyclic_chain.rules");
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/a", script_a)).status,
      201);
  ASSERT_EQ(
      router.Handle(MakeRequest("POST", "/v1/tenants/b", script_b)).status,
      201);
  const std::string golden = BatchReportJson(script_a, -1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int w = 0; w < 3; ++w) {
    hammers.emplace_back([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        router.Handle(MakeRequest(
            "POST", "/v1/tenants/b/transition?commit=0",
            "insert into t0 values (" + std::to_string(i++ % 7) + ", 1)"));
        router.Handle(MakeRequest("POST", "/v1/tenants/b/analyze"));
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    HttpResponse analyzed =
        router.Handle(MakeRequest("POST", "/v1/tenants/a/analyze"));
    ASSERT_EQ(analyzed.status, 200);
    ASSERT_EQ(analyzed.body, golden) << "iteration " << i;
  }
  stop.store(true);
  for (std::thread& t : hammers) t.join();
}

}  // namespace
}  // namespace service
}  // namespace starburst
