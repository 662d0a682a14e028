#include "common/metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "json_lint.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"
#include "rules/rule_catalog.h"

namespace starburst {
namespace {

using metrics::Collect;
using metrics::CountersToJson;
using metrics::GetCounter;
using metrics::GetGauge;
using metrics::GetHistogram;
using metrics::MetricsToJson;
using metrics::Reset;
using metrics::ScopedCollect;
using metrics::Snapshot;

int64_t CounterValue(const Snapshot& snapshot, const std::string& name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter '" << name << "' not in snapshot";
  return -1;
}

bool HasCounter(const Snapshot& snapshot, const std::string& name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return true;
  }
  return false;
}

const metrics::HistogramSnapshot* FindHistogram(const Snapshot& snapshot,
                                                const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(MetricsTest, CounterAccumulatesWhileCollecting) {
  Reset();
  ScopedCollect collect;
  metrics::Counter* counter = GetCounter("test.basic_counter");
  counter->Add(5);
  counter->Increment();
  EXPECT_EQ(counter->Value(), 6);
  EXPECT_EQ(CounterValue(Collect(), "test.basic_counter"), 6);
}

TEST(MetricsTest, DisabledCollectionDropsWrites) {
  Reset();
  ASSERT_FALSE(metrics::Enabled());
  metrics::Counter* counter = GetCounter("test.disabled_counter");
  counter->Add(42);
  EXPECT_EQ(counter->Value(), 0);
  // The macros guard registration on Enabled(), so a disabled run
  // registers nothing at all.
  STARBURST_METRIC_COUNT("test.disabled_macro_counter", 7);
  EXPECT_FALSE(HasCounter(Collect(), "test.disabled_macro_counter"));
}

TEST(MetricsTest, MacroRegistersAndCountsWhenEnabled) {
  Reset();
  ScopedCollect collect;
  for (int i = 0; i < 3; ++i) {
    STARBURST_METRIC_COUNT("test.macro_counter", 2);
  }
  EXPECT_EQ(CounterValue(Collect(), "test.macro_counter"), 6);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  Reset();
  ScopedCollect collect;
  metrics::Counter* counter = GetCounter("test.concurrent_counter");
  metrics::Histogram* hist =
      GetHistogram("test.concurrent_hist", {10, 100, 1000});
  constexpr int kN = 200000;
  ThreadPool pool(8);
  pool.ParallelFor(kN, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
      hist->Record(static_cast<int64_t>(i % 2000));
    }
  });
  // Workers are quiesced once ParallelFor returns, so totals are exact.
  EXPECT_EQ(counter->Value(), kN);
  Snapshot snapshot = Collect();
  const metrics::HistogramSnapshot* h =
      FindHistogram(snapshot, "test.concurrent_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kN);
  int64_t bucket_total = 0;
  for (int64_t c : h->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kN);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Reset();
  ScopedCollect collect;
  metrics::Histogram* hist = GetHistogram("test.edges_hist", {10, 20});
  hist->Record(-5);  // <= 10 -> bucket 0
  hist->Record(10);  // == bound, inclusive -> bucket 0
  hist->Record(11);  // bucket 1
  hist->Record(20);  // == bound, inclusive -> bucket 1
  hist->Record(21);  // overflow bucket
  Snapshot snapshot = Collect();
  const metrics::HistogramSnapshot* h =
      FindHistogram(snapshot, "test.edges_hist");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->bounds, (std::vector<int64_t>{10, 20}));
  EXPECT_EQ(h->counts, (std::vector<int64_t>{2, 2, 1}));
  EXPECT_EQ(h->count, 5);
  EXPECT_EQ(h->sum, -5 + 10 + 11 + 20 + 21);
}

TEST(MetricsTest, HistogramRecordMany) {
  Reset();
  ScopedCollect collect;
  metrics::Histogram* hist = GetHistogram("test.record_many_hist", {100});
  hist->RecordMany(50, 7);
  hist->RecordMany(500, 3);
  Snapshot snapshot = Collect();
  const metrics::HistogramSnapshot* h =
      FindHistogram(snapshot, "test.record_many_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<int64_t>{7, 3}));
  EXPECT_EQ(h->count, 10);
  EXPECT_EQ(h->sum, 50 * 7 + 500 * 3);
}

TEST(MetricsTest, GaugeSetAddMax) {
  Reset();
  ScopedCollect collect;
  metrics::Gauge* gauge = GetGauge("test.gauge");
  gauge->Set(10);
  gauge->Add(5);
  EXPECT_EQ(gauge->Value(), 15);
  gauge->Max(12);  // lower than current -> unchanged
  EXPECT_EQ(gauge->Value(), 15);
  gauge->Max(99);
  EXPECT_EQ(gauge->Value(), 99);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  Reset();
  ScopedCollect collect;
  GetCounter("test.reset_counter")->Add(9);
  Reset();
  Snapshot snapshot = Collect();
  EXPECT_TRUE(HasCounter(snapshot, "test.reset_counter"));
  EXPECT_EQ(CounterValue(snapshot, "test.reset_counter"), 0);
}

TEST(MetricsTest, JsonRendersValid) {
  Reset();
  ScopedCollect collect;
  GetCounter("test.json_counter")->Add(3);
  GetGauge("test.json_gauge")->Set(-7);
  GetHistogram("test.json_hist", {1, 2, 4})->Record(3);
  Snapshot snapshot = Collect();
  std::string error;
  EXPECT_TRUE(testing::IsValidJson(MetricsToJson(snapshot), &error)) << error;
  EXPECT_TRUE(testing::IsValidJson(CountersToJson(snapshot), &error)) << error;
  EXPECT_NE(MetricsToJson(snapshot).find("\"test.json_counter\":3"),
            std::string::npos);
}

/// The bench_delta / BM_ExplorerUnorderedRules workload: k unordered
/// commuting rules, each inserting into its own table off one trigger.
struct Workload {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<RuleCatalog> catalog;
};

Workload MakeUnorderedWorkload(int k) {
  Workload w;
  w.schema = std::make_unique<Schema>();
  (void)w.schema->AddTable("src", {{"a", ColumnType::kInt}});
  std::string rules_src;
  for (int i = 0; i < k; ++i) {
    std::string table = "t" + std::to_string(i);
    (void)w.schema->AddTable(table, {{"a", ColumnType::kInt}});
    rules_src += "create rule r" + std::to_string(i) +
                 " on src when inserted then insert into " + table +
                 " values (1);";
  }
  auto script = Parser::ParseScript(rules_src);
  auto built =
      RuleCatalog::Build(w.schema.get(), std::move(script.value().rules));
  w.catalog = std::make_unique<RuleCatalog>(std::move(built).value());
  return w;
}

/// The explorer's determinism contract: the counter section of a snapshot
/// taken after the k=5 exploration workload is byte-identical for 0, 1, 2,
/// and 8 explorer threads, in the default mode and with dedup_subtrees (POR
/// off) — latency histograms and wall-time gauges are outside the contract
/// and excluded by CountersToJson.
TEST(MetricsTest, ExplorerCountersByteIdenticalAcrossThreadCounts) {
  Workload w = MakeUnorderedWorkload(5);
  auto counters_for = [&](ExplorerOptions options, int threads) {
    Reset();
    {
      ScopedCollect collect;
      Database db(w.schema.get());
      options.num_threads = threads;
      auto result = Explorer::ExploreAfterStatements(
          *w.catalog, db, {"insert into src values (1)"}, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
    return CountersToJson(Collect());
  };
  ExplorerOptions dedup;
  dedup.dedup_subtrees = true;
  dedup.por = ExplorerOptions::PorMode::kOff;
  for (const ExplorerOptions& options : {ExplorerOptions{}, dedup}) {
    SCOPED_TRACE(options.dedup_subtrees ? "dedup_subtrees" : "default");
    std::string classic = counters_for(options, 0);
    EXPECT_NE(classic.find("explorer.states_visited"), std::string::npos);
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(counters_for(options, threads), classic)
          << "num_threads=" << threads;
    }
  }
}

/// Same contract through ExplorerOptions::collect_metrics (no explicit
/// ScopedCollect at the call site).
TEST(MetricsTest, CollectMetricsOptionEquivalentToScopedCollect) {
  Workload w = MakeUnorderedWorkload(3);
  Reset();
  Database db(w.schema.get());
  ExplorerOptions options;
  options.collect_metrics = true;
  auto result = Explorer::ExploreAfterStatements(
      *w.catalog, db, {"insert into src values (1)"}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Snapshot snapshot = Collect();
  EXPECT_EQ(CounterValue(snapshot, "explorer.explorations"), 1);
  EXPECT_EQ(CounterValue(snapshot, "explorer.states_visited"),
            result.value().states_visited);
}

TEST(MetricsTest, DisabledExplorationRegistersNothing) {
  Workload w = MakeUnorderedWorkload(3);
  Reset();
  ASSERT_FALSE(metrics::Enabled());
  Database db(w.schema.get());
  auto result = Explorer::ExploreAfterStatements(
      *w.catalog, db, {"insert into src values (1)"}, ExplorerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With collection off the run must not have flushed anything. (An
  // earlier test in the same process may have registered the name, so
  // accept "absent" or "still zero".)
  Snapshot snapshot = Collect();
  if (HasCounter(snapshot, "explorer.explorations")) {
    EXPECT_EQ(CounterValue(snapshot, "explorer.explorations"), 0);
  }
}

}  // namespace
}  // namespace starburst
