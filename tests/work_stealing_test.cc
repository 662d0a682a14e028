#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/striped_set.h"
#include "common/work_stealing.h"
#include "engine/fingerprint.h"
#include "rulelang/parser.h"
#include "rules/explorer.h"

namespace starburst {
namespace {

Hash128 Fp(uint64_t lo, uint64_t hi = 0) {
  Hash128 h;
  h.lo = lo;
  h.hi = hi;
  return h;
}

// --- StripedHashSet: the explorer's shared concurrent interner.

TEST(StripedHashSetTest, SingleThreadedMatchesUnorderedSet) {
  StripedHashSet<Hash128, Hash128Hasher> striped;
  std::unordered_set<Hash128, Hash128Hasher> reference;
  // A deterministic stream with plenty of duplicates: every Insert's
  // fresh/stale answer must match the plain single-threaded set.
  uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    Hash128 key = Fp(x % 997, x % 13);
    EXPECT_EQ(striped.Insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(striped.Size(), reference.size());
  for (const Hash128& key : reference) {
    EXPECT_TRUE(striped.Contains(key));
  }
  EXPECT_FALSE(striped.Contains(Fp(~0ull, ~0ull)));
  // Single-threaded use never finds a stripe lock held.
  EXPECT_EQ(striped.ContendedLocks(), 0);
}

TEST(StripedHashSetTest, StripeCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ((StripedHashSet<Hash128, Hash128Hasher>(1).num_stripes()), 1u);
  EXPECT_EQ((StripedHashSet<Hash128, Hash128Hasher>(3).num_stripes()), 4u);
  EXPECT_EQ((StripedHashSet<Hash128, Hash128Hasher>(64).num_stripes()), 64u);
  EXPECT_EQ((StripedHashSet<Hash128, Hash128Hasher>(65).num_stripes()), 128u);
}

// Distinct keys that collide in the *hasher* (identical size_t hash, so
// identical stripe and bucket) must still be distinguished by operator==:
// Hash128Hasher folds hi with a multiplier, so (lo=1,hi=0) and a key with
// the same folded value are kept apart only by full 128-bit equality.
TEST(StripedHashSetTest, HasherCollisionsAreDistinguishedByFullKey) {
  Hash128Hasher hasher;
  Hash128 a = Fp(0x1234, 0);
  // Engineer b != a with hasher(b) == hasher(a): pick hi=1 and solve lo so
  // lo ^ (hi * M) == a.lo ^ (a.hi * M).
  Hash128 b = Fp(hasher(a) ^ (1ull * 0x9e3779b97f4a7c15ull), 1);
  ASSERT_EQ(hasher(a), hasher(b));
  ASSERT_FALSE(a == b);

  StripedHashSet<Hash128, Hash128Hasher> striped;
  EXPECT_TRUE(striped.Insert(a));
  EXPECT_TRUE(striped.Insert(b));  // colliding hash, different key: fresh
  EXPECT_FALSE(striped.Insert(a));
  EXPECT_FALSE(striped.Insert(b));
  EXPECT_EQ(striped.Size(), 2u);
}

// Many threads hammer overlapping key ranges: across the whole run every
// distinct key must be reported fresh exactly once, no matter which thread
// wins the race. (Run under TSan in CI to check the striping itself.)
TEST(StripedHashSetTest, ConcurrentInsertsCountEachKeyOnce) {
  constexpr int kThreads = 8;
  constexpr uint64_t kKeys = 4096;
  StripedHashSet<Hash128, Hash128Hasher> striped(8);
  std::atomic<long> fresh{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the full key space from a different offset, so
      // every key is contended by all eight threads.
      for (uint64_t i = 0; i < kKeys; ++i) {
        uint64_t k = (i + t * 512) % kKeys;
        if (striped.Insert(Fp(k, k ^ 0xabcdef))) {
          fresh.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(fresh.load(), static_cast<long>(kKeys));
  EXPECT_EQ(striped.Size(), kKeys);
}

// The degenerate race: every thread inserts the SAME key. Exactly one
// Insert across the whole run may report fresh.
TEST(StripedHashSetTest, SameKeyFromManyThreadsIsFreshOnce) {
  StripedHashSet<Hash128, Hash128Hasher> striped;
  std::atomic<int> fresh{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (striped.Insert(Fp(42, 99))) fresh.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(fresh.load(), 1);
  EXPECT_EQ(striped.Size(), 1u);
}

// --- WorkStealingDeques: the owner-back / thief-front protocol.

struct TestTask {
  int id = 0;
  std::atomic<uint32_t> cursor{0};
};

TEST(WorkStealingDequesTest, RemoveBackRequiresIdentity) {
  WorkStealingDeques<TestTask> deques(2);
  auto t1 = std::make_shared<TestTask>();
  auto t2 = std::make_shared<TestTask>();
  deques.Push(0, t1);
  deques.Push(0, t2);
  // The back is t2; asking for t1 must not pop anything.
  EXPECT_FALSE(deques.RemoveBack(0, t1.get()));
  EXPECT_TRUE(deques.RemoveBack(0, t2.get()));
  EXPECT_TRUE(deques.RemoveBack(0, t1.get()));
  EXPECT_FALSE(deques.RemoveBack(0, t1.get()));  // empty now
}

TEST(WorkStealingDequesTest, StealTakesOldestAndOwnerKeepsNewest) {
  WorkStealingDeques<TestTask> deques(2);
  auto t1 = std::make_shared<TestTask>();
  auto t2 = std::make_shared<TestTask>();
  auto t3 = std::make_shared<TestTask>();
  deques.Push(0, t1);
  deques.Push(0, t2);
  deques.Push(0, t3);
  // Thief (worker 1) takes the FRONT: the oldest handle, the shallowest
  // frame in a DFS.
  EXPECT_EQ(deques.Steal(1).get(), t1.get());
  // Owner retires from the BACK: newest first, untouched by the steal.
  EXPECT_TRUE(deques.RemoveBack(0, t3.get()));
  EXPECT_EQ(deques.Steal(1).get(), t2.get());
  // t2 was stolen, so the owner's RemoveBack reports it gone.
  EXPECT_FALSE(deques.RemoveBack(0, t2.get()));
  EXPECT_EQ(deques.Steal(1), nullptr);
  EXPECT_EQ(deques.steals(), 2);
}

TEST(WorkStealingDequesTest, StealScansVictimsStartingAfterSelf) {
  WorkStealingDeques<TestTask> deques(3);
  auto mine = std::make_shared<TestTask>();
  auto theirs = std::make_shared<TestTask>();
  deques.Push(1, mine);
  deques.Push(2, theirs);
  // Worker 0 scans 1 then 2: takes worker 1's task first.
  EXPECT_EQ(deques.Steal(0).get(), mine.get());
  EXPECT_EQ(deques.Steal(0).get(), theirs.get());
}

TEST(WorkStealingDequesTest, QuiescentTracksActiveWorkers) {
  WorkStealingDeques<TestTask> deques(2);
  EXPECT_TRUE(deques.Quiescent());
  deques.MarkActive();
  EXPECT_FALSE(deques.Quiescent());
  deques.MarkActive();
  deques.MarkIdle();
  EXPECT_FALSE(deques.Quiescent());
  deques.MarkIdle();
  EXPECT_TRUE(deques.Quiescent());
}

// A miniature of the explorer's protocol: each task carries `kFan` units of
// work behind an atomic cursor; owners push tasks, drain cursors, and
// retire with RemoveBack, while thieves steal and drain the same cursors.
// Every unit must be claimed exactly once across the region, and the
// idle/active protocol must let all workers terminate. TSan covers the
// locking when CI runs this test in the sanitizer job.
TEST(WorkStealingDequesTest, ConcurrentHammerClaimsEveryUnitOnce) {
  constexpr int kWorkers = 4;
  constexpr int kTasksPerWorker = 200;
  constexpr uint32_t kFan = 4;
  WorkStealingDeques<TestTask> deques(kWorkers);
  std::atomic<long> claimed{0};

  auto drain = [&](TestTask* task) {
    while (task->cursor.fetch_add(1, std::memory_order_relaxed) < kFan) {
      claimed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      // Produce this worker's own tasks, stealing opportunistically.
      deques.MarkActive();
      for (int i = 0; i < kTasksPerWorker; ++i) {
        auto task = std::make_shared<TestTask>();
        task->id = w * kTasksPerWorker + i;
        deques.Push(w, task);
        if (i % 3 == 0) {
          if (std::shared_ptr<TestTask> stolen = deques.Steal(w)) {
            drain(stolen.get());
          }
        }
        drain(task.get());
        deques.RemoveBack(w, task.get());
      }
      deques.MarkIdle();
      // Thief phase: keep stealing until the region is quiescent.
      while (true) {
        if (std::shared_ptr<TestTask> stolen = deques.Steal(w)) {
          deques.MarkActive();
          drain(stolen.get());
          deques.MarkIdle();
        } else if (deques.Quiescent()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(claimed.load(), long{kWorkers} * kTasksPerWorker * kFan);
  EXPECT_TRUE(deques.Quiescent());
}

// --- Explorer-level hammer: the full work-stealing engine against the
// classic walk on a five-way interleaving tree (325 edges), repeated so a
// TSan run sees many schedules. Results and the deterministic stats must
// be bit-identical every iteration.

// Four updates plus one observable select, all on `a`: 5 + 5*4 + ... + 5!
// = 325 edges, far past the 64 steps after which helpers start.
constexpr const char* kFiveWayRules =
    "create rule w1 on a when inserted then update a set x = 1; "
    "create rule w2 on a when inserted then update a set x = 2; "
    "create rule w3 on a when inserted then update a set x = 3; "
    "create rule w4 on a when inserted then update a set x = 4; "
    "create rule w5 on a when inserted then select 9 from a;";

class WorkStealingExplorerTest : public ::testing::Test {
 protected:
  void Load(const std::string& ddl, const std::string& rules_src) {
    auto ddl_script = Parser::ParseScript(ddl);
    ASSERT_TRUE(ddl_script.ok()) << ddl_script.status().ToString();
    for (const StmtPtr& stmt : ddl_script.value().statements) {
      ASSERT_TRUE(schema_.AddTable(stmt->table, stmt->create_columns).ok());
    }
    auto rules_script = Parser::ParseScript(rules_src);
    ASSERT_TRUE(rules_script.ok()) << rules_script.status().ToString();
    auto catalog =
        RuleCatalog::Build(&schema_, std::move(rules_script.value().rules));
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog_ = std::make_unique<RuleCatalog>(std::move(catalog).value());
    db_ = std::make_unique<Database>(&schema_);
  }

  ExplorationResult Explore(ExplorerOptions options) {
    auto r = Explorer::ExploreAfterStatements(
        *catalog_, *db_, {"insert into a values (0)"}, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExplorationResult{};
  }

  // Every result field and determinism-contract counter must equal the
  // classic walk's; only the scheduling telemetry may differ.
  static void ExpectMatchesClassic(const ExplorationResult& stealing,
                                   const ExplorationResult& classic) {
    EXPECT_EQ(stealing.final_states, classic.final_states);
    EXPECT_EQ(stealing.observable_streams, classic.observable_streams);
    EXPECT_EQ(stealing.complete, classic.complete);
    EXPECT_EQ(stealing.may_not_terminate, classic.may_not_terminate);
    EXPECT_EQ(stealing.steps_taken, classic.steps_taken);
    // The shared interner makes the visit accounting thread-invariant:
    // these were per-shard (and schedule-dependent) before.
    EXPECT_EQ(stealing.states_visited, classic.states_visited);
    EXPECT_EQ(stealing.stats.states_interned, classic.stats.states_interned);
    EXPECT_EQ(stealing.stats.interner_hits, classic.stats.interner_hits);
    EXPECT_EQ(stealing.stats.delta_reverts, classic.stats.delta_reverts);
    EXPECT_EQ(stealing.stats.canonicalization_bytes,
              classic.stats.canonicalization_bytes);
    EXPECT_EQ(stealing.stats.por_pruned_orders,
              classic.stats.por_pruned_orders);
    // Every state is visited at its classic tree depth (a thief's
    // replayed prefix counts toward its depth), so even the stack peak
    // is schedule-invariant.
    EXPECT_EQ(stealing.stats.peak_stack_depth,
              classic.stats.peak_stack_depth);
  }

  Schema schema_;
  std::unique_ptr<RuleCatalog> catalog_;
  std::unique_ptr<Database> db_;
};

TEST_F(WorkStealingExplorerTest, RepeatedRunsMatchClassicBitForBit) {
  Load("create table a (x int);", kFiveWayRules);
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.num_threads = 0;
  ExplorationResult classic = Explore(options);
  ASSERT_TRUE(classic.complete);
  ASSERT_EQ(classic.steps_taken, 325);
  for (int iteration = 0; iteration < 5; ++iteration) {
    options.num_threads = 4;
    ExplorationResult stealing = Explore(options);
    SCOPED_TRACE("iteration=" + std::to_string(iteration));
    ExpectMatchesClassic(stealing, classic);
    // The run fit the default budget, so the parallel attempt itself
    // must have produced the answer (no classic rerun).
    EXPECT_EQ(stealing.stats.parallel_fallbacks, 0);
    // 325 steps pass the 64-step threshold: all three helpers start.
    EXPECT_EQ(stealing.stats.helper_threads, 3);
  }
}

// A tree under the 64-step threshold runs entirely on the calling thread:
// no helper starts even at eight workers, and the result is still the
// classic one.
TEST_F(WorkStealingExplorerTest, SmallTreeStartsNoHelpers) {
  Load("create table a (x int);",
       "create rule w1 on a when inserted then update a set x = 1; "
       "create rule w2 on a when inserted then update a set x = 2; "
       "create rule w3 on a when inserted then select 9 from a;");
  for (auto por : {ExplorerOptions::PorMode::kOff,
                   ExplorerOptions::PorMode::kCommute}) {
    SCOPED_TRACE("por=" +
                 std::to_string(por == ExplorerOptions::PorMode::kCommute));
    ExplorerOptions options;
    options.por = por;
    options.num_threads = 0;
    ExplorationResult classic = Explore(options);
    ASSERT_TRUE(classic.complete);
    ASSERT_GT(classic.steps_taken, 1);
    ASSERT_LT(classic.steps_taken, 64);
    options.num_threads = 8;
    ExplorationResult stealing = Explore(options);
    ExpectMatchesClassic(stealing, classic);
    EXPECT_EQ(stealing.stats.helper_threads, 0);
    EXPECT_EQ(stealing.stats.steals, 0);
    EXPECT_EQ(stealing.stats.parallel_fallbacks, 0);
  }
}

// A budget the helpers outlive: it trips after all of them started, the
// parallel attempt is discarded, and the classic truncated result comes
// back verbatim — with every helper joined before the rerun.
TEST_F(WorkStealingExplorerTest, BudgetTripAfterHelpersStartFallsBack) {
  Load("create table a (x int);", kFiveWayRules);
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.max_total_steps = 100;  // past the threshold, short of 325
  options.num_threads = 0;
  ExplorationResult classic = Explore(options);
  ASSERT_FALSE(classic.complete);
  for (int iteration = 0; iteration < 3; ++iteration) {
    options.num_threads = 4;
    ExplorationResult stealing = Explore(options);
    ExpectMatchesClassic(stealing, classic);
    EXPECT_EQ(stealing.stats.parallel_fallbacks, 1);
    EXPECT_EQ(stealing.stats.helper_threads, 3);
  }
}

// The helper count reaches the metrics registry as the
// explorer.helper_threads gauge: it depends on num_threads, so it must stay
// out of the counters that the determinism tests compare byte for byte.
TEST_F(WorkStealingExplorerTest, HelperThreadsFlushAsGaugeNotCounter) {
  Load("create table a (x int);", kFiveWayRules);
  metrics::Reset();
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.collect_metrics = true;
  options.num_threads = 4;
  ExplorationResult stealing = Explore(options);
  ASSERT_EQ(stealing.stats.helper_threads, 3);
  metrics::Snapshot snapshot = metrics::Collect();
  EXPECT_EQ(metrics::CountersToJson(snapshot).find("helper_threads"),
            std::string::npos);
  bool found = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name != "explorer.helper_threads") continue;
    found = true;
    EXPECT_EQ(value, 3);
  }
  EXPECT_TRUE(found);
}

// A budget under the threshold trips while worker 0 is still alone.
TEST_F(WorkStealingExplorerTest, BudgetTripBeforeThresholdStartsNoHelpers) {
  Load("create table a (x int);", kFiveWayRules);
  ExplorerOptions options;
  options.por = ExplorerOptions::PorMode::kOff;
  options.max_total_steps = 30;
  options.num_threads = 0;
  ExplorationResult classic = Explore(options);
  ASSERT_FALSE(classic.complete);
  options.num_threads = 4;
  ExplorationResult stealing = Explore(options);
  ExpectMatchesClassic(stealing, classic);
  EXPECT_EQ(stealing.stats.parallel_fallbacks, 1);
  EXPECT_EQ(stealing.stats.helper_threads, 0);
  EXPECT_EQ(stealing.stats.steals, 0);
}

}  // namespace
}  // namespace starburst
