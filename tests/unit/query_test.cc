#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "obs/metrics/metrics.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/index.h"
#include "query/predicate.h"
#include "query/table.h"

namespace dba::query {
namespace {

// Reference: evaluate a predicate by scanning every row.
bool RowMatches(const Table& table, const Predicate& predicate, Rid rid) {
  if (predicate.is_leaf()) {
    const uint32_t value = *table.Value(predicate.column, rid);
    return value >= predicate.lo && value <= predicate.hi;
  }
  switch (predicate.kind) {
    case Predicate::Kind::kNot:
      return !RowMatches(table, *predicate.children[0], rid);
    case Predicate::Kind::kAnd:
      for (const auto& child : predicate.children) {
        if (!RowMatches(table, *child, rid)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
      for (const auto& child : predicate.children) {
        if (RowMatches(table, *child, rid)) return true;
      }
      return false;
    default:
      return false;
  }
}

std::vector<Rid> ScanSelect(const Table& table, const Predicate& predicate) {
  std::vector<Rid> rids;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    if (RowMatches(table, predicate, rid)) rids.push_back(rid);
  }
  return rids;
}

Table MakeOrdersTable(uint32_t rows, uint64_t seed) {
  Random rng(seed);
  Table table("orders");
  std::vector<uint32_t> region(rows);
  std::vector<uint32_t> status(rows);
  std::vector<uint32_t> amount(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    region[i] = static_cast<uint32_t>(rng.Uniform(5));
    status[i] = static_cast<uint32_t>(rng.Uniform(3));
    amount[i] = static_cast<uint32_t>(rng.Uniform(10000));
  }
  EXPECT_TRUE(table.AddColumn("region", std::move(region)).ok());
  EXPECT_TRUE(table.AddColumn("status", std::move(status)).ok());
  EXPECT_TRUE(table.AddColumn("amount", std::move(amount)).ok());
  return table;
}

// --- Table ---

TEST(TableTest, AddAndAccessColumns) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}).ok());
  ASSERT_TRUE(table.AddColumn("b", {4, 5, 6}).ok());
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_TRUE(table.HasColumn("a"));
  EXPECT_FALSE(table.HasColumn("c"));
  EXPECT_EQ((*table.Column("b"))[1], 5u);
  EXPECT_EQ(*table.Value("a", 2), 3u);
  EXPECT_EQ(table.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(TableTest, Validation) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}).ok());
  EXPECT_EQ(table.AddColumn("a", {7, 8, 9}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.AddColumn("b", {1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Column("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.Value("a", 5).status().code(), StatusCode::kOutOfRange);
}

// --- SecondaryIndex ---

TEST(SecondaryIndexTest, ProbesReturnSortedRids) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("k", {5, 1, 5, 3, 5, 1}).ok());
  auto index = SecondaryIndex::Build(table, "k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->ProbeEquals(5), (std::vector<Rid>{0, 2, 4}));
  EXPECT_EQ(index->ProbeEquals(1), (std::vector<Rid>{1, 5}));
  EXPECT_TRUE(index->ProbeEquals(7).empty());
  EXPECT_EQ(index->ProbeRange(1, 3), (std::vector<Rid>{1, 3, 5}));
  EXPECT_EQ(index->ProbeRange(0, 0xFFFFFFFF), index->AllRids());
  EXPECT_TRUE(index->ProbeRange(4, 2).empty());  // inverted range
  EXPECT_EQ(*index->MinValue(), 1u);
  EXPECT_EQ(*index->MaxValue(), 5u);
}

TEST(SecondaryIndexTest, UnknownColumnFails) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("k", {1}).ok());
  EXPECT_FALSE(SecondaryIndex::Build(table, "nope").ok());
}

// --- Predicate ---

TEST(PredicateTest, BuildersAndToString) {
  auto predicate = And(Equals("region", 3),
                       Not(Or(Equals("status", 1), GreaterEq("amount", 100))));
  EXPECT_EQ(predicate->ToString(),
            "(region = 3 AND NOT (status = 1 OR amount >= 100))");
  EXPECT_FALSE(predicate->is_leaf());
  EXPECT_TRUE(Equals("x", 1)->is_leaf());
  EXPECT_EQ(Between("x", 2, 9)->ToString(), "x BETWEEN 2 AND 9");
  EXPECT_EQ(LessEq("x", 9)->ToString(), "x <= 9");
}

// --- QueryEngine ---

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : table_(MakeOrdersTable(4000, 77)) {
    auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
    EXPECT_TRUE(processor.ok());
    processor_ = *std::move(processor);
    engine_ = std::make_unique<QueryEngine>(&table_, processor_.get());
    EXPECT_TRUE(engine_->BuildIndex("region").ok());
    EXPECT_TRUE(engine_->BuildIndex("status").ok());
    EXPECT_TRUE(engine_->BuildIndex("amount").ok());
  }

  void ExpectMatchesScan(const Predicate& predicate) {
    QueryStats stats;
    auto rids = engine_->Select(predicate, &stats);
    ASSERT_TRUE(rids.ok()) << rids.status();
    EXPECT_EQ(*rids, ScanSelect(table_, predicate)) << predicate.ToString();
  }

  Table table_;
  std::unique_ptr<Processor> processor_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, SingleLeaf) {
  ExpectMatchesScan(*Equals("region", 2));
  ExpectMatchesScan(*Between("amount", 1000, 2000));
  ExpectMatchesScan(*LessEq("amount", 500));
  ExpectMatchesScan(*GreaterEq("amount", 9500));
}

TEST_F(QueryEngineTest, ConjunctionUsesIntersection) {
  QueryStats stats;
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  EXPECT_EQ(stats.index_probes, 2u);
  EXPECT_EQ(stats.set_operations, 1u);
  EXPECT_GT(stats.accelerator_cycles, 0u);
  EXPECT_GT(stats.accelerator_seconds, 0.0);
  ASSERT_EQ(stats.plan.size(), 3u);
  EXPECT_NE(stats.plan[2].find("intersect"), std::string::npos);
}

TEST_F(QueryEngineTest, DisjunctionUsesUnion) {
  QueryStats stats;
  auto predicate = Or(Equals("region", 0), Equals("region", 4));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  EXPECT_EQ(stats.set_operations, 1u);
  EXPECT_NE(stats.plan[2].find("union"), std::string::npos);
}

TEST_F(QueryEngineTest, AndNotUsesDifferenceWithoutComplement) {
  QueryStats stats;
  auto predicate = And(Equals("region", 1), Not(Equals("status", 2)));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  bool used_difference = false;
  for (const std::string& step : stats.plan) {
    used_difference |= step.find("difference") != std::string::npos;
  }
  EXPECT_TRUE(used_difference);
  // Exactly one set operation: A \ B, no complement materialization.
  EXPECT_EQ(stats.set_operations, 1u);
}

TEST_F(QueryEngineTest, TopLevelNotComplements) {
  auto predicate = Not(Equals("region", 3));
  ExpectMatchesScan(*predicate);
}

TEST_F(QueryEngineTest, NestedBooleanStructure) {
  auto predicate =
      And(Or(Equals("region", 0), Equals("region", 1)),
          And(Between("amount", 2000, 8000), Not(Equals("status", 1))));
  ExpectMatchesScan(*predicate);
}

TEST_F(QueryEngineTest, EmptyResults) {
  ExpectMatchesScan(*Equals("region", 99));       // no such value
  ExpectMatchesScan(*And(Equals("region", 99),    // empty AND arm
                         Equals("status", 0)));
  ExpectMatchesScan(*Or(Equals("region", 99), Equals("region", 98)));
}

TEST_F(QueryEngineTest, MissingIndexIsReported) {
  Table extra("extra");
  ASSERT_TRUE(extra.AddColumn("x", {1, 2}).ok());
  QueryEngine engine(&extra, processor_.get());
  auto rids = engine.Select(*Equals("x", 1));
  EXPECT_EQ(rids.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryEngineTest, OrderedValues) {
  QueryStats stats;
  auto predicate = Equals("region", 2);
  auto values = engine_->SelectValuesOrdered(*predicate, "amount", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  // Matches the scan + sort reference.
  std::vector<uint32_t> expected;
  for (Rid rid : ScanSelect(table_, *predicate)) {
    expected.push_back(*table_.Value("amount", rid));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*values, expected);
  EXPECT_EQ(stats.sorts, 1u);
}

TEST_F(QueryEngineTest, ChunkedOrderByBeyondLocalStore) {
  // A predicate matching nearly everything: the ORDER BY input exceeds
  // the 8k-element local-store sort capacity.
  Table big("big");
  Random rng(5);
  std::vector<uint32_t> key(30000);
  std::vector<uint32_t> flag(30000);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = rng.Next32() % 100000;
    flag[i] = static_cast<uint32_t>(rng.Uniform(10) != 0);  // 90% ones
  }
  std::vector<uint32_t> key_copy = key;
  ASSERT_TRUE(big.AddColumn("key", std::move(key)).ok());
  ASSERT_TRUE(big.AddColumn("flag", std::move(flag)).ok());
  QueryEngine engine(&big, processor_.get());
  ASSERT_TRUE(engine.BuildIndex("flag").ok());

  QueryStats stats;
  auto predicate = Equals("flag", 1);
  auto values = engine.SelectValuesOrdered(*predicate, "key", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_GT(stats.sorts, 1u);  // chunked
  EXPECT_TRUE(std::is_sorted(values->begin(), values->end()));
  std::vector<uint32_t> expected;
  for (Rid rid = 0; rid < big.num_rows(); ++rid) {
    if (*big.Value("flag", rid) == 1) expected.push_back(key_copy[rid]);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*values, expected);
}

TEST_F(QueryEngineTest, RandomizedPredicatesMatchScan) {
  Random rng(123);
  for (int trial = 0; trial < 25; ++trial) {
    // Random depth-2 boolean structure.
    auto leaf = [&rng]() -> PredicatePtr {
      switch (rng.Uniform(3)) {
        case 0:
          return Equals("region", static_cast<uint32_t>(rng.Uniform(6)));
        case 1:
          return Equals("status", static_cast<uint32_t>(rng.Uniform(4)));
        default: {
          const auto lo = static_cast<uint32_t>(rng.Uniform(9000));
          return Between("amount", lo,
                         lo + static_cast<uint32_t>(rng.Uniform(4000)));
        }
      }
    };
    auto maybe_not = [&rng, &leaf]() {
      auto p = leaf();
      return rng.Bernoulli(0.3) ? Not(std::move(p)) : std::move(p);
    };
    PredicatePtr predicate;
    if (rng.Bernoulli(0.5)) {
      predicate = And(maybe_not(), Or(maybe_not(), maybe_not()));
    } else {
      predicate = Or(And(maybe_not(), maybe_not()), maybe_not());
    }
    QueryStats stats;
    auto rids = engine_->Select(*predicate, &stats);
    ASSERT_TRUE(rids.ok()) << predicate->ToString() << ": " << rids.status();
    ASSERT_EQ(*rids, ScanSelect(table_, *predicate))
        << "trial " << trial << ": " << predicate->ToString();
  }
}

TEST_F(QueryEngineTest, InListPredicate) {
  auto predicate = In("region", {0, 2, 4});
  ExpectMatchesScan(*predicate);
  // Single-value IN degenerates to an equality leaf.
  auto single = In("region", {3});
  EXPECT_TRUE(single->is_leaf());
  ExpectMatchesScan(*single);
}

TEST_F(QueryEngineTest, JoinKeysMatchesReference) {
  // Build a second table sharing ~half the key domain.
  Table customers("customers");
  Random rng(31);
  std::vector<uint32_t> left_keys;
  std::vector<uint32_t> right_keys;
  uint32_t next = 0;
  for (int i = 0; i < 3000; ++i) {
    next += 1 + static_cast<uint32_t>(rng.Uniform(4));
    if (rng.Bernoulli(0.7)) left_keys.push_back(next);
    if (rng.Bernoulli(0.7)) right_keys.push_back(next);
  }
  // Shuffle: JoinKeys must sort them itself.
  for (size_t i = left_keys.size(); i > 1; --i) {
    std::swap(left_keys[i - 1], left_keys[rng.Uniform(i)]);
  }
  for (size_t i = right_keys.size(); i > 1; --i) {
    std::swap(right_keys[i - 1], right_keys[rng.Uniform(i)]);
  }
  std::vector<uint32_t> left_sorted = left_keys;
  std::vector<uint32_t> right_sorted = right_keys;
  std::sort(left_sorted.begin(), left_sorted.end());
  std::sort(right_sorted.begin(), right_sorted.end());
  std::vector<uint32_t> expected;
  std::set_intersection(left_sorted.begin(), left_sorted.end(),
                        right_sorted.begin(), right_sorted.end(),
                        std::back_inserter(expected));

  Table orders2("orders2");
  ASSERT_TRUE(orders2.AddColumn("cust_key", std::move(left_keys)).ok());
  ASSERT_TRUE(customers.AddColumn("key", std::move(right_keys)).ok());
  QueryEngine engine(&orders2, processor_.get());
  QueryStats stats;
  auto keys = engine.JoinKeys("cust_key", customers, "key", &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(*keys, expected);
  EXPECT_GE(stats.sorts, 2u);
  EXPECT_GE(stats.set_operations, 1u);
}

TEST_F(QueryEngineTest, JoinKeysRejectsDuplicateKeys) {
  Table left("left");
  Table right("right");
  ASSERT_TRUE(left.AddColumn("k", {1, 2, 2, 3}).ok());
  ASSERT_TRUE(right.AddColumn("k", {1, 2, 3, 4}).ok());
  QueryEngine engine(&left, processor_.get());
  EXPECT_EQ(engine.JoinKeys("k", right, "k").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, UpdateColumnBumpsVersionAndRebuildsStaleIndex) {
  ASSERT_EQ(*table_.ColumnVersion("region"), 1u);

  Random rng(321);
  std::vector<uint32_t> fresh(table_.num_rows());
  for (auto& value : fresh) value = static_cast<uint32_t>(rng.Uniform(5));
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(fresh)).ok());
  EXPECT_EQ(*table_.ColumnVersion("region"), 2u);
  EXPECT_EQ(*table_.ColumnVersion("status"), 1u);

  // The engine still holds the index built against version 1; Select
  // must notice the stale version and rebuild before probing.
  auto predicate = And(Equals("region", 2), Equals("status", 1));
  auto rids = engine_->Select(*predicate);
  ASSERT_TRUE(rids.ok()) << rids.status();
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));

  // A second mutation while queries interleave with it: each Select
  // after the update sees the new values, never the old index.
  std::vector<uint32_t> again(table_.num_rows(), 2);
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(again)).ok());
  EXPECT_EQ(*table_.ColumnVersion("region"), 3u);
  auto rids2 = engine_->Select(*predicate);
  ASSERT_TRUE(rids2.ok()) << rids2.status();
  EXPECT_EQ(*rids2, ScanSelect(table_, *predicate));
}

// Regression: retry accounting used to be wired only into the EIS
// dispatch path, so planner-routed host kernels (galloping / SIMD
// merge) silently ignored SetMaxAttempts and reported retries == 0
// even when the fault hook failed their first attempt.
TEST_F(QueryEngineTest, RetryAccountingIsRouteIndependent) {
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  const auto expected = ScanSelect(table_, *predicate);

  for (const Route route :
       {Route::kEisMerge, Route::kGalloping, Route::kSimdMerge}) {
    QueryEngine engine(&table_, processor_.get());
    ASSERT_TRUE(engine.BuildIndex("region").ok());
    ASSERT_TRUE(engine.BuildIndex("status").ok());
    PlannerOptions options;
    options.force_route = route;
    engine.EnableAdaptivePlanner(options);
    engine.SetMaxAttempts(2);
    // Fail exactly the first attempt of every set operation; the retry
    // budget must cover it regardless of which kernel the planner
    // picked.
    engine.SetAttemptFaultHook([](std::string_view, int attempt) {
      return attempt == 0 ? Status::Unavailable("injected") : Status::Ok();
    });

    QueryStats stats;
    auto rids = engine.Select(*predicate, &stats);
    ASSERT_TRUE(rids.ok()) << RouteName(route) << ": " << rids.status();
    EXPECT_EQ(*rids, expected) << RouteName(route);
    EXPECT_EQ(stats.set_operations, 1u) << RouteName(route);
    EXPECT_EQ(stats.retries, 1u) << RouteName(route);

    // With attempts capped at 1 the same schedule must surface the
    // injected failure instead of silently succeeding.
    engine.SetMaxAttempts(1);
    auto failed = engine.Select(*predicate);
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
        << RouteName(route);

    // A step that never succeeds still charges its re-executions, to
    // QueryStats and to the registry alike.
    engine.SetMaxAttempts(3);
    engine.SetAttemptFaultHook([](std::string_view, int) {
      return Status::Unavailable("injected");
    });
    obs::Counter* retries_total =
        obs::MetricsRegistry::Global().GetCounter("dba_query_retries_total");
    const uint64_t retries_before = retries_total->Value();
    QueryStats exhausted_stats;
    auto exhausted = engine.Select(*predicate, &exhausted_stats);
    EXPECT_EQ(exhausted.status().code(), StatusCode::kUnavailable)
        << RouteName(route);
    EXPECT_EQ(exhausted_stats.retries, 2u) << RouteName(route);
    EXPECT_EQ(retries_total->Value() - retries_before, 2u)
        << RouteName(route);
  }
}

// Regression: the ORDER BY sort ran outside the retry budget, so a
// watchdog trip on its first attempt failed the query even with
// attempts to spare (JoinKeys' column sorts already retried).
TEST_F(QueryEngineTest, OrderBySortRetriesUnderTheWatchdog) {
  auto predicate = Equals("region", 2);
  QueryStats clean;
  auto expected = engine_->SelectValuesOrdered(*predicate, "amount", &clean);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(clean.set_operations, 0u);  // the sort is every cycle
  ASSERT_EQ(clean.sorts, 1u);

  QueryEngine engine(&table_, processor_.get());
  ASSERT_TRUE(engine.BuildIndex("region").ok());
  RunSettings settings;
  settings.max_cycles = clean.accelerator_cycles * 2 / 3;
  engine.SetRunSettings(settings);
  engine.SetMaxAttempts(4);
  QueryStats stats;
  auto values = engine.SelectValuesOrdered(*predicate, "amount", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, *expected);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.sorts, 1u);
  // The failed attempt is noted in the plan but charges no cycles.
  EXPECT_EQ(stats.accelerator_cycles, clean.accelerator_cycles);
  ASSERT_FALSE(stats.plan.empty());
  EXPECT_EQ(stats.plan.size(), clean.plan.size() + 1);
  EXPECT_EQ(stats.plan[1].rfind("retry sort of ", 0), 0u) << stats.plan[1];

  engine.SetMaxAttempts(1);
  EXPECT_EQ(engine.SelectValuesOrdered(*predicate, "amount").status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(QueryEngineTest, WorksOnScalarConfigurationToo) {
  auto mini = Processor::Create(ProcessorKind::k108Mini);
  ASSERT_TRUE(mini.ok());
  QueryEngine engine(&table_, mini->get());
  ASSERT_TRUE(engine.BuildIndex("region").ok());
  ASSERT_TRUE(engine.BuildIndex("status").ok());
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  auto rids = engine.Select(*predicate);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
}

}  // namespace
}  // namespace dba::query
