#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/galloping_baseline.h"
#include "baseline/scalar_baseline.h"
#include "common/random.h"
#include "core/workload.h"
#include "obs/metrics/metrics.h"
#include "query/engine.h"
#include "query/partition_index.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/table.h"

namespace dba::query {
namespace {

/// Fixed constants (no calibration run) so every routing decision in
/// this suite is deterministic and computable by hand.
CostModel TestCostModel() {
  CostModel model;
  model.eis_setup_ns = 2000.0;
  model.eis_ns_per_element = 1.0;
  model.gallop_ns_per_probe = 8.0;
  model.simd_ns_per_element = 0.8;
  model.partition_probe_ns = 6.0;
  model.partition_build_ns_per_element = 2.0;
  model.decision_ns = 50.0;
  return model;
}

PlannerOptions TestPlannerOptions() {
  PlannerOptions options;
  options.cost_model = TestCostModel();
  return options;
}

// --- PartitionIndex ---

TEST(PartitionIndexTest, IntersectMatchesScalarAcrossShapes) {
  for (uint32_t indexed : {1u, 255u, 256u, 257u, 5000u, 70000u}) {
    for (double selectivity : {0.0, 0.4, 1.0}) {
      auto pair = GenerateSetPair(std::min(indexed, 300u), indexed,
                                  selectivity, 11 + indexed);
      ASSERT_TRUE(pair.ok());
      const PartitionIndex index = PartitionIndex::Build(pair->b);
      EXPECT_EQ(index.size(), pair->b.size());
      EXPECT_EQ(index.Intersect(pair->a),
                baseline::ScalarIntersect(pair->a, pair->b))
          << "indexed " << indexed << " selectivity " << selectivity;
    }
  }
}

TEST(PartitionIndexTest, ContainsAndEmpty) {
  const PartitionIndex empty = PartitionIndex::Build({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_TRUE(empty.Intersect(std::vector<uint32_t>{1, 2}).empty());

  const std::vector<uint32_t> values = {2, 7, 100, 4096, 1u << 30};
  const PartitionIndex index = PartitionIndex::Build(values);
  for (uint32_t v : values) EXPECT_TRUE(index.Contains(v)) << v;
  for (uint32_t v : {0u, 3u, 99u, 101u, 4097u, (1u << 30) + 1}) {
    EXPECT_FALSE(index.Contains(v)) << v;
  }
}

TEST(PartitionIndexTest, DenseDomainGetsMultiPartitionStructure) {
  std::vector<uint32_t> values(10000);
  std::iota(values.begin(), values.end(), 5u);
  const PartitionIndex index = PartitionIndex::Build(values);
  EXPECT_EQ(index.num_partitions(),
            (values.size() + PartitionIndex::kPartitionWidth - 1) /
                PartitionIndex::kPartitionWidth);
  EXPECT_GT(index.directory_size(), 1u);
  std::vector<uint32_t> probes = {0, 5, 17, 9000, 10004, 10005, 20000};
  EXPECT_EQ(index.Intersect(probes),
            baseline::ScalarIntersect(probes, values));
}

// --- PartitionSavingsMeter ---

TEST(SavingsMeterTest, TripsExactlyAtPayback) {
  PartitionSavingsMeter meter;
  // Threshold = 2.0 * 1000; each miss saves 600 -> trips on miss 4.
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_TRUE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_EQ(meter.misses_recorded(), 4u);
  EXPECT_DOUBLE_EQ(meter.missed_savings_ns(), 2400.0);
  meter.ChargeBuild(1000);
  EXPECT_DOUBLE_EQ(meter.missed_savings_ns(), 1400.0);
  // Non-positive savings are ignored entirely.
  EXPECT_FALSE(meter.RecordMiss(0, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(-5, 1000, 2.0));
  EXPECT_EQ(meter.misses_recorded(), 4u);
}

// --- Planner decisions ---

TEST(PlannerTest, RoutesFollowCostModel) {
  Planner planner(TestPlannerOptions());
  // Heavy skew: galloping's log-depth curve wins.
  EXPECT_EQ(planner.Plan(64, 65536, false).route, Route::kGalloping);
  // With an index available the probe route undercuts everything.
  EXPECT_EQ(planner.Plan(64, 65536, true).route, Route::kPartitionProbe);
  // Balanced sets: SIMD merge beats EIS setup+stream at these constants.
  EXPECT_EQ(planner.Plan(4096, 4096, false).route, Route::kSimdMerge);
  // Make host merging expensive: the EIS datapath wins balanced sets.
  PlannerOptions eis_friendly = TestPlannerOptions();
  eis_friendly.cost_model->simd_ns_per_element = 2.0;
  Planner eis_planner(eis_friendly);
  EXPECT_EQ(eis_planner.Plan(4096, 4096, false).route, Route::kEisMerge);
}

TEST(PlannerTest, ForcedRouteAlwaysWins) {
  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions options = TestPlannerOptions();
    options.force_route = static_cast<Route>(r);
    Planner planner(options);
    const PlanDecision decision = planner.Plan(100, 100000, false);
    EXPECT_TRUE(decision.forced);
    EXPECT_EQ(decision.route, static_cast<Route>(r));
  }
}

TEST(PlannerTest, PartitionRouteNeedsAnIndex) {
  PlannerOptions options = TestPlannerOptions();
  Planner planner(options);
  EXPECT_NE(planner.Plan(64, 65536, false).route, Route::kPartitionProbe);
  options.allow_partition_index = false;
  Planner no_partition(options);
  EXPECT_NE(no_partition.Plan(64, 65536, true).route,
            Route::kPartitionProbe);
}

TEST(PlannerTest, HostPlanChargesTheTransientIndexBuild) {
  // Degraded mode's choice: SIMD merge unless galloping is strictly
  // cheaper, then the partition probe only if it beats both even after
  // building its index over the larger set.
  PlannerOptions options;
  options.cost_model = DefaultCostModel();
  const Planner planner(options);
  const CostModel& model = *options.cost_model;
  for (size_t a = 1; a <= (size_t{1} << 20); a = a * 3 + 1) {
    for (size_t b = 1; b <= (size_t{1} << 20); b = b * 5 + 2) {
      Route expected = Route::kSimdMerge;
      double best = model.SimdMergeNs(a, b);
      if (model.GallopingNs(a, b) < best) {
        expected = Route::kGalloping;
        best = model.GallopingNs(a, b);
      }
      if (model.PartitionProbeNs(a, b) +
              model.PartitionBuildNs(std::max(a, b)) <
          best) {
        expected = Route::kPartitionProbe;
      }
      EXPECT_EQ(planner.PlanHost(a, b).route, expected) << a << " x " << b;
    }
  }
  // A probe that is nearly free wins once the build is cheap too.
  options.cost_model->partition_probe_ns = 0.001;
  options.cost_model->partition_build_ns_per_element = 0.001;
  EXPECT_EQ(Planner(options).PlanHost(64, 65536).route,
            Route::kPartitionProbe);
}

TEST(PlannerTest, RouteNamesRoundTrip) {
  for (size_t r = 0; r < kNumRoutes; ++r) {
    const Route route = static_cast<Route>(r);
    auto parsed = ParseRoute(RouteName(route));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, route);
  }
  EXPECT_FALSE(ParseRoute("warp_drive").ok());
}

TEST(PlannerTest, CalibratedModelIsSane) {
  const CostModel& model = Planner::Calibrated();
  EXPECT_GT(model.eis_ns_per_element, 0.0);
  EXPECT_GT(model.simd_ns_per_element, 0.0);
  EXPECT_GT(model.gallop_ns_per_probe, 0.0);
  EXPECT_GT(model.partition_probe_ns, 0.0);
  EXPECT_GT(model.partition_build_ns_per_element, 0.0);
  // The same process-wide model every time.
  EXPECT_EQ(&Planner::Calibrated(), &model);
}

// --- Route equivalence: every route, byte-identical to scalar ---

TEST(RouteEquivalenceTest, AllRoutesMatchScalarAcrossGrid) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok());
  for (uint32_t small : {16u, 500u}) {
    for (uint32_t skew : {1u, 16u, 256u}) {
      for (double selectivity : {0.0, 0.5, 1.0}) {
        auto pair = GenerateSetPair(small, small * skew, selectivity,
                                    1000 + small + skew);
        ASSERT_TRUE(pair.ok());
        const std::vector<uint32_t> expected =
            baseline::ScalarIntersect(pair->a, pair->b);
        for (size_t r = 0; r < kNumRoutes; ++r) {
          const Route route = static_cast<Route>(r);
          auto run = RunIntersectRoute(route, pair->a, pair->b,
                                       processor->get());
          ASSERT_TRUE(run.ok()) << RouteName(route);
          EXPECT_EQ(run->result, expected)
              << RouteName(route) << " small=" << small << " skew=" << skew
              << " selectivity=" << selectivity;
        }
      }
    }
  }
}

// --- Engine integration ---

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

class PlannerEngineTest : public ::testing::Test {
 protected:
  PlannerEngineTest() : table_(MakeOrdersTable(4000, 77)) {
    auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
    EXPECT_TRUE(processor.ok());
    processor_ = *std::move(processor);
  }

  std::unique_ptr<QueryEngine> MakeEngine() {
    auto engine = std::make_unique<QueryEngine>(&table_, processor_.get());
    EXPECT_TRUE(engine->BuildIndex("region").ok());
    EXPECT_TRUE(engine->BuildIndex("status").ok());
    EXPECT_TRUE(engine->BuildIndex("amount").ok());
    return engine;
  }

  std::vector<PredicatePtr> TestPredicates() {
    std::vector<PredicatePtr> predicates;
    predicates.push_back(And(Equals("region", 1), LessEq("amount", 120)));
    predicates.push_back(And(Equals("region", 2),
                             And(Equals("status", 0),
                                 Between("amount", 1000, 9000))));
    predicates.push_back(Or(And(Equals("region", 0), Equals("status", 1)),
                            Between("amount", 0, 50)));
    predicates.push_back(And(Between("amount", 0, 9999),
                             Not(Equals("status", 2))));
    return predicates;
  }

  Table table_;
  std::unique_ptr<Processor> processor_;
};

TEST_F(PlannerEngineTest, PlannerKeepsSelectResultsIdenticalToAlwaysEis) {
  auto baseline_engine = MakeEngine();
  auto planned_engine = MakeEngine();
  planned_engine->EnableAdaptivePlanner(TestPlannerOptions());
  uint32_t planned_total = 0;
  for (const PredicatePtr& predicate : TestPredicates()) {
    QueryStats baseline_stats;
    QueryStats planned_stats;
    auto expected = baseline_engine->Select(*predicate, &baseline_stats);
    auto actual = planned_engine->Select(*predicate, &planned_stats);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*actual, *expected) << predicate->ToString();
    planned_total += planned_stats.planned_ops;
    // Every planned op lands in exactly one route bucket.
    uint32_t routed = 0;
    for (uint32_t count : planned_stats.route_counts) routed += count;
    EXPECT_EQ(routed, planned_stats.planned_ops);
  }
  EXPECT_GT(planned_total, 0u);
}

TEST_F(PlannerEngineTest, ForcedRoutesMatchPlannerChoice) {
  auto chosen_engine = MakeEngine();
  chosen_engine->EnableAdaptivePlanner(TestPlannerOptions());
  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions options = TestPlannerOptions();
    options.force_route = static_cast<Route>(r);
    auto forced_engine = MakeEngine();
    forced_engine->EnableAdaptivePlanner(options);
    for (const PredicatePtr& predicate : TestPredicates()) {
      QueryStats forced_stats;
      auto expected = chosen_engine->Select(*predicate);
      auto actual = forced_engine->Select(*predicate, &forced_stats);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(*actual, *expected)
          << RouteName(static_cast<Route>(r)) << " " << predicate->ToString();
      // Forced engines route every planned op to the forced bucket.
      EXPECT_EQ(forced_stats.route_counts[r], forced_stats.planned_ops);
    }
  }
}

TEST_F(PlannerEngineTest, LazyIndexBuildsOnlyAfterPayback) {
  auto engine = MakeEngine();
  PlannerOptions options = TestPlannerOptions();
  options.payback_factor = 2.0;
  engine->EnableAdaptivePlanner(options);

  // region = 1 yields ~800 RIDs (the indexable large operand);
  // amount <= 120 yields a few dozen (the probe side).
  const auto predicate = And(Equals("region", 1), LessEq("amount", 120));
  QueryStats probe_stats;
  auto small = engine->Select(*LessEq("amount", 120), &probe_stats);
  auto large = engine->Select(*Equals("region", 1), &probe_stats);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());

  // Expected miss accounting, by hand from the injected cost model.
  const CostModel model = TestCostModel();
  const double chosen =
      Planner(options).Plan(small->size(), large->size(), false).chosen_ns;
  const double savings = chosen -
                         model.PartitionProbeNs(small->size(), large->size()) -
                         model.decision_ns;
  ASSERT_GT(savings, 0.0);
  const double build_cost = model.PartitionBuildNs(large->size());
  const auto misses_needed = static_cast<uint32_t>(
      std::ceil(options.payback_factor * build_cost / savings));
  ASSERT_GE(misses_needed, 2u) << "test wants a multi-query payback";

  QueryStats stats;
  for (uint32_t i = 0; i + 1 < misses_needed; ++i) {
    ASSERT_TRUE(engine->Select(*predicate, &stats).ok());
    EXPECT_EQ(stats.partition_index_builds, 0u) << "miss " << i;
  }
  EXPECT_EQ(engine->partition_state("region").indexes_built, 0u);

  // The payback miss: the index materializes and serves this very query.
  ASSERT_TRUE(engine->Select(*predicate, &stats).ok());
  EXPECT_EQ(stats.partition_index_builds, 1u);
  const ColumnIndexState state = engine->partition_state("region");
  EXPECT_EQ(state.indexes_built, 1u);
  EXPECT_EQ(state.misses_recorded, misses_needed);
  EXPECT_EQ(state.indexed_entries, large->size());
  EXPECT_GT(stats.route_counts[static_cast<size_t>(Route::kPartitionProbe)],
            0u);

  // Subsequent identical queries reuse the cached index: no more builds.
  QueryStats after;
  ASSERT_TRUE(engine->Select(*predicate, &after).ok());
  EXPECT_EQ(after.partition_index_builds, 0u);
  EXPECT_EQ(after.route_counts[static_cast<size_t>(Route::kPartitionProbe)],
            after.planned_ops);
}

TEST_F(PlannerEngineTest, SameSeedReplayIsDeterministic) {
  auto run_once = [this] {
    auto engine = MakeEngine();
    engine->EnableAdaptivePlanner(TestPlannerOptions());
    QueryStats stats;
    for (const PredicatePtr& predicate : TestPredicates()) {
      auto rids = engine->Select(*predicate, &stats);
      EXPECT_TRUE(rids.ok());
    }
    return stats;
  };
  const QueryStats first = run_once();
  const QueryStats second = run_once();
  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.route_counts, second.route_counts);
  EXPECT_EQ(first.planned_ops, second.planned_ops);
  EXPECT_EQ(first.partition_index_builds, second.partition_index_builds);
  EXPECT_EQ(first.accelerator_cycles, second.accelerator_cycles);
  EXPECT_EQ(first.elements_processed, second.elements_processed);
}

TEST_F(PlannerEngineTest, MetricsRouteCountersMatchQueryStats) {
  auto snapshot_routes = [] {
    std::array<uint64_t, kNumRoutes> counts{};
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    for (size_t r = 0; r < kNumRoutes; ++r) {
      const std::string identity = obs::InstrumentIdentity(
          "dba_query_plan_total", "route", RouteName(static_cast<Route>(r)));
      auto it = snapshot.counters.find(identity);
      counts[r] = it == snapshot.counters.end() ? 0 : it->second;
    }
    return counts;
  };
  // The unlabelled QueryStats counters, in this order: set_operations,
  // sorts, retries, partition_index_builds.
  const std::array<std::string, 4> kCounterNames = {
      "dba_query_setops_total", "dba_query_sorts_total",
      "dba_query_retries_total", "dba_query_partition_index_builds_total"};
  auto snapshot_counters = [&] {
    std::array<uint64_t, 4> counts{};
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    for (size_t i = 0; i < kCounterNames.size(); ++i) {
      auto it = snapshot.counters.find(kCounterNames[i]);
      counts[i] = it == snapshot.counters.end() ? 0 : it->second;
    }
    return counts;
  };

  auto engine = MakeEngine();
  engine->EnableAdaptivePlanner(TestPlannerOptions());
  // Fail the first attempt of every step so retries are counted too.
  engine->SetMaxAttempts(2);
  engine->SetAttemptFaultHook([](std::string_view, int attempt) {
    return attempt == 0 ? Status::Unavailable("injected") : Status::Ok();
  });
  const auto before = snapshot_routes();
  const auto counters_before = snapshot_counters();
  QueryStats stats;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const PredicatePtr& predicate : TestPredicates()) {
      ASSERT_TRUE(engine->Select(*predicate, &stats).ok());
    }
  }
  ASSERT_TRUE(
      engine->SelectValuesOrdered(*TestPredicates()[0], "amount", &stats)
          .ok());
  const auto after = snapshot_routes();
  const auto counters_after = snapshot_counters();
  for (size_t r = 0; r < kNumRoutes; ++r) {
    EXPECT_EQ(after[r] - before[r], stats.route_counts[r])
        << RouteName(static_cast<Route>(r));
  }
  const std::array<uint32_t, 4> expected = {
      stats.set_operations, stats.sorts, stats.retries,
      stats.partition_index_builds};
  for (size_t i = 0; i < kCounterNames.size(); ++i) {
    EXPECT_EQ(counters_after[i] - counters_before[i], expected[i])
        << kCounterNames[i];
  }
  EXPECT_GT(stats.sorts, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST_F(PlannerEngineTest, PlannedJoinKeysMatchesAlwaysEis) {
  // JoinKeys' final intersection routes through the planner; the keys
  // must match the always-EIS engine's.
  std::vector<uint32_t> keys_a(1500);
  std::vector<uint32_t> keys_b(900);
  std::iota(keys_a.begin(), keys_a.end(), 10u);
  for (size_t i = 0; i < keys_b.size(); ++i) {
    keys_b[i] = static_cast<uint32_t>(10 + 2 * i);
  }
  Table orders("orders_j");
  Table customers("customers_j");
  ASSERT_TRUE(orders.AddColumn("cust_key", std::move(keys_a)).ok());
  ASSERT_TRUE(customers.AddColumn("key", std::move(keys_b)).ok());

  QueryEngine always_eis(&orders, processor_.get());
  auto expected = always_eis.JoinKeys("cust_key", customers, "key");
  ASSERT_TRUE(expected.ok()) << expected.status();

  QueryEngine planned(&orders, processor_.get());
  planned.EnableAdaptivePlanner(TestPlannerOptions());
  QueryStats stats;
  auto keys = planned.JoinKeys("cust_key", customers, "key", &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(*keys, *expected);
  EXPECT_EQ(stats.planned_ops, 1u);
}

TEST_F(PlannerEngineTest, DisableRestoresAlwaysEis) {
  auto engine = MakeEngine();
  engine->EnableAdaptivePlanner(TestPlannerOptions());
  EXPECT_TRUE(engine->planner_enabled());
  engine->DisableAdaptivePlanner();
  EXPECT_FALSE(engine->planner_enabled());
  QueryStats stats;
  auto rids = engine->Select(*And(Equals("region", 1), LessEq("amount", 120)),
                             &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(stats.planned_ops, 0u);
  EXPECT_GT(stats.accelerator_cycles, 0u);
}

}  // namespace
}  // namespace dba::query
