// Unit tests for the service resilience layer (service/resilience.h)
// and its integration seams: token-bucket arithmetic, deadline-aware
// retry budgets, circuit-breaker transitions under explicit timestamps,
// host-fallback bit-identity against the serial reference, the board's
// recovery deadline budget, typed rate-limit sheds, breaker-open
// shedding with fallback disabled, and ServiceConfig::Validate
// rejections for every new knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "service/query_service.h"
#include "service/resilience.h"
#include "service/service_clock.h"
#include "shared/service_test_util.h"
#include "system/board.h"

namespace dba::service {
namespace {

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, DefaultIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 5.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_TRUE(bucket.TryAcquire(123));
}

TEST(TokenBucket, BurstThenDry) {
  // 1000 req/s -> one token per ms; burst 3 -> three immediate admits.
  TokenBucket bucket(1000.0, 3.0);
  EXPECT_EQ(bucket.emission_interval_ns(), 1'000'000u);
  EXPECT_EQ(bucket.burst_tolerance_ns(), 2'000'000u);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  // One emission interval later exactly one token is back.
  EXPECT_TRUE(bucket.TryAcquire(1'000'000));
  EXPECT_FALSE(bucket.TryAcquire(1'000'000));
}

TEST(TokenBucket, SustainedRateAdmitsEveryInterval) {
  TokenBucket bucket(1000.0, 1.0);
  uint64_t now = 0;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(now)) << "tick " << i;
    EXPECT_FALSE(bucket.TryAcquire(now)) << "tick " << i;
    now += 1'000'000;
  }
}

TEST(TokenBucket, IdleCreditDoesNotExceedBurst) {
  TokenBucket bucket(1000.0, 2.0);
  // A long idle period must not bank more than `burst` tokens.
  const uint64_t later = 1'000'000'000;
  EXPECT_TRUE(bucket.TryAcquire(later));
  EXPECT_TRUE(bucket.TryAcquire(later));
  EXPECT_FALSE(bucket.TryAcquire(later));
}

// --- RetryBudget -----------------------------------------------------------

TEST(RetryBudget, ExponentialBackoffWithBoundedJitter) {
  RetryConfig config;
  config.max_retries = 3;
  config.backoff_base_ns = 1000;
  config.backoff_cap_ns = 1'000'000;
  RetryBudget budget(config, /*deadline_ns=*/0, /*key=*/7);
  uint64_t expected_base = 1000;
  for (int k = 0; k < 3; ++k) {
    const std::optional<uint64_t> delay = budget.NextDelayNs(0);
    ASSERT_TRUE(delay.has_value()) << "retry " << k;
    EXPECT_GE(*delay, expected_base);
    EXPECT_LE(*delay, expected_base + expected_base / 2);
    expected_base <<= 1;
  }
  EXPECT_FALSE(budget.NextDelayNs(0).has_value()) << "budget exhausted";
  EXPECT_EQ(budget.retries_used(), 3);
}

TEST(RetryBudget, DeterministicPerKey) {
  RetryConfig config;
  config.max_retries = 4;
  RetryBudget a(config, 0, 42);
  RetryBudget b(config, 0, 42);
  RetryBudget c(config, 0, 43);
  bool any_difference = false;
  for (int k = 0; k < 4; ++k) {
    const auto da = a.NextDelayNs(0);
    const auto db = b.NextDelayNs(0);
    const auto dc = c.NextDelayNs(0);
    ASSERT_TRUE(da && db && dc);
    EXPECT_EQ(*da, *db) << "same key must replay identically";
    any_difference = any_difference || *da != *dc;
  }
  EXPECT_TRUE(any_difference) << "different keys should decorrelate";
}

TEST(RetryBudget, RefusesRetryPastDeadline) {
  RetryConfig config;
  config.max_retries = 5;
  config.backoff_base_ns = 1000;
  // Deadline 500 ns out: even the first (>= 1000 ns) backoff overshoots.
  RetryBudget budget(config, /*deadline_ns=*/10'500, /*key=*/1);
  EXPECT_FALSE(budget.NextDelayNs(10'000).has_value());
  EXPECT_EQ(budget.retries_used(), 0);
  // With room to spare the same budget grants the retry.
  RetryBudget roomy(config, /*deadline_ns=*/20'000, /*key=*/1);
  EXPECT_TRUE(roomy.NextDelayNs(10'000).has_value());
}

TEST(RetryBudget, CapBoundsDelay) {
  RetryConfig config;
  config.max_retries = 16;
  config.backoff_base_ns = 1'000'000;
  config.backoff_cap_ns = 4'000'000;
  RetryBudget budget(config, 0, 9);
  for (int k = 0; k < 16; ++k) {
    const auto delay = budget.NextDelayNs(0);
    ASSERT_TRUE(delay.has_value());
    EXPECT_LE(*delay, config.backoff_cap_ns);
  }
}

// --- CircuitBreaker --------------------------------------------------------

BreakerConfig TestBreaker() {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.open_duration_ns = 1000;
  config.half_open_probes = 2;
  config.probe_successes_to_close = 2;
  return config;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker breaker(TestBreaker());
  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  breaker.RecordFailure(10);
  EXPECT_EQ(breaker.StateAt(10), BreakerState::kClosed);
  // A success resets the streak.
  breaker.RecordSuccess(20);
  breaker.RecordFailure(30);
  EXPECT_EQ(breaker.StateAt(30), BreakerState::kClosed);
  breaker.RecordFailure(40);
  EXPECT_EQ(breaker.StateAt(40), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreaker, CoolDownThenProbeLadderCloses) {
  CircuitBreaker breaker(TestBreaker());
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.StateAt(0), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(999), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowProbe(999));
  // Cool-down elapsed: half-open grants exactly half_open_probes slots.
  EXPECT_EQ(breaker.StateAt(1000), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowProbe(1000));
  EXPECT_TRUE(breaker.AllowProbe(1001));
  EXPECT_FALSE(breaker.AllowProbe(1002));
  // probe_successes_to_close = 2: first success keeps it half-open.
  breaker.RecordSuccess(1003);
  EXPECT_EQ(breaker.StateAt(1003), BreakerState::kHalfOpen);
  breaker.RecordSuccess(1004);
  EXPECT_EQ(breaker.StateAt(1004), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  // closed->open, open->half-open, half-open->closed.
  EXPECT_EQ(breaker.transitions(), 3u);
}

TEST(CircuitBreaker, FailedProbeReArmsCoolDown) {
  CircuitBreaker breaker(TestBreaker());
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.StateAt(1000), BreakerState::kHalfOpen);
  ASSERT_TRUE(breaker.AllowProbe(1000));
  breaker.RecordFailure(1100);
  EXPECT_EQ(breaker.StateAt(1100), BreakerState::kOpen);
  // The cool-down restarts from the failed probe, not the first trip.
  EXPECT_EQ(breaker.StateAt(2099), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(2100), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, QuarantineFractionTripsImmediately) {
  BreakerConfig config = TestBreaker();
  config.quarantine_fraction = 0.5;
  CircuitBreaker breaker(config);
  system::RecoveryTelemetry telemetry;
  telemetry.quarantined_cores = {0, 1};
  // A *successful* but degraded run on 2/4 quarantined cores trips.
  breaker.OnBoardResult(true, &telemetry, /*num_cores=*/4, /*now_ns=*/5);
  EXPECT_EQ(breaker.StateAt(5), BreakerState::kOpen);
}

TEST(CircuitBreaker, RetryAlarmCountsAsFailureSignal) {
  BreakerConfig config = TestBreaker();
  config.retry_alarm = 8;
  CircuitBreaker breaker(config);
  system::RecoveryTelemetry telemetry;
  telemetry.retries = 8;
  breaker.OnBoardResult(true, &telemetry, 4, 0);
  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
  breaker.OnBoardResult(true, &telemetry, 4, 1);
  EXPECT_EQ(breaker.StateAt(1), BreakerState::kOpen);
}

TEST(CircuitBreaker, DisabledNeverTrips) {
  BreakerConfig config = TestBreaker();
  config.enabled = false;
  CircuitBreaker breaker(config);
  for (uint64_t i = 0; i < 10; ++i) breaker.RecordFailure(i);
  EXPECT_EQ(breaker.StateAt(100), BreakerState::kClosed);
  EXPECT_EQ(breaker.transitions(), 0u);
}

// --- Host fallback ---------------------------------------------------------

TEST(HostFallback, BitIdenticalToSerialReference) {
  test::SerialReference reference("orders", 64, 7);
  Random rng(2026);
  const SetOp ops[] = {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference,
                       SetOp::kMerge};
  for (int trial = 0; trial < 200; ++trial) {
    const SetOp op = ops[trial % 4];
    const auto a = test::MakeSortedSet(rng, 96, 8192);
    const auto b = test::MakeSortedSet(rng, 96, 8192);
    auto expected = reference.Direct(op, a, b);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto fallback = RunHostFallbackOp(op, a, b);
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    EXPECT_EQ(*fallback, *expected) << "trial " << trial;
  }
}

TEST(HostFallback, DegenerateEmptyOperandsMatchBoardSemantics) {
  const std::vector<uint32_t> some = {3, 7, 9};
  const std::vector<uint32_t> none;
  EXPECT_EQ(*RunHostFallbackOp(SetOp::kIntersect, some, none),
            std::vector<uint32_t>{});
  EXPECT_EQ(*RunHostFallbackOp(SetOp::kUnion, none, some), some);
  EXPECT_EQ(*RunHostFallbackOp(SetOp::kMerge, some, none), some);
  EXPECT_EQ(*RunHostFallbackOp(SetOp::kDifference, some, none), some);
  EXPECT_EQ(*RunHostFallbackOp(SetOp::kDifference, none, some),
            std::vector<uint32_t>{});
}

// --- Board recovery deadline budget ----------------------------------------

std::unique_ptr<system::Board> MakeBoard(const fault::FaultPlan& plan) {
  system::BoardConfig config;
  config.num_cores = 4;
  config.host_threads = 2;
  config.fault_plan = plan;
  auto board = system::Board::Create(config);
  EXPECT_TRUE(board.ok()) << board.status();
  return *std::move(board);
}

system::Board::BatchItem Item(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  system::Board::BatchItem item;
  item.op = SetOp::kIntersect;
  item.a = a;
  item.b = b;
  return item;
}

TEST(BoardDeadlineBudget, ExhaustedBudgetFailsTyped) {
  // Core 0 is permanently hung: the batch item pinned to it fails every
  // round. With a tiny cycle budget the board must stop the recovery
  // ladder early and return kDeadlineExceeded -- the regression this
  // guards: it used to burn the full retry ladder regardless of the
  // caller's deadline.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.broken_cores = {0, 1, 2, 3};
  plan.hang_watchdog_cycles = 2000;
  auto board = MakeBoard(plan);
  const std::vector<uint32_t> a = {1, 5, 9, 12};
  const std::vector<uint32_t> b = {5, 9, 30};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  system::Board::BatchOptions options;
  options.deadline_cycles = 1;
  auto run = board->RunSetOperationBatch(items, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
}

TEST(BoardDeadlineBudget, FaultFreeFirstRoundIgnoresBudget) {
  // The budget only cuts *recovery rounds* short: a clean first round
  // completes even under an absurdly small budget.
  auto board = MakeBoard(fault::FaultPlan{});
  const std::vector<uint32_t> a = {1, 5, 9, 12};
  const std::vector<uint32_t> b = {5, 9, 30};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  system::Board::BatchOptions options;
  options.deadline_cycles = 1;
  auto run = board->RunSetOperationBatch(items, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->results[0], (std::vector<uint32_t>{5, 9}));
}

TEST(BoardDeadlineBudget, UnboundedMatchesDefault) {
  auto board = MakeBoard(fault::FaultPlan{});
  const std::vector<uint32_t> a = {2, 4, 6};
  const std::vector<uint32_t> b = {4, 6, 8};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  auto bounded = board->RunSetOperationBatch(items,
                                             system::Board::BatchOptions{});
  auto defaulted = board->RunSetOperationBatch(items);
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(bounded->results[0], defaulted->results[0]);
  EXPECT_EQ(bounded->run.makespan_cycles, defaulted->run.makespan_cycles);
}

// --- Service integration: rate limits and breaker sheds --------------------

TEST(ServiceResilience, RateLimitShedsTyped) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  TenantPolicy policy;
  policy.rate_per_sec = 1000;  // one token per virtual ms
  policy.burst = 2;
  config.tenant_policies["metered"] = policy;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  const auto submit = [&](const std::string& tenant) {
    ServiceRequest request;
    request.tenant = tenant;
    request.op = SetOp::kIntersect;
    request.a = {1, 2, 3};
    request.b = {2, 3, 4};
    return service->Submit(std::move(request));
  };

  // Burst of 2 admits; the third sheds kRateLimited without queueing.
  auto f1 = submit("metered");
  auto f2 = submit("metered");
  auto f3 = submit("metered");
  // An unmetered tenant is untouched by the bucket.
  auto f4 = submit("other");
  EXPECT_EQ(f3.get().status.code(), StatusCode::kRateLimited);
  service->Drain();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_TRUE(f4.get().status.ok());
  EXPECT_EQ(service->counters().rate_limited, 1u);
  // A refill interval later the tenant is admitted again.
  clock.AdvanceBy(1'000'000);
  auto f5 = submit("metered");
  service->Drain();
  EXPECT_TRUE(f5.get().status.ok());
}

TEST(ServiceResilience, BreakerOpenWithoutFallbackShedsTyped) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.broken_cores = {0, 1};
  plan.hang_watchdog_cycles = 2000;
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  board_config.fault_plan = plan;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  config.breaker.failure_threshold = 1;
  config.host_fallback = false;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  const auto submit_and_wait = [&] {
    ServiceRequest request;
    request.tenant = "t";
    request.op = SetOp::kUnion;
    request.a = {1, 3};
    request.b = {2, 4};
    auto future = service->Submit(std::move(request));
    service->Drain();
    return future.get();
  };

  // First dispatch fails on the dead board and trips the breaker.
  const ServiceResponse first = submit_and_wait();
  EXPECT_FALSE(first.status.ok());
  EXPECT_EQ(service->breaker_state(), BreakerState::kOpen);
  // With fallback disabled the next request is a typed breaker shed.
  const ServiceResponse second = submit_and_wait();
  EXPECT_EQ(second.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(second.degraded);
  EXPECT_GE(service->counters().breaker_sheds, 1u);
}

TEST(ServiceResilience, DirectResponseReportsTheBatchRetries) {
  // Core 0 hangs: the item homed there fails once and the board retries
  // it on core 1. The response carries the batch's retries the way it
  // carries the batch makespan.
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.broken_cores = {0};
  plan.hang_watchdog_cycles = 2000;
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  board_config.fault_plan = plan;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  ServiceRequest request;
  request.tenant = "t";
  request.op = SetOp::kIntersect;
  request.a = {1, 5, 9, 12};
  request.b = {5, 9, 30};
  auto future = service->Submit(std::move(request));
  service->Drain();
  const ServiceResponse response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.values, (std::vector<uint32_t>{5, 9}));
  EXPECT_GT(response.retries, 0u);
  EXPECT_EQ(response.retries, service->counters().retries);
}

TEST(ServiceResilience, SloClassStampsDefaultDeadline) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  TenantPolicy interactive;
  interactive.slo = SloClass::kInteractive;
  config.tenant_policies["ui"] = interactive;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  service->PauseDispatch();
  ServiceRequest request;
  request.tenant = "ui";
  request.op = SetOp::kIntersect;
  request.a = {1, 2};
  request.b = {2, 3};
  auto future = service->Submit(std::move(request));
  // Step the clock past the interactive SLO's 5 ms default deadline
  // while the request is still queued: it must shed, typed.
  clock.AdvanceBy(SloDefaultDeadlineNs(SloClass::kInteractive) + 1);
  service->ResumeDispatch();
  service->Drain();
  EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->counters().shed, 1u);
}

// --- Validate() rejections -------------------------------------------------

TEST(ResilienceValidate, RejectsBadKnobs) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());

  ServiceConfig base;
  base.board = board->get();
  ASSERT_TRUE(base.Validate().ok());

  {
    ServiceConfig config = base;
    TenantPolicy policy;
    policy.rate_per_sec = -1;
    config.tenant_policies["t"] = policy;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    TenantPolicy policy;
    policy.rate_per_sec = 10;
    policy.burst = 0.5;
    config.tenant_policies["t"] = policy;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.failure_threshold = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.quarantine_fraction = 1.5;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.probe_successes_to_close = 99;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.retry.max_retries = 17;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.retry.backoff_cap_ns = 1;
    config.retry.backoff_base_ns = 2;
    EXPECT_FALSE(config.Validate().ok());
  }
}

// --- ChaosSchedule ---------------------------------------------------------

TEST(ChaosSchedule, DeterministicAndValidated) {
  for (size_t p = 0; p < fault::kNumChaosProfiles; ++p) {
    const auto profile = static_cast<fault::ChaosProfile>(p);
    auto a = fault::ChaosSchedule::Make(profile, 77);
    auto b = fault::ChaosSchedule::Make(profile, 77);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->phases().size(), b->phases().size());
    ASSERT_FALSE(a->phases().empty());
    for (size_t i = 0; i < a->phases().size(); ++i) {
      EXPECT_EQ(a->phases()[i].plan.seed, b->phases()[i].plan.seed);
      EXPECT_EQ(a->phases()[i].plan.broken_cores,
                b->phases()[i].plan.broken_cores);
      EXPECT_TRUE(a->phases()[i].plan.Validate().ok());
    }
    // Steps map onto phases in order and clamp at the end.
    EXPECT_EQ(a->PhaseIndexForStep(0), 0u);
    EXPECT_EQ(a->PhaseIndexForStep(a->total_steps() + 100),
              a->phases().size() - 1);
  }
}

TEST(ChaosSchedule, ProfileNamesRoundTrip) {
  for (size_t p = 0; p < fault::kNumChaosProfiles; ++p) {
    const auto profile = static_cast<fault::ChaosProfile>(p);
    auto parsed = fault::ChaosProfileFromName(fault::ChaosProfileName(profile));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_FALSE(fault::ChaosProfileFromName("tsunami").ok());
}

TEST(ChaosSchedule, MeltdownBreaksEveryCoreThenHeals) {
  auto schedule = fault::ChaosSchedule::Make(fault::ChaosProfile::kMeltdown,
                                             3);
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->phases().size(), 3u);
  EXPECT_TRUE(schedule->phases()[0].plan.broken_cores.empty());
  EXPECT_EQ(schedule->phases()[1].plan.broken_cores.size(), 4u);
  EXPECT_TRUE(schedule->phases()[2].heal);
  EXPECT_FALSE(schedule->phases()[2].plan.enabled());
}

}  // namespace
}  // namespace dba::service
