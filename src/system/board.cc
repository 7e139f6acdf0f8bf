#include "system/board.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics/event_log.h"
#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"

namespace dba::system {

namespace {

// The RecoveryTelemetry fields the registry exports, one row each, read
// by registration and by PublishRecovery, the only place they move: on
// every exit of ExecutePartitioned, so a fresh registry equals the run's
// telemetry exactly, at any host_threads.
template <auto Field>
uint64_t Count(const RecoveryTelemetry& telemetry) {
  return telemetry.*Field;
}

struct RecoveryCounter {
  uint64_t (*count)(const RecoveryTelemetry&);
  const char* name;
  const char* help;
};

constexpr RecoveryCounter kRecoveryCounters[] = {
    {Count<&RecoveryTelemetry::rounds>, "dba_system_recovery_rounds_total",
     "Scheduling rounds (1 per op when fault-free)."},
    {Count<&RecoveryTelemetry::faults_injected>,
     "dba_system_faults_injected_total",
     "Attempts that had a fault injected (mirrors RecoveryTelemetry)."},
    {Count<&RecoveryTelemetry::verification_failures>,
     "dba_system_verification_failures_total",
     "Partition results rejected by output verification."},
    {Count<&RecoveryTelemetry::failed_attempts>,
     "dba_system_failed_attempts_total",
     "Partition attempts that returned an error."},
    {Count<&RecoveryTelemetry::retries>, "dba_system_retries_total",
     "Partition retry attempts scheduled."},
    {Count<&RecoveryTelemetry::requeues>, "dba_system_requeues_total",
     "Partitions moved to a different core (spill or retry)."},
    {Count<&RecoveryTelemetry::recovery_cycles>,
     "dba_system_recovery_cycles_total",
     "Simulated cycles spent on failed attempts and backoff."},
};

// Counters no struct carries are recorded where they happen; the NoC
// fault counters from worker threads (RunAttempt), still deterministic
// because fault decisions are pure functions of the work item.
struct BoardInstruments {
  obs::Counter* ops;
  obs::Counter* op_failures;
  std::array<obs::Counter*, std::size(kRecoveryCounters)> recovery;
  obs::Counter* quarantines;
  obs::Counter* noc_feed_bytes;
  obs::Counter* noc_transfer_failures;
  obs::Counter* noc_transfer_timeouts;
  obs::Histogram* partition_cycles;
  obs::Histogram* op_makespan_cycles;
  obs::Gauge* healthy_cores;
  obs::Gauge* quarantined_cores;
};

const BoardInstruments& Instruments() {
  static const BoardInstruments instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    BoardInstruments out;
    out.ops = registry.GetCounter("dba_system_board_ops_total",
                                  "Board-level operations started.");
    out.op_failures =
        registry.GetCounter("dba_system_board_op_failures_total",
                            "Board-level operations that returned an error.");
    for (size_t i = 0; i < std::size(kRecoveryCounters); ++i) {
      out.recovery[i] = registry.GetCounter(kRecoveryCounters[i].name,
                                            kRecoveryCounters[i].help);
    }
    out.quarantines = registry.GetCounter(
        "dba_system_quarantines_total", "Cores quarantined by the board.");
    out.noc_feed_bytes = registry.GetCounter(
        "dba_system_noc_feed_bytes_total",
        "Bytes transferred over the NoC for successful attempts.");
    out.noc_transfer_failures = registry.GetCounter(
        "dba_system_noc_transfer_failures_total",
        "Injected NoC transfer failures observed by attempts.");
    out.noc_transfer_timeouts = registry.GetCounter(
        "dba_system_noc_transfer_timeouts_total",
        "Injected NoC transfer timeouts observed by attempts.");
    out.partition_cycles = registry.GetHistogram(
        "dba_system_partition_cycles",
        "Simulated compute cycles per successful partition attempt.");
    out.op_makespan_cycles = registry.GetHistogram(
        "dba_system_op_makespan_cycles",
        "Simulated makespan cycles per completed board operation.");
    out.healthy_cores = registry.GetGauge(
        "dba_system_healthy_cores", "Cores not currently quarantined.");
    out.quarantined_cores = registry.GetGauge(
        "dba_system_quarantined_cores", "Cores currently quarantined.");
    return out;
  }();
  return instruments;
}

void PublishRecovery(const RecoveryTelemetry& telemetry) {
  const BoardInstruments& instruments = Instruments();
  for (size_t i = 0; i < std::size(kRecoveryCounters); ++i) {
    const uint64_t count = kRecoveryCounters[i].count(telemetry);
    if (count != 0) instruments.recovery[i]->Increment(count);
  }
}

}  // namespace

namespace {

/// Value splitters that cut `reference` into `parts` roughly equal
/// ranges. Returned splitters are strictly increasing upper bounds; the
/// last range is unbounded.
std::vector<uint32_t> PickSplitters(std::span<const uint32_t> reference,
                                    int parts) {
  std::vector<uint32_t> splitters;
  if (reference.empty() || parts <= 1) return splitters;
  for (int i = 1; i < parts; ++i) {
    const size_t position = reference.size() * static_cast<size_t>(i) /
                            static_cast<size_t>(parts);
    const uint32_t candidate = reference[position];
    if (splitters.empty() || candidate > splitters.back()) {
      splitters.push_back(candidate);
    }
  }
  return splitters;
}

/// Splits a sorted array into the ranges defined by `splitters`:
/// range i = values in (splitters[i-1], splitters[i]].
std::vector<std::span<const uint32_t>> PartitionSorted(
    std::span<const uint32_t> values, const std::vector<uint32_t>& splitters) {
  std::vector<std::span<const uint32_t>> ranges;
  size_t begin = 0;
  for (const uint32_t splitter : splitters) {
    const size_t end = static_cast<size_t>(
        std::upper_bound(values.begin() + static_cast<ptrdiff_t>(begin),
                         values.end(), splitter) -
        values.begin());
    ranges.push_back(values.subspan(begin, end - begin));
    begin = end;
  }
  ranges.push_back(values.subspan(begin));
  return ranges;
}

/// One core's share of a set operation: the empty-operand rule charged
/// as copy beats for the surviving side, the fit-or-stream kernel
/// otherwise. Writes pure compute cycles; NoC feed is reduced after the
/// join (it depends on how many cores stream concurrently).
Status RunSetPartition(Processor& core, SetOp op,
                       std::span<const uint32_t> part_a,
                       std::span<const uint32_t> part_b,
                       const RunSettings& settings,
                       std::vector<uint32_t>* result,
                       uint64_t* compute_cycles) {
  if (part_a.empty() || part_b.empty()) {
    DBA_ASSIGN_OR_RETURN(*result, EmptyOperandResult(op, part_a, part_b));
    *compute_cycles = 3 * ((result->size() + 3) / 4);  // copy beats
    return Status::Ok();
  }
  DBA_ASSIGN_OR_RETURN(
      prefetch::CoreSetOpRun run,
      prefetch::RunCoreSetOperation(core, op, part_a, part_b, settings));
  *compute_cycles = run.cycles;
  *result = std::move(run.result);
  return Status::Ok();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Adds context to a status without changing its code (the code is what
/// retry policies and tests dispatch on).
Status Annotate(const Status& status, const std::string& context) {
  return Status(status.code(), context + ": " + status.message());
}

}  // namespace

Status RecoveryPolicy::Validate() const {
  if (max_attempts < 1 || max_attempts > 32) {
    return Status::InvalidArgument(
        "RecoveryPolicy::max_attempts must be in 1..32");
  }
  if (quarantine_after < 1) {
    return Status::InvalidArgument(
        "RecoveryPolicy::quarantine_after must be >= 1");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Board>> Board::Create(const BoardConfig& config) {
  if (config.num_cores < 1 || config.num_cores > 1024) {
    return Status::InvalidArgument("board supports 1..1024 cores");
  }
  if (config.host_threads < 0 || config.host_threads > 1024) {
    return Status::InvalidArgument("host_threads must be in 0..1024");
  }
  DBA_RETURN_IF_ERROR(config.noc.Validate());
  DBA_RETURN_IF_ERROR(config.fault_plan.Validate());
  DBA_RETURN_IF_ERROR(config.recovery.Validate());
  for (const int core : config.fault_plan.broken_cores) {
    if (core >= config.num_cores) {
      return Status::InvalidArgument(
          "FaultPlan::broken_cores lists core " + std::to_string(core) +
          " but the board has " + std::to_string(config.num_cores) +
          " cores");
    }
  }
  // The kernel programs are identical across cores: build them once and
  // let every Processor reference the shared immutable cache.
  DBA_ASSIGN_OR_RETURN(std::shared_ptr<const ProgramCache> programs,
                       ProgramCache::Build(config.core_options));
  std::vector<std::unique_ptr<Processor>> cores;
  cores.reserve(static_cast<size_t>(config.num_cores));
  for (int i = 0; i < config.num_cores; ++i) {
    DBA_ASSIGN_OR_RETURN(
        std::unique_ptr<Processor> core,
        Processor::Create(config.core_kind, config.core_options, programs));
    cores.push_back(std::move(core));
  }
  int host_threads = config.host_threads == 0
                         ? common::ThreadPool::HardwareConcurrency()
                         : config.host_threads;
  // More host threads than cores cannot help: one task per core.
  host_threads = std::min(host_threads, config.num_cores);
  std::unique_ptr<Board> board(new Board(
      config, std::move(cores), std::move(programs), host_threads));
  if (config.fault_plan.enabled()) {
    board->injector_ =
        std::make_unique<fault::FaultInjector>(config.fault_plan);
    DBA_ASSIGN_OR_RETURN(isa::Program hang_loop,
                         fault::BuildHangLoopProgram());
    board->hang_program_ =
        std::make_shared<const isa::Program>(std::move(hang_loop));
  }
  return board;
}

Board::Board(BoardConfig config,
             std::vector<std::unique_ptr<Processor>> cores,
             std::shared_ptr<const ProgramCache> programs, int host_threads)
    : config_(std::move(config)),
      noc_(config_.noc),
      cores_(std::move(cores)),
      programs_(std::move(programs)),
      host_threads_(host_threads),
      core_failures_(cores_.size(), 0),
      quarantined_(cores_.size(), false) {
  if (host_threads_ > 1) {
    // Workers + the calling thread (which ParallelFor enlists).
    pool_ = std::make_unique<common::ThreadPool>(host_threads_ - 1);
  }
}

void Board::ForEachCore(size_t n, const std::function<void(size_t)>& fn) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(n, fn);
}

void Board::FinishRun(ParallelRun* run, uint64_t elements) const {
  const double frequency = core_frequency_hz();
  if (run->makespan_cycles > 0) {
    run->throughput_meps = static_cast<double>(elements) /
                           (static_cast<double>(run->makespan_cycles) /
                            frequency) /
                           1e6;
  }
  run->board_power_mw = board_power_mw();
  run->energy_uj = static_cast<double>(run->total_core_cycles) / frequency *
                   cores_[0]->synthesis().power_mw * 1e3;
  run->host_threads_used = host_threads_;
  run->sim_mode = config_.sim_mode;
}

void Board::Quarantine(int core) {
  quarantined_[static_cast<size_t>(core)] = true;
  quarantined_list_.insert(
      std::upper_bound(quarantined_list_.begin(), quarantined_list_.end(),
                       core),
      core);
  Instruments().quarantines->Increment();
  obs::EventLog::Global().Log(
      obs::EventLevel::kWarn, "board", "core quarantined",
      {{"core", std::to_string(core)},
       {"failures",
        std::to_string(core_failures_[static_cast<size_t>(core)])}});
}

void Board::ResetQuarantine() {
  std::fill(quarantined_.begin(), quarantined_.end(), false);
  std::fill(core_failures_.begin(), core_failures_.end(), 0);
  quarantined_list_.clear();
}

namespace {

/// Inputs to output verification (kept free of Board's private types so
/// the checker can live in this anonymous namespace).
struct VerifyView {
  std::span<const uint32_t> result;
  size_t a_size = 0;
  size_t b_size = 0;
  uint32_t lo = 0;
  uint32_t hi = 0xFFFFFFFFu;
  bool is_sort = false;
  SetOp op = SetOp::kIntersect;
};

/// Output verification of one partition attempt: the result must be
/// monotone (strictly increasing for set operations, non-decreasing for
/// sort), stay inside the partition's value range, and respect the
/// size bounds the operation implies. This is the second detection
/// layer of docs/FAULTS.md; anything it cannot see is caught by the
/// parity backstop in RunAttempt.
Status VerifyPartitionResult(const VerifyView& view) {
  if (view.is_sort) {
    if (view.result.size() != view.a_size) {
      return Status::DataLoss(
          "partition verification: sort result has " +
          std::to_string(view.result.size()) + " values, bucket had " +
          std::to_string(view.a_size));
    }
  } else {
    size_t max_size = 0;
    switch (view.op) {
      case SetOp::kIntersect:
        max_size = std::min(view.a_size, view.b_size);
        break;
      case SetOp::kUnion:
        max_size = view.a_size + view.b_size;
        break;
      case SetOp::kDifference:
        max_size = view.a_size;
        break;
      default:
        max_size = view.a_size + view.b_size;
        break;
    }
    if (view.result.size() > max_size) {
      return Status::DataLoss(
          "partition verification: result size " +
          std::to_string(view.result.size()) + " exceeds the bound " +
          std::to_string(max_size));
    }
    // A merge keeps every element of both inputs (duplicates included):
    // the size is exact, and only non-decreasing order can be required.
    if (view.op == SetOp::kMerge &&
        view.result.size() != view.a_size + view.b_size) {
      return Status::DataLoss(
          "partition verification: merge result has " +
          std::to_string(view.result.size()) + " values, inputs had " +
          std::to_string(view.a_size + view.b_size));
    }
  }
  const bool non_decreasing = view.is_sort || view.op == SetOp::kMerge;
  for (size_t i = 0; i < view.result.size(); ++i) {
    const uint32_t value = view.result[i];
    if (value < view.lo || value > view.hi) {
      return Status::DataLoss(
          "partition verification: value " + std::to_string(value) +
          " at index " + std::to_string(i) +
          " is outside the partition range [" + std::to_string(view.lo) +
          ", " + std::to_string(view.hi) + "]");
    }
    if (i > 0) {
      const bool bad = non_decreasing ? value < view.result[i - 1]
                                      : value <= view.result[i - 1];
      if (bad) {
        return Status::DataLoss(
            "partition verification: result is not " +
            std::string(non_decreasing ? "sorted" : "strictly increasing") +
            " at index " + std::to_string(i));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Board::AttemptOutcome Board::RunAttempt(int core_index,
                                        const PartitionWork& part,
                                        bool is_sort,
                                        const fault::AttemptSite& site,
                                        const PartitionRunner& runner) {
  AttemptOutcome out;
  Processor& core = *cores_[static_cast<size_t>(core_index)];
  fault::FaultDecision decision;
  if (injector_ != nullptr) decision = injector_->Decide(site);
  out.fault_injected = decision.any();

  if (decision.hang) {
    // A hung core makes no forward progress: run a branch-to-self
    // program on the real Cpu so the cycle watchdog -- not a simulated
    // status -- raises the error after the granted budget.
    const uint64_t budget = config_.fault_plan.hang_watchdog_cycles;
    out.compute_cycles = budget;
    core.cpu().ResetArchState();
    const Status load = core.cpu().LoadProgram(*hang_program_);
    if (!load.ok()) {
      out.status = load;
      return out;
    }
    auto stats =
        core.cpu().Run({.mode = config_.sim_mode, .max_cycles = budget});
    out.status = stats.ok()
                     ? Status::Internal("injected hang halted unexpectedly")
                     : Annotate(stats.status(), "injected core hang");
    return out;
  }
  if (decision.transfer_fail) {
    Instruments().noc_transfer_failures->Increment();
    out.compute_cycles = noc_.config().transfer_latency_cycles;
    out.status = Status::Unavailable("injected NoC transfer failure");
    return out;
  }
  if (decision.transfer_timeout) {
    Instruments().noc_transfer_timeouts->Increment();
    out.compute_cycles = noc_.TimeoutCycles();
    out.status = Status::DeadlineExceeded("injected NoC transfer timeout");
    return out;
  }

  // Defensive mode whenever faults can occur: the core checks its
  // inputs (detection layer 1) instead of trusting the scheduler.
  RunSettings settings;
  settings.sim_mode = config_.sim_mode;
  settings.validate_inputs = injector_ != nullptr;

  // Input flip: corrupt the staged copy of one input word, leaving the
  // host's original intact (the flip is local to this attempt's
  // local-store image).
  PartitionWork attempt_part = part;
  std::vector<uint32_t> corrupt_copy;
  bool corrupted = false;
  if (decision.flip_input) {
    const size_t total = part.a.size() + part.b.size();
    if (total > 0) {
      const size_t target =
          static_cast<size_t>(decision.flip_offset % total);
      if (target < part.a.size()) {
        corrupt_copy.assign(part.a.begin(), part.a.end());
        corrupt_copy[target] ^= 1u << decision.flip_bit;
        attempt_part.a = corrupt_copy;
      } else {
        corrupt_copy.assign(part.b.begin(), part.b.end());
        corrupt_copy[target - part.a.size()] ^= 1u << decision.flip_bit;
        attempt_part.b = corrupt_copy;
      }
      corrupted = true;
    }
  }

  const Status run_status =
      runner(core, attempt_part, settings, &out.result, &out.compute_cycles);
  if (!run_status.ok()) {
    // Detection layer 1 rejecting a fault-flipped input image is data
    // corruption, not a caller error: type it kDataLoss so the
    // recovery ladder (and the service above it) treats it as the
    // transient fault it is.
    out.status =
        corrupted && run_status.code() == StatusCode::kInvalidArgument
            ? Status::DataLoss(std::string(run_status.message()) +
                               " (injected input bit flip)")
            : run_status;
    return out;
  }

  if (decision.flip_result && !out.result.empty()) {
    const size_t target =
        static_cast<size_t>(decision.flip_offset % out.result.size());
    out.result[target] ^= 1u << decision.flip_bit;
    corrupted = true;
  }

  if (injector_ != nullptr && config_.recovery.verify_partitions) {
    VerifyView view;
    view.result = out.result;
    view.a_size = part.a.size();
    view.b_size = part.b.size();
    view.lo = part.lo;
    view.hi = part.hi;
    view.is_sort = is_sort;
    view.op = part.op;
    const Status verify = VerifyPartitionResult(view);
    if (!verify.ok()) {
      out.verification_failed = true;
      out.status = verify;
      return out;
    }
  }

  if (corrupted) {
    // Detection layer 3: a flip that slipped past input validation and
    // output verification is still caught by the word parity the result
    // transport carries (detected-uncorrectable ECC). An injected flip
    // therefore never produces a silently wrong board result.
    out.status = Status::DataLoss(
        "parity check failed on the partition result (injected bit flip)");
    return out;
  }

  out.status = Status::Ok();
  return out;
}

Result<ParallelRun> Board::ExecutePartitioned(
    std::vector<PartitionWork> parts, bool is_sort, uint64_t elements,
    const PartitionRunner& runner,
    std::vector<std::vector<uint32_t>>* item_results,
    uint64_t deadline_cycles) {
  const auto host_start = std::chrono::steady_clock::now();
  const uint64_t op_ordinal = op_ordinal_++;
  const BoardInstruments& instruments = Instruments();
  instruments.ops->Increment();
  ParallelRun run;
  run.per_core_cycles.assign(cores_.size(), 0);

  const int cores_n = num_cores();
  struct Slot {
    bool done = false;
    uint32_t attempts = 0;
    Status last_status;
    std::vector<uint32_t> result;
  };
  std::vector<Slot> slots(parts.size());

  // Healthy cores ordered by (cumulative failures, index): retries and
  // spilled partitions land on the most reliable cores first. The order
  // depends only on board state, never on host-thread scheduling.
  std::vector<int> healthy;
  const auto refresh_healthy = [&] {
    healthy.clear();
    for (int c = 0; c < cores_n; ++c) {
      if (!IsQuarantined(c)) healthy.push_back(c);
    }
    std::stable_sort(healthy.begin(), healthy.end(), [&](int x, int y) {
      return core_failures_[static_cast<size_t>(x)] <
             core_failures_[static_cast<size_t>(y)];
    });
  };
  refresh_healthy();
  if (healthy.empty()) {
    return Status::Unavailable(
        "all " + std::to_string(cores_n) +
        " cores are quarantined; call ResetQuarantine() after servicing");
  }

  // Round 0: partition i's home core is i mod num_cores (the identity
  // for the value-partitioned paths, waves for batches with more items
  // than cores). A benched home core spills the partition onto the
  // healthy cores right away (graceful degradation: the board finishes
  // on fewer cores).
  std::vector<std::pair<size_t, int>> pending;  // (partition, core)
  size_t spill = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!parts[i].active) {
      slots[i].done = true;
      continue;
    }
    const int home = static_cast<int>(i % static_cast<size_t>(cores_n));
    if (!IsQuarantined(home)) {
      pending.emplace_back(i, home);
    } else {
      pending.emplace_back(i, healthy[spill++ % healthy.size()]);
      ++run.recovery.requeues;
    }
  }

  // A failed exit logs why, counts the failure and, like the successful
  // exit, publishes what the run counted.
  const auto fail = [&](Status status, obs::EventLevel level,
                        std::string_view event,
                        std::vector<std::pair<std::string, std::string>>
                            fields) {
    obs::EventLog::Global().Log(level, "board", event, std::move(fields));
    instruments.op_failures->Increment();
    PublishRecovery(run.recovery);
    return status;
  };

  uint64_t trace_cursor = 0;
  while (!pending.empty()) {
    ++run.recovery.rounds;
    const int streams = static_cast<int>(pending.size());

    // Fan this round out with one host task per core (a core is never
    // driven from two threads; a core with several requeued partitions
    // runs them back to back).
    std::vector<AttemptOutcome> outcomes(parts.size());
    std::vector<std::vector<size_t>> by_core(static_cast<size_t>(cores_n));
    for (const auto& [p, c] : pending) {
      by_core[static_cast<size_t>(c)].push_back(p);
    }
    std::vector<int> active_cores;
    for (int c = 0; c < cores_n; ++c) {
      if (!by_core[static_cast<size_t>(c)].empty()) active_cores.push_back(c);
    }
    ForEachCore(active_cores.size(), [&](size_t gi) {
      const int c = active_cores[gi];
      for (const size_t p : by_core[static_cast<size_t>(c)]) {
        fault::AttemptSite site;
        site.op_ordinal = op_ordinal;
        site.partition = static_cast<uint32_t>(p);
        site.core = static_cast<uint32_t>(c);
        site.attempt = slots[p].attempts;
        outcomes[p] = RunAttempt(c, parts[p], is_sort, site, runner);
      }
    });

    // Deterministic reduce in partition order: telemetry, cycle
    // accounting, and the retry set must not depend on which host
    // thread finished first.
    const uint64_t round_start = trace_cursor;
    uint64_t attempt_cursor = round_start;
    const bool tracing = trace_sink_ != nullptr && injector_ != nullptr;
    if (tracing) {
      trace_sink_->BeginRegion(round_start,
                               "recovery round " +
                                   std::to_string(run.recovery.rounds) +
                                   " (" + std::to_string(streams) +
                                   " partitions)");
    }
    std::vector<uint64_t> added(static_cast<size_t>(cores_n), 0);
    std::vector<std::pair<size_t, int>> failed;
    for (const auto& [p, c] : pending) {
      AttemptOutcome& out = outcomes[p];
      const uint32_t attempt = slots[p].attempts;
      ++slots[p].attempts;
      if (out.fault_injected) ++run.recovery.faults_injected;
      if (out.verification_failed) ++run.recovery.verification_failures;
      uint64_t cost = 0;
      if (out.status.ok()) {
        const uint64_t feed_cycles = noc_.TransferCycles(
            parts[p].feed_bytes + 4 * out.result.size(), streams);
        run.noc_bound |= feed_cycles > out.compute_cycles;
        cost = std::max(out.compute_cycles, feed_cycles);
        instruments.noc_feed_bytes->Increment(parts[p].feed_bytes +
                                              4 * out.result.size());
        instruments.partition_cycles->Observe(out.compute_cycles);
      } else {
        cost = out.compute_cycles;
      }
      if (attempt > 0) {
        // Exponential backoff: re-arbitration and re-transfer cost of
        // attempt k is backoff_base_cycles * 2^(k-1).
        cost += config_.recovery.backoff_base_cycles << (attempt - 1);
      }
      run.total_core_cycles += out.compute_cycles;
      added[static_cast<size_t>(c)] += cost;
      if (out.status.ok()) {
        slots[p].done = true;
        slots[p].result = std::move(out.result);
      } else {
        ++run.recovery.failed_attempts;
        run.recovery.recovery_cycles += cost;
        ++core_failures_[static_cast<size_t>(c)];
        slots[p].last_status = out.status;
        failed.emplace_back(p, c);
        if (tracing) {
          std::string name = "p";
          name += std::to_string(p);
          name += "@core";
          name += std::to_string(c);
          name += ": ";
          name += StatusCodeToString(out.status.code());
          trace_sink_->BeginRegion(attempt_cursor, name);
          attempt_cursor += cost;
          trace_sink_->EndRegion(attempt_cursor);
        }
      }
    }
    uint64_t round_max = 0;
    for (int c = 0; c < cores_n; ++c) {
      run.per_core_cycles[static_cast<size_t>(c)] +=
          added[static_cast<size_t>(c)];
      round_max = std::max(round_max, added[static_cast<size_t>(c)]);
    }
    run.makespan_cycles += round_max;
    trace_cursor = std::max(round_start + round_max, attempt_cursor);

    // Quarantine repeat offenders. The bench persists across
    // operations: a part that keeps failing stays benched until
    // ResetQuarantine().
    for (int c = 0; c < cores_n; ++c) {
      if (!IsQuarantined(c) &&
          core_failures_[static_cast<size_t>(c)] >=
              config_.recovery.quarantine_after) {
        Quarantine(c);
      }
    }
    if (tracing) {
      trace_sink_->EndRegion(trace_cursor);
      trace_sink_->Counter(trace_cursor, "board/failed_attempts",
                           run.recovery.failed_attempts);
      trace_sink_->Counter(trace_cursor, "board/retries",
                           run.recovery.retries);
      trace_sink_->Counter(
          trace_cursor, "board/healthy_cores",
          static_cast<double>(cores_.size() - quarantined_list_.size()));
    }

    pending.clear();
    if (failed.empty()) continue;

    // The caller's deadline budget bounds the retry ladder: once the
    // accumulated makespan has consumed it, scheduling another round
    // could not produce a result the caller would still accept, so the
    // operation sheds kDeadlineExceeded instead of burning the rest of
    // the ladder. (A clean first round never gets here: the check only
    // runs when retries are pending.)
    if (deadline_cycles > 0 && run.makespan_cycles >= deadline_cycles) {
      const size_t p = failed.front().first;
      return fail(
          Status::DeadlineExceeded(
              "recovery deadline budget (" + std::to_string(deadline_cycles) +
              " cycles) exhausted after " +
              std::to_string(run.recovery.rounds) + " rounds; partition " +
              std::to_string(p) +
              " last error: " + slots[p].last_status.message()),
          obs::EventLevel::kWarn, "recovery deadline budget exhausted",
          {{"rounds", std::to_string(run.recovery.rounds)},
           {"budget_cycles", std::to_string(deadline_cycles)},
           {"partition", std::to_string(p)}});
    }

    // A partition out of attempts fails the operation with its last
    // error (first such partition in partition order -- deterministic).
    for (const auto& [p, c] : failed) {
      (void)c;
      if (slots[p].attempts >=
          static_cast<uint32_t>(config_.recovery.max_attempts)) {
        return fail(
            Annotate(slots[p].last_status,
                     "partition " + std::to_string(p) + " failed after " +
                         std::to_string(slots[p].attempts) + " attempts"),
            obs::EventLevel::kError, "operation failed",
            {{"partition", std::to_string(p)},
             {"attempts", std::to_string(slots[p].attempts)},
             {"status", std::string(StatusCodeToString(
                            slots[p].last_status.code()))}});
      }
    }
    refresh_healthy();
    if (healthy.empty()) {
      const size_t p = failed.front().first;
      return fail(Annotate(slots[p].last_status,
                           "all cores quarantined while retrying partition " +
                               std::to_string(p)),
                  obs::EventLevel::kError,
                  "all cores quarantined mid-operation",
                  {{"partition", std::to_string(p)}});
    }
    // Requeue failed partitions round-robin over the healthy cores,
    // most reliable first.
    size_t next = 0;
    for (const auto& [p, prev_core] : failed) {
      const int c = healthy[next++ % healthy.size()];
      ++run.recovery.retries;
      if (c != prev_core) ++run.recovery.requeues;
      pending.emplace_back(p, c);
    }
  }

  run.recovery.degraded = !quarantined_list_.empty();
  run.recovery.quarantined_cores = quarantined_list_;
  PublishRecovery(run.recovery);
  instruments.op_makespan_cycles->Observe(run.makespan_cycles);
  instruments.healthy_cores->Set(
      static_cast<double>(cores_.size() - quarantined_list_.size()));
  instruments.quarantined_cores->Set(
      static_cast<double>(quarantined_list_.size()));
  if (item_results != nullptr) {
    // Batch mode: each partition is an independent request whose result
    // must come back separately, in submission order.
    item_results->clear();
    item_results->reserve(slots.size());
    for (Slot& slot : slots) {
      item_results->push_back(std::move(slot.result));
    }
  } else {
    for (Slot& slot : slots) {
      run.result.insert(run.result.end(), slot.result.begin(),
                        slot.result.end());
    }
  }
  FinishRun(&run, elements);
  run.host_wall_seconds = SecondsSince(host_start);
  return run;
}

Result<ParallelRun> Board::RunSetOperation(SetOp op,
                                           std::span<const uint32_t> a,
                                           std::span<const uint32_t> b) {
  const std::vector<uint32_t> splitters =
      PickSplitters(a.size() >= b.size() ? a : b, num_cores());
  const auto a_ranges = PartitionSorted(a, splitters);
  const auto b_ranges = PartitionSorted(b, splitters);

  std::vector<PartitionWork> parts(a_ranges.size());
  for (size_t i = 0; i < a_ranges.size(); ++i) {
    PartitionWork& part = parts[i];
    part.a = a_ranges[i];
    part.b = b_ranges[i];
    part.lo = i == 0 ? 0 : splitters[i - 1] + 1;
    part.hi = i < splitters.size() ? splitters[i] : 0xFFFFFFFFu;
    part.feed_bytes = 4 * (a_ranges[i].size() + b_ranges[i].size());
    part.active = !a_ranges[i].empty() || !b_ranges[i].empty();
    part.op = op;
  }

  const PartitionRunner runner =
      [op](Processor& core, const PartitionWork& part,
           const RunSettings& settings, std::vector<uint32_t>* result,
           uint64_t* compute_cycles) {
        return RunSetPartition(core, op, part.a, part.b, settings, result,
                               compute_cycles);
      };
  return ExecutePartitioned(std::move(parts), /*is_sort=*/false,
                            a.size() + b.size(), runner);
}

Result<ParallelRun> Board::RunSort(std::span<const uint32_t> values) {
  // Sample splitters (planner-side; in hardware this partitioning pass
  // would itself be a streaming primitive, cf. the HARP partitioner the
  // paper cites [37]).
  std::vector<uint32_t> sample;
  const size_t sample_size =
      std::min<size_t>(values.size(), static_cast<size_t>(num_cores()) * 64);
  for (size_t i = 0; i < sample_size; ++i) {
    sample.push_back(values[i * values.size() / sample_size]);
  }
  std::sort(sample.begin(), sample.end());
  const std::vector<uint32_t> splitters = PickSplitters(sample, num_cores());

  // Bucket the input.
  std::vector<std::vector<uint32_t>> buckets(
      static_cast<size_t>(num_cores()));
  for (const uint32_t value : values) {
    const size_t bucket = static_cast<size_t>(
        std::lower_bound(splitters.begin(), splitters.end(), value) -
        splitters.begin());
    buckets[bucket].push_back(value);
  }

  // Duplicate-heavy or tiny inputs can yield fewer than num_cores-1
  // splitters; buckets past splitters.size() are then always empty (the
  // lower_bound index never exceeds splitters.size()) but still need
  // in-bounds placeholder ranges.
  std::vector<PartitionWork> parts(buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    PartitionWork& part = parts[i];
    part.a = buckets[i];
    part.lo = i == 0 ? 0
              : i <= splitters.size() ? splitters[i - 1] + 1
                                      : 0xFFFFFFFFu;
    part.hi = i < splitters.size() ? splitters[i] : 0xFFFFFFFFu;
    part.feed_bytes = 4 * buckets[i].size();  // result out adds the rest
    part.active = !buckets[i].empty();
    part.op = SetOp::kMerge;  // sort verification is non-decreasing
  }

  const PartitionRunner runner =
      [](Processor& core, const PartitionWork& part,
         const RunSettings& settings, std::vector<uint32_t>* result,
         uint64_t* compute_cycles) -> Status {
    DBA_ASSIGN_OR_RETURN(prefetch::ExternalSortRun run,
                         prefetch::ExternalSort(core, part.a, settings));
    *compute_cycles = run.sort_cycles + run.merge_cycles;
    *result = std::move(run.sorted);
    return Status::Ok();
  };
  return ExecutePartitioned(std::move(parts), /*is_sort=*/true,
                            values.size(), runner);
}

Status Board::SetFaultPlan(const fault::FaultPlan& plan) {
  DBA_RETURN_IF_ERROR(plan.Validate());
  for (const int core : plan.broken_cores) {
    if (core >= num_cores()) {
      return Status::InvalidArgument(
          "FaultPlan::broken_cores lists core " + std::to_string(core) +
          " but the board has " + std::to_string(num_cores()) + " cores");
    }
  }
  config_.fault_plan = plan;
  if (plan.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    if (hang_program_ == nullptr) {
      DBA_ASSIGN_OR_RETURN(isa::Program hang_loop,
                           fault::BuildHangLoopProgram());
      hang_program_ =
          std::make_shared<const isa::Program>(std::move(hang_loop));
    }
  } else {
    injector_.reset();
  }
  return Status::Ok();
}

Result<Board::BatchRun> Board::RunSetOperationBatch(
    std::span<const BatchItem> items, const BatchOptions& options) {
  BatchRun batch;
  if (items.empty()) {
    batch.run.per_core_cycles.assign(cores_.size(), 0);
    batch.run.host_threads_used = host_threads_;
    batch.run.sim_mode = config_.sim_mode;
    return batch;
  }
  uint64_t elements = 0;
  for (const BatchItem& item : items) {
    switch (item.op) {
      case SetOp::kIntersect:
      case SetOp::kUnion:
      case SetOp::kDifference:
      case SetOp::kMerge:
        break;
      default:
        return Status::InvalidArgument(
            "RunSetOperationBatch supports intersect/union/difference/merge");
    }
    elements += item.a.size() + item.b.size();
  }

  // Unlike the value-partitioned paths, a batch item is one whole
  // request executed on one core: partition i's home core is
  // i mod num_cores, so a batch larger than the board runs in waves.
  // The full recovery machinery (retries, requeues, quarantine,
  // verification) applies per item.
  std::vector<PartitionWork> parts(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    PartitionWork& part = parts[i];
    part.a = items[i].a;
    part.b = items[i].b;
    part.lo = 0;
    part.hi = 0xFFFFFFFFu;
    part.feed_bytes = 4 * (items[i].a.size() + items[i].b.size());
    part.active = !items[i].a.empty() || !items[i].b.empty();
    part.op = items[i].op;
  }

  const PartitionRunner runner =
      [](Processor& core, const PartitionWork& part,
         const RunSettings& settings, std::vector<uint32_t>* result,
         uint64_t* compute_cycles) {
        return RunSetPartition(core, part.op, part.a, part.b, settings,
                               result, compute_cycles);
      };
  DBA_ASSIGN_OR_RETURN(
      batch.run, ExecutePartitioned(std::move(parts), /*is_sort=*/false,
                                    elements, runner, &batch.results,
                                    options.deadline_cycles));
  return batch;
}

}  // namespace dba::system
