#include "service/query_service.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "obs/metrics/metrics.h"

namespace dba::service {

namespace {

// Indexed by ServiceEvent and read by registration and Record: the
// ServiceCounters field, the event's own counter (if any) and the reason
// of its dba_service_shed_total series (if any).
struct EventCounter {
  uint64_t ServiceCounters::*field;
  const char* name;
  const char* help;
  std::optional<ShedReason> shed = std::nullopt;
};

constexpr EventCounter kEventCounters[] = {
    {&ServiceCounters::submitted, "dba_service_submitted_total",
     "Requests submitted to the service."},
    {&ServiceCounters::rejected, "dba_service_rejected_total",
     "Requests shed at admission (queue full -> kUnavailable).",
     ShedReason::kQueueFull},
    {&ServiceCounters::shed, nullptr, nullptr, ShedReason::kDeadline},
    {&ServiceCounters::dispatched, "dba_service_dispatched_total",
     "Requests that reached execution."},
    {&ServiceCounters::batches, "dba_service_batches_total",
     "Dispatch batches executed."},
    {&ServiceCounters::deduplicated, "dba_service_dedup_total",
     "Requests answered by an identical request in the same batch."},
    {&ServiceCounters::retries, "dba_service_retries_total",
     "Transient re-executions across engine and board recovery."},
    {&ServiceCounters::rate_limited, nullptr, nullptr,
     ShedReason::kRateLimited},
    {&ServiceCounters::breaker_sheds, nullptr, nullptr,
     ShedReason::kBreakerOpen},
    {&ServiceCounters::degraded, "dba_service_degraded_total",
     "Responses served by host fallback while the breaker was open."},
};
static_assert(std::size(kEventCounters) == kNumServiceEvents);

// Published from the ResultCache's own CacheStats (PublishCacheLocked).
struct CacheCounter {
  uint64_t CacheStats::*stat;
  const char* name;
  const char* help;
};

constexpr CacheCounter kCacheCounters[] = {
    {&CacheStats::hits, "dba_service_cache_hits_total", "Result-cache hits."},
    {&CacheStats::misses, "dba_service_cache_misses_total",
     "Result-cache misses."},
    {&CacheStats::evictions, "dba_service_cache_evictions_total",
     "Result-cache LRU evictions."},
    {&CacheStats::invalidations, "dba_service_cache_invalidations_total",
     "Result-cache entries dropped for version staleness."},
};

struct ServiceInstruments {
  /// Per ServiceEvent: its own counter and its shed series (or null).
  std::array<std::array<obs::Counter*, 2>, kNumServiceEvents> events{};
  std::array<obs::Counter*, std::size(kCacheCounters)> cache;
  obs::Counter* breaker_transitions;  // end of ExecuteBatch
  obs::Gauge* breaker_state;
  obs::Gauge* queue_depth;
  obs::Histogram* batch_size;
  obs::Histogram* latency_ns;
};

const ServiceInstruments& Instruments() {
  static const ServiceInstruments instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    ServiceInstruments out;
    for (size_t e = 0; e < kNumServiceEvents; ++e) {
      const EventCounter& row = kEventCounters[e];
      if (row.name != nullptr) {
        out.events[e][0] = registry.GetCounter(row.name, row.help);
      }
      if (row.shed.has_value()) {
        out.events[e][1] = registry.GetCounter(
            "dba_service_shed_total", "reason", ShedReasonName(*row.shed),
            "Requests shed instead of executed, by reason.");
      }
    }
    for (size_t i = 0; i < std::size(kCacheCounters); ++i) {
      out.cache[i] = registry.GetCounter(kCacheCounters[i].name,
                                         kCacheCounters[i].help);
    }
    out.breaker_transitions =
        registry.GetCounter("dba_service_breaker_transitions_total",
                            "Circuit-breaker state changes.");
    out.breaker_state = registry.GetGauge(
        "dba_service_breaker_state",
        "Circuit-breaker state (0 closed, 1 half-open, 2 open).");
    out.queue_depth = registry.GetGauge("dba_service_queue_depth",
                                        "Requests currently queued.");
    out.batch_size = registry.GetHistogram("dba_service_batch_size",
                                           "Requests per dispatch batch.");
    out.latency_ns = registry.GetHistogram(
        "dba_service_latency_ns",
        "Submit-to-response latency (service-clock ns; deterministic "
        "only under an injected VirtualClock).");
    return out;
  }();
  return instruments;
}

/// Distinct columns referenced by a predicate tree, in first-seen order.
void CollectColumns(const query::Predicate& predicate,
                    std::vector<std::string>* out) {
  if (predicate.is_leaf()) {
    if (std::find(out->begin(), out->end(), predicate.column) == out->end()) {
      out->push_back(predicate.column);
    }
    return;
  }
  for (const auto& child : predicate.children) CollectColumns(*child, out);
}

/// The current version of every column `request`'s predicate reads, in
/// first-seen order. The caller holds the table's lock.
Result<std::vector<ColumnVersion>> StampVersions(
    const query::Table& table, const ServiceRequest& request) {
  std::vector<std::string> columns;
  CollectColumns(*request.predicate, &columns);
  std::vector<ColumnVersion> versions;
  for (const std::string& column : columns) {
    DBA_ASSIGN_OR_RETURN(const uint64_t version, table.ColumnVersion(column));
    versions.push_back(ColumnVersion{request.table, column, version});
  }
  return versions;
}

}  // namespace

Status ServiceConfig::Validate() const {
  if (board == nullptr) {
    return Status::InvalidArgument("ServiceConfig::board is required");
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument(
        "ServiceConfig::queue_capacity must be >= 1");
  }
  if (max_batch < 1) {
    return Status::InvalidArgument("ServiceConfig::max_batch must be >= 1");
  }
  if (max_attempts < 1) {
    return Status::InvalidArgument(
        "ServiceConfig::max_attempts must be >= 1");
  }
  for (const auto& [tenant, policy] : tenant_policies) {
    const Status status = policy.Validate();
    if (!status.ok()) {
      return Status(status.code(),
                    "tenant '" + tenant + "': " + status.message());
    }
  }
  DBA_RETURN_IF_ERROR(breaker.Validate());
  DBA_RETURN_IF_ERROR(retry.Validate());
  return Status::Ok();
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const ServiceConfig& config) {
  DBA_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<QueryService>(new QueryService(config));
}

QueryService::QueryService(const ServiceConfig& config)
    : config_(config),
      queue_(config.queue_capacity),
      breaker_(std::make_unique<CircuitBreaker>(config.breaker)),
      cache_(config.cache_capacity) {
  if (config_.clock == nullptr) {
    owned_clock_ = std::make_unique<SystemClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = config_.clock;
  }
  clock_->Watch(&mu_, &cv_);
  scheduler_ = std::thread(&QueryService::SchedulerLoop, this);
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  std::lock_guard<std::mutex> lock(mu_);
  queue_.ConsumeAll([](Job&& job) {
    ServiceResponse response;
    response.status = Status::Unavailable("service stopped");
    job.promise.set_value(std::move(response));
  });
  Instruments().queue_depth->Set(0.0);
  drain_cv_.notify_all();
}

Status QueryService::RegisterTable(std::unique_ptr<query::Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable requires a table");
  }
  std::unique_lock<std::shared_mutex> tables_lock(tables_mu_);
  const std::string name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  TableEntry entry;
  entry.core = next_core_;
  next_core_ = (next_core_ + 1) % config_.board->num_cores();
  entry.mu = std::make_unique<std::shared_mutex>();
  entry.table = std::move(table);
  entry.engine = std::make_unique<query::QueryEngine>(
      entry.table.get(), config_.board->core(entry.core));
  entry.engine->SetMaxAttempts(config_.max_attempts);
  if (fault_hook_) entry.engine->SetAttemptFaultHook(fault_hook_);
  if (degraded_routing_) {
    query::PlannerOptions options;
    options.force_route = query::Route::kGalloping;
    options.allow_partition_index = false;
    entry.engine->EnableAdaptivePlanner(options);
  }
  for (const std::string& column : entry.table->ColumnNames()) {
    DBA_RETURN_IF_ERROR(entry.engine->BuildIndex(column));
  }
  tables_.emplace(name, std::move(entry));
  return Status::Ok();
}

Status QueryService::UpdateColumn(const std::string& table,
                                  const std::string& column,
                                  std::vector<uint32_t> values) {
  TableEntry* entry = nullptr;
  {
    std::shared_lock<std::shared_mutex> tables_lock(tables_mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::NotFound("unknown table '" + table + "'");
    }
    // Map nodes are address-stable and never erased: the pointer stays
    // valid after the registry lock drops.
    entry = &it->second;
  }
  {
    std::unique_lock<std::shared_mutex> table_lock(*entry->mu);
    DBA_RETURN_IF_ERROR(entry->table->UpdateColumn(column, std::move(values)));
  }
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  cache_.InvalidateColumn(table, column);
  PublishCacheLocked();
  return Status::Ok();
}

std::future<ServiceResponse> QueryService::Submit(ServiceRequest request) {
  const ServiceInstruments& ins = Instruments();
  Job job;
  job.request = std::move(request);
  std::future<ServiceResponse> future = job.promise.get_future();
  Record(ServiceEvent::kSubmitted);
  if (job.request.predicate == nullptr) {
    // Direct operands are checked once, here: the kernels downstream
    // trust their input order.
    Status valid =
        ValidateOperands(job.request.op, job.request.a, job.request.b);
    if (!valid.ok()) {
      ServiceResponse response;
      response.status = std::move(valid);
      job.promise.set_value(std::move(response));
      return future;
    }
  }
  int priority = job.request.priority;
  const auto boost = config_.tenant_priorities.find(job.request.tenant);
  if (boost != config_.tenant_priorities.end()) priority += boost->second;
  const TenantPolicy* policy = nullptr;
  const auto policy_it = config_.tenant_policies.find(job.request.tenant);
  if (policy_it != config_.tenant_policies.end()) {
    policy = &policy_it->second;
    priority += SloPriorityBoost(policy->slo);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ServiceResponse response;
      response.status = Status::Unavailable("service stopped");
      job.promise.set_value(std::move(response));
      return future;
    }
    job.enqueue_ns = clock_->NowNs();
    if (policy != nullptr) {
      // SLO class: requests without an explicit deadline inherit the
      // class default, relative to the submit time.
      if (job.request.deadline_ns == 0) {
        const uint64_t slo_deadline = SloDefaultDeadlineNs(policy->slo);
        if (slo_deadline != 0) {
          job.request.deadline_ns = job.enqueue_ns + slo_deadline;
        }
      }
      if (policy->rate_per_sec > 0) {
        auto bucket = buckets_.find(job.request.tenant);
        if (bucket == buckets_.end()) {
          bucket = buckets_
                       .emplace(job.request.tenant,
                                TokenBucket(policy->rate_per_sec,
                                            policy->burst))
                       .first;
        }
        if (!bucket->second.TryAcquire(job.enqueue_ns)) {
          Record(ServiceEvent::kRateLimited);
          ServiceResponse response;
          response.status = Status::RateLimited(
              "tenant '" + job.request.tenant +
              "' exceeded its admission rate");
          job.promise.set_value(std::move(response));
          return future;
        }
      }
    }
    const Status admitted = queue_.Push(priority, std::move(job));
    if (!admitted.ok()) {
      // Push leaves the job untouched on overflow: shed explicitly.
      Record(ServiceEvent::kRejected);
      ServiceResponse response;
      response.status = admitted;
      job.promise.set_value(std::move(response));
      return future;
    }
    ins.queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return future;
}

void QueryService::PauseDispatch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = true;
  }
  cv_.notify_all();
}

void QueryService::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    return (queue_.empty() && !dispatching_) || stopping_;
  });
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceCounters QueryService::counters() const {
  ServiceCounters out;
  for (size_t e = 0; e < kNumServiceEvents; ++e) {
    out.*kEventCounters[e].field = tally_[e].load(std::memory_order_relaxed);
  }
  out.breaker_transitions = breaker_->transitions();
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  const CacheStats& stats = cache_.stats();
  out.cache_hits = stats.hits;
  out.cache_misses = stats.misses;
  out.cache_evictions = stats.evictions;
  out.cache_invalidations = stats.invalidations;
  return out;
}

uint64_t QueryService::Record(ServiceEvent event, uint64_t n) {
  const size_t e = static_cast<size_t>(event);
  for (obs::Counter* counter : Instruments().events[e]) {
    if (counter != nullptr) counter->Increment(n);
  }
  return tally_[e].fetch_add(n, std::memory_order_relaxed) + n;
}

void QueryService::PublishCacheLocked() {
  const CacheStats& stats = cache_.stats();
  for (size_t i = 0; i < std::size(kCacheCounters); ++i) {
    const uint64_t CacheStats::*stat = kCacheCounters[i].stat;
    const uint64_t delta = stats.*stat - published_cache_.*stat;
    if (delta != 0) Instruments().cache[i]->Increment(delta);
  }
  published_cache_ = stats;
}

std::vector<std::string> QueryService::CacheKeysMruToLru() const {
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  return cache_.KeysMruToLru();
}

void QueryService::SetAttemptFaultHook(fault::AttemptFaultHook hook) {
  std::unique_lock<std::shared_mutex> tables_lock(tables_mu_);
  fault_hook_ = std::move(hook);
  for (auto& [name, entry] : tables_) {
    (void)name;
    entry.engine->SetAttemptFaultHook(fault_hook_);
  }
}

void QueryService::SetDegradedRouting(bool degraded) {
  std::unique_lock<std::shared_mutex> tables_lock(tables_mu_);
  if (degraded_routing_ == degraded) return;
  degraded_routing_ = degraded;
  for (auto& [name, entry] : tables_) {
    (void)name;
    // The per-table lock serializes against any in-flight query of the
    // table (none can be: only the scheduler thread executes queries,
    // and it is the caller here).
    std::unique_lock<std::shared_mutex> table_lock(*entry.mu);
    if (degraded) {
      query::PlannerOptions options;
      options.force_route = query::Route::kGalloping;
      options.allow_partition_index = false;
      entry.engine->EnableAdaptivePlanner(options);
    } else {
      entry.engine->DisableAdaptivePlanner();
    }
  }
}

uint64_t QueryService::OldestEnqueueNsLocked() const {
  uint64_t oldest = UINT64_MAX;
  queue_.ForEach(
      [&](const Job& job) { oldest = std::min(oldest, job.enqueue_ns); });
  return oldest == UINT64_MAX ? 0 : oldest;
}

void QueryService::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) return;

    if (config_.batch_window_ns > 0) {
      // Hold the batch open until the oldest pending request has waited
      // a full window, or the batch is already full. New arrivals and
      // clock advances both notify cv_, so the deadline re-derives from
      // the (possibly older) oldest request each pass.
      while (!stopping_ && !paused_ && !queue_.empty() &&
             queue_.size() < static_cast<size_t>(config_.max_batch)) {
        const uint64_t deadline =
            OldestEnqueueNsLocked() + config_.batch_window_ns;
        if (clock_->NowNs() >= deadline) break;
        clock_->WaitUntil(lock, cv_, deadline);
      }
      if (stopping_) return;
      if (paused_ || queue_.empty()) continue;
    }

    std::vector<Job> batch;
    batch.reserve(static_cast<size_t>(config_.max_batch));
    Job job;
    while (batch.size() < static_cast<size_t>(config_.max_batch) &&
           queue_.Pop(&job)) {
      batch.push_back(std::move(job));
    }
    Instruments().queue_depth->Set(static_cast<double>(queue_.size()));
    dispatching_ = true;
    lock.unlock();
    ExecuteBatch(std::move(batch));
    lock.lock();
    dispatching_ = false;
    drain_cv_.notify_all();
  }
}

void QueryService::ExecuteBatch(std::vector<Job> batch) {
  const ServiceInstruments& ins = Instruments();
  const uint64_t start_ns = clock_->NowNs();
  const uint64_t transitions_before = breaker_->transitions();
  const uint32_t batch_size = static_cast<uint32_t>(batch.size());
  const uint64_t batch_ordinal = Record(ServiceEvent::kBatches);
  ins.batch_size->Observe(batch_size);
  if (config_.trace_sink != nullptr) {
    config_.trace_sink->BeginRegion(
        start_ns, "service batch " + std::to_string(batch_ordinal) + " (" +
                      std::to_string(batch_size) + " requests)");
  }

  /// One distinct piece of work in the batch; identical requests
  /// (same predicate+table, or same direct op+inputs) share a Unique.
  struct Unique {
    size_t owner = 0;  // first batch index with this work
    bool is_predicate = false;
    std::string key;   // predicate cache key ("" for direct ops)
    bool ready = false;
    Status status = Status::Internal("not executed");
    std::vector<uint32_t> values{};
    bool cache_hit = false;
    bool degraded = false;
    uint32_t retries = 0;
    uint64_t cycles = 0;
    TableEntry* entry = nullptr;
    std::vector<ColumnVersion> versions{};  // stamped at execution
  };
  std::vector<Unique> uniques;
  std::vector<int> unique_of(batch.size(), -1);  // -1 = shed

  // Shed expired deadlines, then deduplicate the rest.
  for (size_t i = 0; i < batch.size(); ++i) {
    const ServiceRequest& request = batch[i].request;
    if (request.deadline_ns != 0 && start_ns > request.deadline_ns) {
      Record(ServiceEvent::kShed);
      continue;
    }
    const bool is_predicate = request.predicate != nullptr;
    std::string key =
        is_predicate
            ? "q|" + request.table + "|" + request.predicate->ToString()
            : std::string();
    int found = -1;
    for (size_t u = 0; u < uniques.size() && found < 0; ++u) {
      const ServiceRequest& other = batch[uniques[u].owner].request;
      if (uniques[u].is_predicate != is_predicate) continue;
      if (is_predicate ? uniques[u].key == key
                       : other.op == request.op && other.a == request.a &&
                             other.b == request.b) {
        found = static_cast<int>(u);
      }
    }
    if (found < 0) {
      found = static_cast<int>(uniques.size());
      uniques.push_back(
          {.owner = i, .is_predicate = is_predicate, .key = std::move(key)});
    }
    unique_of[i] = found;
    if (uniques[static_cast<size_t>(found)].owner != i) {
      Record(ServiceEvent::kDeduplicated);
    }
  }

  // Resolve predicate work against the table registry.
  {
    std::shared_lock<std::shared_mutex> tables_lock(tables_mu_);
    for (Unique& unique : uniques) {
      if (!unique.is_predicate) continue;
      const ServiceRequest& request = batch[unique.owner].request;
      auto it = tables_.find(request.table);
      if (it == tables_.end()) {
        unique.status =
            Status::NotFound("unknown table '" + request.table + "'");
        unique.ready = true;
        continue;
      }
      unique.entry = &it->second;  // map nodes are address-stable
    }
  }

  // Result-cache lookups (scheduler thread only; cache_mu_ guards
  // against concurrent UpdateColumn invalidation and inspection).
  for (Unique& unique : uniques) {
    if (!unique.is_predicate || unique.ready) continue;
    Result<std::vector<ColumnVersion>> current = [&] {
      std::shared_lock<std::shared_mutex> table_lock(*unique.entry->mu);
      return StampVersions(*unique.entry->table, batch[unique.owner].request);
    }();
    if (!current.ok()) continue;  // execution reports the real error
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    if (cache_.Lookup(unique.key, *current, &unique.values)) {
      unique.cache_hit = true;
      unique.status = Status::Ok();
      unique.ready = true;
    }
  }

  // Direct set operations: one multi-request board batch, governed by
  // the circuit breaker, a shared deadline budget, and the service's
  // deadline-aware retry policy. The batch's retries (service re-submits
  // plus the board's recovery retries) are reported on every direct
  // response, like the batch makespan.
  uint64_t direct_retries = 0;
  std::vector<size_t> direct;
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (!uniques[u].is_predicate && !uniques[u].ready) direct.push_back(u);
  }
  if (!direct.empty()) {
    const int n_cores = config_.board->num_cores();

    // The direct riders and the batch's wall deadline: the largest
    // remaining deadline among them (a rider with no deadline leaves the
    // batch unbounded -- never cut work short that someone still wants).
    uint64_t riders = 0;
    uint64_t batch_deadline_ns = 0;
    bool unbounded = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (unique_of[i] < 0) continue;
      const Unique& unique = uniques[static_cast<size_t>(unique_of[i])];
      if (unique.is_predicate || unique.ready) continue;
      ++riders;
      const uint64_t deadline = batch[i].request.deadline_ns;
      if (deadline == 0) {
        unbounded = true;
      } else {
        batch_deadline_ns = std::max(batch_deadline_ns, deadline);
      }
    }
    if (unbounded) batch_deadline_ns = 0;

    // Wall deadline -> simulated-cycle budget for the board's recovery
    // ladder: the board's simulated makespan at f_max must fit in the
    // remaining wall time (deterministic: derived from the service
    // clock, not host time).
    system::Board::BatchOptions board_options;
    if (batch_deadline_ns != 0) {
      const uint64_t remaining_ns =
          batch_deadline_ns > start_ns ? batch_deadline_ns - start_ns : 1;
      board_options.deadline_cycles = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(remaining_ns) *
                                   config_.board->core_frequency_hz() /
                                   1e9));
    }

    std::vector<system::Board::BatchItem> items;
    items.reserve(direct.size());
    for (const size_t u : direct) {
      const ServiceRequest& request = batch[uniques[u].owner].request;
      items.push_back(
          system::Board::BatchItem{request.op, request.a, request.b});
    }

    // Consult the breaker: open routes around the board entirely;
    // half-open grants a bounded number of probe dispatches.
    bool use_board = true;
    if (config_.breaker.enabled) {
      const BreakerState state = breaker_->StateAt(start_ns);
      if (state == BreakerState::kOpen) {
        use_board = false;
      } else if (state == BreakerState::kHalfOpen) {
        use_board = breaker_->AllowProbe(start_ns);
      }
    }

    Result<system::Board::BatchRun> run =
        Status::Unavailable("circuit breaker open");
    if (use_board) {
      // Deadline-aware re-submit ladder: backoff delays are modeled
      // against the riders' shared deadline, so a retry that could only
      // finish past expiry is never attempted.
      RetryBudget budget(config_.retry, batch_deadline_ns, batch_ordinal);
      uint64_t modeled_delay_ns = 0;
      while (true) {
        run = config_.board->RunSetOperationBatch(items, board_options);
        if (run.ok()) {
          breaker_->OnBoardResult(true, &run->run.recovery, n_cores,
                                  start_ns);
          break;
        }
        breaker_->OnBoardResult(false, nullptr, n_cores, start_ns);
        if (!IsTransient(run.status().code())) break;
        if (config_.breaker.enabled &&
            breaker_->StateAt(start_ns) == BreakerState::kOpen) {
          break;  // tripped mid-ladder: fall through to degraded mode
        }
        const std::optional<uint64_t> delay =
            budget.NextDelayNs(start_ns + modeled_delay_ns);
        if (!delay.has_value()) break;
        modeled_delay_ns += *delay;
        ++direct_retries;
      }
    }

    if (run.ok()) {
      direct_retries += run->run.recovery.retries;
      for (size_t k = 0; k < direct.size(); ++k) {
        Unique& unique = uniques[direct[k]];
        unique.values = std::move(run->results[k]);
        unique.status = Status::Ok();
        // Per-item cycles are not individually attributable: every
        // direct response of the batch reports the batch makespan.
        unique.cycles = run->run.makespan_cycles;
        unique.ready = true;
      }
    } else if (config_.host_fallback && config_.breaker.enabled &&
               breaker_->StateAt(start_ns) == BreakerState::kOpen) {
      // Degraded mode: the breaker is open (either at batch start or
      // tripped by the failures above), so the planner's host kernels
      // stand in for the board -- bit-exact results, flagged degraded.
      for (const size_t u : direct) {
        const ServiceRequest& request = batch[uniques[u].owner].request;
        Result<std::vector<uint32_t>> fallback =
            RunHostFallbackOp(request.op, request.a, request.b);
        Unique& unique = uniques[u];
        if (fallback.ok()) {
          unique.values = std::move(*fallback);
          unique.status = Status::Ok();
          unique.degraded = true;
          unique.cycles = 0;
        } else {
          unique.status = fallback.status();
        }
        unique.ready = true;
      }
    } else if (!use_board) {
      // Breaker open, fallback disabled: a typed per-request shed.
      Record(ServiceEvent::kBreakerSheds, riders);
      for (const size_t u : direct) {
        uniques[u].status = Status::Unavailable(
            "circuit breaker open and host fallback disabled");
        uniques[u].ready = true;
      }
    } else {
      for (const size_t u : direct) {
        uniques[u].status = run.status();
        uniques[u].ready = true;
      }
    }
    for (const size_t u : direct) {
      uniques[u].retries = static_cast<uint32_t>(direct_retries);
    }
  }

  // Keep predicate routing in step with the breaker: while open,
  // RID-set intersections take the planner's host routes instead of
  // the board cores' EIS datapath.
  const bool degrade_predicates =
      config_.breaker.enabled &&
      breaker_->StateAt(start_ns) == BreakerState::kOpen;
  SetDegradedRouting(degrade_predicates);

  // Predicate queries: engines grouped by their pinned board core (one
  // thread per core; a core's tables run back to back), fanned out over
  // the board's host pool when available.
  std::vector<std::vector<size_t>> groups(
      static_cast<size_t>(config_.board->num_cores()));
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (uniques[u].is_predicate && !uniques[u].ready) {
      groups[static_cast<size_t>(uniques[u].entry->core)].push_back(u);
    }
  }
  std::erase_if(groups, [](const auto& group) { return group.empty(); });
  const auto run_group = [&](size_t gi) {
    for (const size_t uidx : groups[gi]) {
      Unique& unique = uniques[uidx];
      const ServiceRequest& request = batch[unique.owner].request;
      std::shared_lock<std::shared_mutex> table_lock(*unique.entry->mu);
      // Stamp versions under the same shared lock that covers the
      // execution: UpdateColumn's unique lock cannot interleave, so
      // the stamps and the computed values are mutually consistent.
      Result<std::vector<ColumnVersion>> versions =
          StampVersions(*unique.entry->table, request);
      if (!versions.ok()) {
        unique.status = versions.status();
        unique.ready = true;
        continue;
      }
      unique.versions = *std::move(versions);
      query::QueryStats stats;
      Result<std::vector<query::Rid>> result =
          unique.entry->engine->Select(*request.predicate, &stats);
      unique.retries = stats.retries;
      if (result.ok()) {
        unique.values = std::move(*result);
        unique.status = Status::Ok();
        unique.cycles = stats.accelerator_cycles;
        // Freshly executed under forced host routing: the values are
        // bit-identical, but the venue was degraded. (Cache hits keep
        // degraded = false -- they were computed before the outage.)
        unique.degraded = degrade_predicates;
      } else {
        unique.status = result.status();
      }
      unique.ready = true;
    }
  };
  common::ThreadPool* pool = config_.board->host_pool();
  if (pool != nullptr && groups.size() > 1) {
    pool->ParallelFor(groups.size(), run_group);
  } else {
    for (size_t gi = 0; gi < groups.size(); ++gi) run_group(gi);
  }

  // Fresh predicate results enter the cache with their version stamps.
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (Unique& unique : uniques) {
      if (unique.is_predicate && unique.status.ok() && !unique.cache_hit) {
        cache_.Insert(unique.key, unique.values, unique.versions);
      }
    }
    PublishCacheLocked();
  }

  uint64_t retries = direct_retries;
  for (const Unique& unique : uniques) {
    if (unique.is_predicate) retries += unique.retries;
  }
  if (retries > 0) Record(ServiceEvent::kRetries, retries);

  // Fulfill every promise (shed requests included) exactly once.
  const uint64_t done_ns = clock_->NowNs();
  for (size_t i = 0; i < batch.size(); ++i) {
    ServiceResponse response;
    response.batch_size = batch_size;
    response.dispatch_seq = ++dispatch_seq_;
    if (unique_of[i] < 0) {
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
    } else {
      const Unique& unique = uniques[static_cast<size_t>(unique_of[i])];
      response.status = unique.status;
      response.values = unique.values;
      response.cache_hit = unique.cache_hit;
      response.deduplicated = unique.owner != i;
      response.retries = unique.retries;
      response.accelerator_cycles = unique.cycles;
      response.degraded = unique.degraded;
      if (unique.degraded) Record(ServiceEvent::kDegraded);
      Record(ServiceEvent::kDispatched);
    }
    ins.latency_ns->Observe(done_ns - batch[i].enqueue_ns);
    batch[i].promise.set_value(std::move(response));
  }
  // The breaker is published from its own state: its state as of now and
  // the transitions this batch made.
  const BreakerState state = breaker_->StateAt(done_ns);
  breaker_state_.store(static_cast<uint8_t>(state),
                       std::memory_order_relaxed);
  ins.breaker_state->Set(static_cast<double>(state));
  const uint64_t transitions = breaker_->transitions() - transitions_before;
  if (transitions != 0) ins.breaker_transitions->Increment(transitions);
  if (config_.trace_sink != nullptr) {
    config_.trace_sink->EndRegion(done_ns);
  }
}

}  // namespace dba::service
