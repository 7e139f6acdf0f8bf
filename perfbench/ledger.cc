// Service ledger benchmark: one seeded, closed-loop workload against
// service::QueryService on a 4-core DBA_2LSU_EIS board.
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--out <dir>]
//
// One generator thread keeps a fixed number of requests in flight (a
// closed loop: callers that wait for their replies). Inputs are pure
// functions of (seed, request index): the generator builds request i
// while earlier ones execute, fingerprints each response, and the
// oracles of workload.h check every fingerprint after the timed window,
// so checking never throttles the load. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before
// it ({"detail": ...}) carries sample counts, p99/p99.9 and the traffic
// self-checks. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/fault.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/metrics/metrics.h"
#include "obs/metrics_json.h"
#include "service/query_service.h"
#include "sim/trace_sink.h"
#include "system/board.h"
#include "workload.h"

namespace dba::perfbench {
namespace {

enum class Kind { kDirectMix, kSelectCold, kSelectHotRw, kOutage };

struct Spec {
  const char* name;
  Kind kind;
  size_t in_flight;  // requests the generator keeps outstanding
  size_t warmup;     // requests per set-up before the timed window
};

// The direct workloads keep three of the service's 64-request batches in
// flight, so the scheduler always finds a full batch queued when one
// finishes: the figures then follow the service's capacity, not how fast
// the host wakes a thread that ran out of work.
constexpr Spec kSpecs[] = {
    {"direct_mix", Kind::kDirectMix, 192, 768},
    {"select_cold", Kind::kSelectCold, 4, 24},
    {"select_hot_rw", Kind::kSelectHotRw, 8, 64},
    {"outage", Kind::kOutage, 192, 3072},
};

constexpr int kSetups = 3;               // setup_s is their median
constexpr size_t kSlices = 5;            // throughput/p50/p95: slice medians
constexpr size_t kCheckThreads = 3;      // post-window oracle checks
constexpr size_t kHotPool = 1024;        // 8x the cache's 128 entries
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kReadsPerUpdate = 256;
constexpr size_t kSimSampleOps = 4096;   // sim_melem_per_s, direct ops
const size_t kMaxBatch =
    static_cast<size_t>(service::ServiceConfig{}.max_batch);
constexpr size_t kSimSamplePredicates = 64;
constexpr size_t kLayerSampleOps = 256;  // traced per-layer replays
constexpr size_t kLayerSamplePredicates = 32;
constexpr int kTrackGenerator = 1;
constexpr int kTrackScheduler = 2;
const char* const kTable = "orders";

bool IsDirect(Kind k) { return k == Kind::kDirectMix || k == Kind::kOutage; }

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".";
};

/// One request (or, on select_hot_rw, one read) as the generator saw it.
struct Record {
  uint64_t index = 0;  // stream index: rebuilds the inputs
  uint32_t pool = 0;   // select_hot_rw: pool entry read
  uint32_t epoch = 0;  // select_hot_rw: updates applied before submit
  uint64_t submit_ns = 0;
  uint64_t submitted_ns = 0;  // Submit returned (traced runs)
  uint64_t done_ns = 0;
  uint64_t dispatch_seq = 0;
  uint64_t fingerprint = 0;
  uint32_t size = 0;
  bool ok = false;
  bool cache_hit = false;
  bool deduplicated = false;
  bool degraded = false;
};

static_assert(std::is_trivially_copyable_v<Record>);

/// Append-only file of Records. The generator spills every record here
/// instead of growing a vector, so the process's resident memory during
/// the window does not grow with the number of requests served.
class RecordLog {
 public:
  explicit RecordLog(std::string path) : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), "w+b");
    if (file_ != nullptr) setvbuf(file_, buffer_, _IOFBF, sizeof(buffer_));
  }
  ~RecordLog() {
    if (file_ != nullptr) std::fclose(file_);
    std::remove(path_.c_str());
  }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  bool ok() const { return file_ != nullptr && !failed_; }
  void Add(const Record& r) {
    failed_ |= file_ == nullptr || std::fwrite(&r, sizeof(r), 1, file_) != 1;
  }
  /// Every record written so far, in order.
  std::vector<Record> ReadAll() {
    std::vector<Record> records;
    if (!ok()) return records;
    failed_ |= std::fflush(file_) != 0;
    const long bytes = std::ftell(file_);
    records.resize(static_cast<size_t>(bytes) / sizeof(Record));
    std::rewind(file_);
    failed_ |= std::fread(records.data(), sizeof(Record), records.size(),
                          file_) != records.size();
    return records;
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
  char buffer_[1 << 16];
};

/// The workload's inputs: everything derives from the seed.
class Workload {
 public:
  Workload(const Spec& spec, uint64_t seed)
      : spec_(spec), seed_(seed), zipf_(kHotPool, kZipfExponent) {
    if (!IsDirect(spec.kind)) columns_ = MakeColumns(seed);
    if (spec.kind == Kind::kSelectHotRw) {
      for (uint64_t j = 0; j < kHotPool; ++j) {
        pool_.push_back(MakePredicate(Mix(seed ^ 0x4077ull), j));
      }
      rank_to_pool_.resize(kHotPool);
      for (uint32_t j = 0; j < kHotPool; ++j) rank_to_pool_[j] = j;
      Rng rng(Mix(seed ^ 0x9E47ull));
      for (size_t j = kHotPool - 1; j > 0; --j) {
        std::swap(rank_to_pool_[j], rank_to_pool_[rng.Below(j + 1)]);
      }
    }
  }

  const Spec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  const Columns& columns() const { return columns_; }

  /// select_hot_rw: the pool entry read number `index` draws.
  uint32_t PoolIndex(uint64_t index) const {
    Rng rng(Mix(seed_ ^ 0x21Full) + index * 0x9E3779B97F4A7C15ull);
    return rank_to_pool_[zipf_.Sample(rng)];
  }

  std::shared_ptr<const query::Predicate> Predicate(uint64_t index) const {
    return spec_.kind == Kind::kSelectHotRw ? pool_[PoolIndex(index)]
                                            : MakePredicate(seed_, index);
  }

  /// Predicate `i` of the replay samples: the stream's own predicates on
  /// select_cold, pool entries in pool order on select_hot_rw (the read
  /// stream repeats its hot entries, which would shrink the sample).
  std::shared_ptr<const query::Predicate> SamplePredicate(uint64_t i) const {
    return spec_.kind == Kind::kSelectHotRw ? pool_[i % kHotPool]
                                            : MakePredicate(seed_, i);
  }

  service::ServiceRequest Request(uint64_t index, Record* record) const {
    service::ServiceRequest request;
    request.tenant = "ledger";
    record->index = index;
    if (IsDirect(spec_.kind)) {
      DirectOp op = MakeDirectOp(seed_, index);
      request.op = op.op;
      request.a = std::move(op.a);
      request.b = std::move(op.b);
    } else {
      request.table = kTable;
      request.predicate = Predicate(index);
      if (spec_.kind == Kind::kSelectHotRw) record->pool = PoolIndex(index);
    }
    return request;
  }

 private:
  const Spec& spec_;
  uint64_t seed_;
  Columns columns_;
  std::vector<std::shared_ptr<const query::Predicate>> pool_;
  std::vector<uint32_t> rank_to_pool_;
  Zipf zipf_;
};

/// Records the service's batch regions (ServiceConfig::trace_sink):
/// start, end and request count of every dispatch, in dispatch order.
class BatchRecorder : public sim::CycleTraceSink {
 public:
  struct Batch {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t size = 0;
  };

  void BeginRegion(uint64_t ns, std::string_view name) override {
    // Region names read "service batch <k> (<n> requests)".
    uint64_t size = 0;
    const size_t open = name.rfind('(');
    if (open != std::string_view::npos) {
      size = std::strtoull(std::string(name.substr(open + 1)).c_str(),
                           nullptr, 10);
    }
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(Batch{ns, 0, size});
  }
  void EndRegion(uint64_t ns) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!batches_.empty()) batches_.back().end_ns = ns;
  }
  void Counter(uint64_t, std::string_view, double) override {}

  std::vector<Batch> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Batch> batches_;
};

/// A board and the service in front of it.
struct Live {
  std::unique_ptr<system::Board> board;
  std::unique_ptr<service::QueryService> service;
};

bool CreateLive(const Workload& w, sim::CycleTraceSink* sink, Live* live,
                std::string* error) {
  system::BoardConfig board_config;
  board_config.num_cores = kBoardCores;
  board_config.host_threads = kHostThreads;
  auto board = system::Board::Create(board_config);
  if (!board.ok()) {
    *error = board.status().ToString();
    return false;
  }
  live->board = *std::move(board);
  service::ServiceConfig config;
  config.board = live->board.get();
  config.clock = &LedgerClock();
  config.trace_sink = sink;
  if (w.spec().kind == Kind::kOutage) {
    fault::FaultPlan plan;
    for (int core = 0; core < kBoardCores; ++core) {
      plan.broken_cores.push_back(core);
    }
    const Status set = live->board->SetFaultPlan(plan);
    if (!set.ok()) {
      *error = set.ToString();
      return false;
    }
    // Open on the first failed batch and stay open: every later answer
    // comes from the host-fallback kernels.
    config.retry.max_retries = 0;
    config.breaker.failure_threshold = 1;
    config.breaker.open_duration_ns = 3600ull * 1000 * 1000 * 1000;
  }
  auto service = service::QueryService::Create(config);
  if (!service.ok()) {
    *error = service.status().ToString();
    return false;
  }
  live->service = *std::move(service);
  if (!IsDirect(w.spec().kind)) {
    const Status registered = live->service->RegisterTable(
        std::make_unique<query::Table>(MakeTable(kTable, w.columns())));
    if (!registered.ok()) {
      *error = registered.ToString();
      return false;
    }
  }
  return true;
}

struct UpdateLog {
  uint64_t count = 0;
  uint64_t failed = 0;
  double total_ns = 0;
};

/// The closed-loop generator: keeps `in_flight` requests outstanding,
/// builds the next ones while it waits, stamps submit and completion
/// times, and fingerprints each response.
class Generator {
 public:
  Generator(const Workload& w, service::QueryService* service, SpanLog* spans)
      : w_(w), service_(service), spans_(spans) {}

  /// Issues requests first, first+1, ... until `count` were issued or
  /// the clock passes `end_ns` (0 = no time limit). With `updates`, a
  /// column update follows every kReadsPerUpdate reads, after the reads
  /// before it completed, so each read sees exactly one column version.
  void Run(uint64_t first, uint64_t count, uint64_t end_ns, bool updates,
           RecordLog* out, UpdateLog* update_log) {
    uint64_t next = first;
    uint64_t issued = 0;
    uint64_t reads_since_update = 0;
    bool stopping = false;
    while (true) {
      while (!stopping && pending_.size() < w_.spec().in_flight) {
        if (issued == count || (end_ns != 0 && NowNs() >= end_ns)) {
          stopping = true;
          break;
        }
        if (updates && reads_since_update == kReadsPerUpdate) {
          if (!pending_.empty()) break;  // drain first
          Update(update_log);
          reads_since_update = 0;
          continue;
        }
        Submit(next++);
        ++issued;
        ++reads_since_update;
      }
      if (pending_.empty()) break;  // only once stopping
      // Build upcoming requests while the oldest one executes.
      while (prepared_.size() < w_.spec().in_flight && !stopping &&
             pending_.front().future.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready) {
        Prepare(next + prepared_.size());
      }
      pending_.front().future.wait();
      Harvest(out);
    }
  }

 private:
  struct Prepared {
    service::ServiceRequest request;
    Record record;
  };
  struct Pending {
    Record record;
    std::future<service::ServiceResponse> future;
  };

  void Prepare(uint64_t index) {
    Prepared p;
    p.request = w_.Request(index, &p.record);
    prepared_.push_back(std::move(p));
  }

  /// prepared_ always holds the indices that follow the last submitted
  /// one, in order.
  void Submit(uint64_t index) {
    if (prepared_.empty()) Prepare(index);
    Pending p;
    p.record = prepared_.front().record;
    p.record.epoch = epoch_;
    p.record.submit_ns = NowNs();
    p.future = service_->Submit(std::move(prepared_.front().request));
    if (spans_ != nullptr) {
      p.record.submitted_ns = NowNs();
      spans_->Add("service.submit", kTrackGenerator, p.record.submit_ns,
                  p.record.submitted_ns, index);
    }
    prepared_.pop_front();
    pending_.push_back(std::move(p));
  }

  /// Collects every ready response, oldest first.
  void Harvest(RecordLog* out) {
    const uint64_t now = NowNs();
    bool front = true;  // the caller waited for the oldest one
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (!front && it->future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        ++it;
        continue;
      }
      front = false;
      const service::ServiceResponse response = it->future.get();
      Record r = it->record;
      r.done_ns = now;
      r.ok = response.status.ok();
      if (!r.ok && failures_logged_++ < 5) {
        std::fprintf(stderr, "ledger: request %llu failed: %s\n",
                     static_cast<unsigned long long>(r.index),
                     response.status.ToString().c_str());
      }
      r.dispatch_seq = response.dispatch_seq;
      r.fingerprint = Fingerprint(response.values);
      r.size = static_cast<uint32_t>(response.values.size());
      r.cache_hit = response.cache_hit;
      r.deduplicated = response.deduplicated;
      r.degraded = response.degraded;
      out->Add(r);
      it = pending_.erase(it);
    }
  }

  void Update(UpdateLog* log) {
    ++epoch_;
    const int column = static_cast<int>((epoch_ - 1) % kNumColumns);
    std::vector<uint32_t> values =
        MakeUpdateValues(w_.seed(), epoch_, column);
    const uint64_t t0 = NowNs();
    const Status status = service_->UpdateColumn(kTable, kColumnNames[column],
                                                 std::move(values));
    const uint64_t t1 = NowNs();
    if (spans_ != nullptr) {
      spans_->Add("service.update", kTrackGenerator, t0, t1, epoch_);
    }
    ++log->count;
    log->total_ns += static_cast<double>(t1 - t0);
    if (!status.ok()) {
      ++log->failed;
      std::fprintf(stderr, "ledger: UpdateColumn failed: %s\n",
                   status.ToString().c_str());
    }
  }

  const Workload& w_;
  service::QueryService* service_;
  SpanLog* spans_;
  std::deque<Prepared> prepared_;
  std::deque<Pending> pending_;
  uint32_t epoch_ = 0;
  int failures_logged_ = 0;
};

/// Runs check(i) for i in [0, n) on kCheckThreads threads and returns
/// the indices it failed, ascending.
template <typename Check>
std::vector<size_t> ParallelFailures(size_t n, const Check& check) {
  std::vector<std::vector<size_t>> found(kCheckThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kCheckThreads) {
        if (check(i)) found[t].push_back(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<size_t> failed;
  for (const auto& part : found) {
    failed.insert(failed.end(), part.begin(), part.end());
  }
  std::sort(failed.begin(), failed.end());
  return failed;
}

bool Matches(const Record& r, std::span<const uint32_t> expected) {
  return r.size == expected.size() && r.fingerprint == Fingerprint(expected);
}

/// Checks every record against the oracles; returns the number of
/// failed or mismatched requests. Records of select_hot_rw are checked
/// against the column version of their epoch.
uint64_t CheckRecords(const Workload& w, const std::vector<Record>& records) {
  std::vector<size_t> failed;
  if (w.spec().kind != Kind::kSelectHotRw) {
    failed = ParallelFailures(records.size(), [&](size_t i) {
      const Record& r = records[i];
      if (!r.ok) return true;
      if (IsDirect(w.spec().kind)) {
        const DirectOp op = MakeDirectOp(w.seed(), r.index);
        return !Matches(r, DirectOracle(op.op, op.a, op.b));
      }
      return !Matches(r, ScanOracle(*w.Predicate(r.index), w.columns()));
    });
  } else {
    // Serial: epochs replay the column updates in order, and a pool
    // entry's answer is reused until an update touches its columns.
    Columns columns = w.columns();
    uint32_t epoch = 0;
    struct Expected {
      uint64_t fingerprint;
      uint32_t size;
      uint32_t mask;
    };
    std::map<uint32_t, Expected> memo;  // by pool entry
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      while (epoch < r.epoch) {
        ++epoch;
        const int column = static_cast<int>((epoch - 1) % kNumColumns);
        columns.values[column] = MakeUpdateValues(w.seed(), epoch, column);
        std::erase_if(memo, [&](const auto& entry) {
          return (entry.second.mask >> column) & 1u;
        });
      }
      if (!r.ok) {
        failed.push_back(i);
        continue;
      }
      auto it = memo.find(r.pool);
      if (it == memo.end()) {
        const auto predicate = w.Predicate(r.index);
        const std::vector<uint32_t> rids = ScanOracle(*predicate, columns);
        it = memo.emplace(r.pool, Expected{Fingerprint(rids),
                                           static_cast<uint32_t>(rids.size()),
                                           ColumnMask(*predicate)})
                 .first;
      }
      if (r.size != it->second.size ||
          r.fingerprint != it->second.fingerprint) {
        failed.push_back(i);
      }
    }
  }
  for (size_t k = 0; k < failed.size() && k < 5; ++k) {
    const Record& r = records[failed[k]];
    std::fprintf(stderr, "ledger: request %llu: %s\n",
                 static_cast<unsigned long long>(r.index),
                 r.ok ? "result differs from the oracle" : "non-OK status");
  }
  return failed.size();
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

int Run(const Options& opt) {
  const Spec& spec = *opt.spec;
  const Workload w(spec, opt.seed);
  std::string error;
  bool correct = true;
  const auto violate = [&](const std::string& what) {
    correct = false;
    std::fprintf(stderr, "ledger: self-check failed: %s\n", what.c_str());
  };

  std::error_code dir_error;
  std::filesystem::create_directories(opt.out_dir, dir_error);

  // --- Set-up, kSetups times; the last one serves the timed window. ---
  BatchRecorder recorder;
  std::vector<double> setup_seconds;
  Live live;
  for (int s = 0; s < kSetups; ++s) {
    live.service.reset();  // before the board it points to
    live.board.reset();
    const bool last = s + 1 == kSetups;
    // The registry snapshot covers the serving life of the last service.
    if (last) obs::MetricsRegistry::Global().Reset();
    const uint64_t t0 = NowNs();
    if (!CreateLive(w, last && opt.trace ? &recorder : nullptr, &live,
                    &error)) {
      std::fprintf(stderr, "ledger: set-up failed: %s\n", error.c_str());
      return 2;
    }
    RecordLog warm(opt.out_dir + "/warmup.records");
    UpdateLog no_updates;
    Generator(w, live.service.get(), nullptr)
        .Run(0, spec.warmup, 0, false, &warm, &no_updates);
    setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const uint64_t warm_failed = CheckRecords(w, warm.ReadAll());
    if (!warm.ok()) {
      std::fprintf(stderr, "ledger: cannot spill records to %s\n",
                   opt.out_dir.c_str());
      return 2;
    }
    if (warm_failed != 0) {
      std::fprintf(stderr, "ledger: %llu warm-up requests failed\n",
                   static_cast<unsigned long long>(warm_failed));
      return 2;
    }
  }

  // --- Timed window. ---
  SpanLog spans;
  const service::ServiceCounters before = live.service->counters();
  RecordLog log(opt.out_dir + "/window.records");
  UpdateLog updates;
  const uint64_t start_ns = NowNs();
  const uint64_t end_ns =
      start_ns + static_cast<uint64_t>(opt.seconds * 1e9);
  Generator(w, live.service.get(), opt.trace ? &spans : nullptr)
      .Run(spec.warmup, UINT64_MAX, end_ns,
           spec.kind == Kind::kSelectHotRw, &log, &updates);
  live.service->Drain();
  const service::ServiceCounters after = live.service->counters();
  // Peak RSS of set-up and serving, before the checks and replays.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const uint64_t failed_attempts =
      obs::MetricsRegistry::Global()
          .GetCounter("dba_system_failed_attempts_total")
          ->Value();

  const std::vector<Record> records = log.ReadAll();
  if (!log.ok()) {
    std::fprintf(stderr, "ledger: cannot spill records to %s\n",
                 opt.out_dir.c_str());
    return 2;
  }

  // --- Checks (off the timed path). ---
  const uint64_t attempted = records.size() + updates.count;
  const uint64_t failed = CheckRecords(w, records) + updates.failed;
  if (failed != 0) correct = false;

  std::vector<double> latency_ms;
  uint64_t completed = 0;
  uint64_t hits = 0;
  uint64_t dedups = 0;
  uint64_t degraded = 0;
  for (const Record& r : records) {
    latency_ms.push_back(static_cast<double>(r.done_ns - r.submit_ns) / 1e6);
    completed += r.done_ns <= end_ns ? 1 : 0;
    hits += r.cache_hit ? 1 : 0;
    dedups += r.deduplicated ? 1 : 0;
    degraded += r.ok && r.degraded ? 1 : 0;
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  // The window splits into kSlices equal slices by completion time; the
  // reported throughput and percentiles are medians over the slices, so
  // a burst of host noise inside one slice does not move them. The
  // whole-window figures go to the detail line.
  const double slice_ns = opt.seconds * 1e9 / kSlices;
  std::vector<std::vector<double>> slice_latency(kSlices);
  for (const Record& r : records) {
    if (r.done_ns > end_ns) continue;
    const size_t k = std::min<size_t>(
        kSlices - 1,
        static_cast<size_t>(static_cast<double>(r.done_ns - start_ns) /
                            slice_ns));
    slice_latency[k].push_back(static_cast<double>(r.done_ns - r.submit_ns) /
                               1e6);
  }
  std::vector<double> slice_rps;
  std::vector<double> slice_p50;
  std::vector<double> slice_p95;
  for (std::vector<double>& v : slice_latency) {
    std::sort(v.begin(), v.end());
    slice_rps.push_back(static_cast<double>(v.size()) / (slice_ns / 1e9));
    slice_p50.push_back(Quantile(v, 0.50));
    slice_p95.push_back(Quantile(v, 0.95));
  }
  const uint64_t reads = records.size();
  const uint64_t lookups = (after.cache_hits + after.cache_misses) -
                           (before.cache_hits + before.cache_misses);

  obs::JsonValue detail = obs::JsonValue::Object();
  detail.Set("workload", spec.name)
      .Set("seed", opt.seed)
      .Set("host_threads", kHostThreads)
      .Set("in_flight", spec.in_flight)
      .Set("setup_first_s", setup_seconds.front())
      .Set("latency_samples", latency_ms.size())
      .Set("completed_in_window", completed)
      .Set("slices", kSlices)
      .Set("min_slice_samples",
           std::min_element(slice_latency.begin(), slice_latency.end(),
                            [](const auto& x, const auto& y) {
                              return x.size() < y.size();
                            })->size())
      .Set("window_throughput_rps", static_cast<double>(completed) /
                                        opt.seconds)
      .Set("window_p50_ms", Quantile(latency_ms, 0.50))
      .Set("window_p95_ms", Quantile(latency_ms, 0.95))
      .Set("p99_ms", Quantile(latency_ms, 0.99))
      .Set("p999_ms", Quantile(latency_ms, 0.999))
      .Set("cache_hits", hits)
      .Set("cache_lookups", lookups)
      .Set("deduplicated", dedups)
      .Set("degraded", degraded)
      .Set("reads", reads)
      .Set("updates", updates.count);
  // Traffic self-checks: a workload may not drift from its purpose.
  switch (spec.kind) {
    case Kind::kDirectMix:
      if (dedups != 0) violate("direct_mix deduplicated requests");
      if (degraded != 0) violate("direct_mix served degraded answers");
      break;
    case Kind::kSelectCold:
      if (hits != 0 || dedups != 0) {
        violate("select_cold saw cache hits or deduplication");
      }
      break;
    case Kind::kSelectHotRw:
      detail.Set("hit_share", reads == 0 ? 0.0
                                         : static_cast<double>(hits) /
                                               static_cast<double>(reads));
      detail.Set("update_share",
                 reads == 0 ? 0.0
                            : static_cast<double>(updates.count) /
                                  static_cast<double>(reads));
      detail.Set("evictions", after.cache_evictions - before.cache_evictions);
      // Long enough for four update epochs: hits, updates and capacity
      // evictions must all have happened.
      if (reads >= 4 * kReadsPerUpdate &&
          (hits == 0 || updates.count == 0 ||
           after.cache_evictions == before.cache_evictions)) {
        violate("select_hot_rw ran without hits, updates or evictions");
      }
      break;
    case Kind::kOutage: {
      uint64_t ok = 0;
      for (const Record& r : records) ok += r.ok ? 1 : 0;
      if (degraded != ok) violate("outage answered from the board");
      break;
    }
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    double sim = 0;
    bool sim_ok = false;
    if (IsDirect(spec.kind)) {
      sim_ok = BoardSimThroughput(opt.seed, kSimSampleOps, kMaxBatch, &sim,
                                  &error);
    } else {
      std::vector<std::shared_ptr<const query::Predicate>> predicates;
      for (uint64_t i = 0; i < kSimSamplePredicates; ++i) {
        predicates.push_back(w.SamplePredicate(i));
      }
      sim_ok = EngineSimThroughput(predicates, w.columns(), &sim, &error);
    }
    if (!sim_ok) {
      std::fprintf(stderr, "ledger: sim replay failed: %s\n", error.c_str());
      correct = false;
    }
    metrics = {
        {"throughput_rps", Median(slice_rps), "1/s"},
        {"p50_ms", Median(slice_p50), "ms"},
        {"p95_ms", Median(slice_p95), "ms"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"sim_melem_per_s", sim, "Melem/s"},
    };
  } else {
    // --- service layer, from the generator's stamps and batch regions.
    const std::vector<BatchRecorder::Batch> batches = recorder.batches();
    std::vector<uint64_t> last_seq;  // cumulative dispatch_seq per batch
    uint64_t seq = 0;
    for (const auto& b : batches) last_seq.push_back(seq += b.size);
    double submit_ns = 0;
    double wait_ns = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      submit_ns += static_cast<double>(r.submitted_ns - r.submit_ns);
      const size_t k = static_cast<size_t>(
          std::lower_bound(last_seq.begin(), last_seq.end(), r.dispatch_seq) -
          last_seq.begin());
      uint64_t parent = 0;
      if (k < batches.size() && batches[k].start_ns >= r.submit_ns) {
        wait_ns += static_cast<double>(batches[k].start_ns - r.submit_ns);
        parent = k + 1;
      }
      spans.Add("request", kTrackGenerator, r.submit_ns, r.done_ns, r.index,
                parent);
    }
    double batch_ns = 0;
    uint64_t timed_batches = 0;
    for (size_t k = 0; k < batches.size(); ++k) {
      if (batches[k].start_ns < start_ns) continue;
      spans.Add("service.batch", kTrackScheduler, batches[k].start_ns,
                batches[k].end_ns, k + 1);
      batch_ns += static_cast<double>(batches[k].end_ns - batches[k].start_ns);
      ++timed_batches;
    }
    const double n = std::max<double>(1, static_cast<double>(records.size()));
    const uint64_t dispatched = after.dispatched - before.dispatched;
    const uint64_t batch_count = after.batches - before.batches;
    const uint64_t invalidations =
        after.cache_invalidations - before.cache_invalidations;
    const double per_update = static_cast<double>(
        std::max<uint64_t>(1, updates.count));
    metrics = {
        {"service.submit_us", submit_ns / n / 1e3, "us"},
        {"service.queue_wait_ms", wait_ns / n / 1e6, "ms"},
        {"service.batch_ms",
         timed_batches == 0 ? 0.0
                            : batch_ns / static_cast<double>(timed_batches) /
                                  1e6,
         "ms"},
        {"service.requests_per_batch",
         batch_count == 0 ? 0.0
                          : static_cast<double>(dispatched) /
                                static_cast<double>(batch_count),
         "req/batch"},
        {"service.cache_hit_ratio",
         lookups == 0 ? 0.0
                      : static_cast<double>(after.cache_hits -
                                            before.cache_hits) /
                            static_cast<double>(lookups),
         "ratio"},
        {"service.update_ms", updates.total_ns / per_update / 1e6, "ms"},
        {"service.invalidations_per_update",
         static_cast<double>(invalidations) / per_update, "count"},
        {"service.degraded_responses",
         static_cast<double>(after.degraded - before.degraded), "count"},
    };
    // Registry snapshot of the last service's life, before the replays
    // add their own instrument traffic.
    const Status written =
        obs::WriteMetricsSnapshotFile(opt.out_dir + "/metrics.json");
    if (!written.ok()) {
      std::fprintf(stderr, "ledger: %s\n", written.ToString().c_str());
      correct = false;
    }

    // --- query, system, core/sim/prefetch and baseline replays.
    LayerSample sample;
    sample.batch = std::min(spec.in_flight, kMaxBatch);
    if (IsDirect(spec.kind)) {
      for (uint64_t i = 0; i < kLayerSampleOps; ++i) {
        sample.ops.push_back(MakeDirectOp(opt.seed, i));
      }
    } else {
      sample.columns = &w.columns();
      for (uint64_t i = 0; i < kLayerSamplePredicates; ++i) {
        sample.predicates.push_back(w.SamplePredicate(i));
        sample.ops.push_back(RootSetOp(*sample.predicates.back(), w.columns()));
      }
    }
    if (!ReplayLayers(sample, &spans, &metrics, &error)) {
      std::fprintf(stderr, "ledger: layer replay failed: %s\n", error.c_str());
      correct = false;
    }
    metrics.push_back({"system.failed_attempts",
                       static_cast<double>(failed_attempts), "count"});
    const Status spans_written = spans.Write(opt.out_dir + "/spans.json");
    if (!spans_written.ok()) {
      std::fprintf(stderr, "ledger: %s\n", spans_written.ToString().c_str());
      correct = false;
    }
    detail.Set("artifacts", opt.out_dir);
  }

  obs::JsonValue values = obs::JsonValue::Object();
  for (const Metric& m : metrics) {
    obs::JsonValue metric = obs::JsonValue::Object();
    metric.Set("value", m.value).Set("unit", m.unit);
    values.Set(m.name, std::move(metric));
  }
  obs::JsonValue result = obs::JsonValue::Object();
  result.Set("correct", correct)
      .Set("attempted", attempted)
      .Set("failed", failed)
      .Set("metrics", std::move(values));
  obs::JsonValue detail_line = obs::JsonValue::Object();
  detail_line.Set("detail", std::move(detail));
  std::printf("%s\n%s\n", detail_line.Dump().c_str(), result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (spec.name == std::string_view(value)) opt->spec = &spec;
      }
      if (opt->spec == nullptr) return false;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && opt->seconds > 0 && opt->seconds <= 600;
    } else if (key == "--trace") {
      opt->trace = std::string_view(value) == "1";
      have_trace = opt->trace || std::string_view(value) == "0";
    } else if (key == "--out") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->spec != nullptr && have_seed &&
         have_seconds && have_trace;
}

}  // namespace
}  // namespace dba::perfbench

int main(int argc, char** argv) {
  dba::perfbench::Options opt;
  if (!dba::perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: ledger --workload "
                 "<direct_mix|select_cold|select_hot_rw|outage> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return dba::perfbench::Run(opt);
}
