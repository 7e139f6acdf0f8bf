#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "core/processor.h"
#include "obs/json.h"
#include "prefetch/streaming.h"
#include "query/engine.h"
#include "service/resilience.h"
#include "system/board.h"

namespace dba::perfbench {

service::SystemClock& LedgerClock() {
  static service::SystemClock clock;
  return clock;
}

// Events are serialized one at a time: a traced direct workload records a
// span per request, hundreds of thousands of them, and a document tree of
// that size would cost hundreds of megabytes.
Status SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  bool ok = std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f) >= 0;
  bool first = true;
  const auto emit = [&](const obs::JsonValue& event) {
    const std::string text = (first ? "\n" : ",\n") + event.Dump();
    ok &= std::fwrite(text.data(), 1, text.size(), f) == text.size();
    first = false;
  };
  const char* tracks[] = {"", "generator", "service scheduler", "replay"};
  for (int t = 1; t <= 3; ++t) {
    obs::JsonValue args = obs::JsonValue::Object();
    args.Set("name", tracks[t]);
    obs::JsonValue event = obs::JsonValue::Object();
    event.Set("ph", "M").Set("name", "thread_name").Set("pid", 1)
        .Set("tid", t).Set("args", std::move(args));
    emit(event);
  }
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (const Span& s : spans_) {
    obs::JsonValue args = obs::JsonValue::Object();
    args.Set("id", s.id).Set("parent", s.parent);
    obs::JsonValue event = obs::JsonValue::Object();
    event.Set("ph", "X").Set("name", s.name).Set("pid", 1).Set("tid", s.track)
        .Set("ts", static_cast<double>(s.start_ns - origin) / 1e3)
        .Set("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .Set("args", std::move(args));
    emit(event);
  }
  ok &= std::fputs("\n]}\n", f) >= 0;
  ok &= std::fclose(f) == 0;
  return ok ? Status::Ok() : Status::Internal("short write to '" + path + "'");
}

DirectOp RootSetOp(const query::Predicate& predicate, const Columns& columns) {
  using Kind = query::Predicate::Kind;
  DirectOp op;
  const query::Predicate& second = *predicate.children[1];
  op.a = ScanOracle(*predicate.children[0], columns);
  if (predicate.kind == Kind::kOr) {
    op.op = SetOp::kUnion;
    op.b = ScanOracle(second, columns);
  } else if (second.kind == Kind::kNot) {
    op.op = SetOp::kDifference;
    op.b = ScanOracle(*second.children[0], columns);
  } else {
    op.op = SetOp::kIntersect;
    op.b = ScanOracle(second, columns);
  }
  return op;
}

namespace {

bool Fail(std::string* error, const std::string& what) {
  *error = what;
  return false;
}

Result<std::unique_ptr<system::Board>> MakeBoard() {
  system::BoardConfig config;
  config.num_cores = kBoardCores;
  config.host_threads = kHostThreads;
  return system::Board::Create(config);
}

double Mean(double sum, size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

uint64_t Elements(const DirectOp& op) { return op.a.size() + op.b.size(); }

/// query: index builds and Select on a private engine and core.
bool ReplayQuery(const LayerSample& sample, SpanLog* spans,
                 std::vector<Metric>* metrics, std::string* error) {
  double build_ns = 0;
  double select_ns = 0;
  double setops = 0;
  double cycles = 0;
  if (!sample.predicates.empty()) {
    auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
    if (!processor.ok()) return Fail(error, processor.status().ToString());
    const query::Table table = MakeTable("orders", *sample.columns);
    query::QueryEngine engine(&table, processor->get());
    for (int c = 0; c < kNumColumns; ++c) {
      const uint64_t t0 = NowNs();
      const Status built = engine.BuildIndex(kColumnNames[c]);
      const uint64_t t1 = NowNs();
      if (!built.ok()) return Fail(error, built.ToString());
      spans->Add("query.build_index", 3, t0, t1, static_cast<uint64_t>(c));
      build_ns += static_cast<double>(t1 - t0);
    }
    for (size_t i = 0; i < sample.predicates.size(); ++i) {
      const query::Predicate& predicate = *sample.predicates[i];
      query::QueryStats stats;
      const uint64_t t0 = NowNs();
      Result<std::vector<query::Rid>> rids = engine.Select(predicate, &stats);
      const uint64_t t1 = NowNs();
      if (!rids.ok()) return Fail(error, rids.status().ToString());
      if (*rids != ScanOracle(predicate, *sample.columns)) {
        return Fail(error, "query replay mismatch on " + predicate.ToString());
      }
      spans->Add("query.select", 3, t0, t1, i);
      select_ns += static_cast<double>(t1 - t0);
      setops += stats.set_operations;
      cycles += static_cast<double>(stats.accelerator_cycles);
    }
  }
  const size_t n = sample.predicates.size();
  metrics->push_back({"query.select_ms", Mean(select_ns, n) / 1e6, "ms"});
  metrics->push_back({"query.setops_per_select", Mean(setops, n), "count"});
  metrics->push_back(
      {"query.accel_kcycles_per_select", Mean(cycles, n) / 1e3, "kcycles"});
  metrics->push_back({"query.index_build_ms", build_ns / 1e6, "ms"});
  return true;
}

/// system: Board::RunSetOperationBatch in fixed-size batches.
bool ReplaySystem(const LayerSample& sample, SpanLog* spans,
                  std::vector<Metric>* metrics, std::string* error) {
  auto board = MakeBoard();
  if (!board.ok()) return Fail(error, board.status().ToString());
  double wall_ns = 0;
  double makespan = 0;
  double core_cycles = 0;
  size_t batches = 0;
  for (size_t begin = 0; begin < sample.ops.size(); begin += sample.batch) {
    const size_t end = std::min(sample.ops.size(), begin + sample.batch);
    std::vector<system::Board::BatchItem> items;
    for (size_t i = begin; i < end; ++i) {
      items.push_back({sample.ops[i].op, sample.ops[i].a, sample.ops[i].b});
    }
    const uint64_t t0 = NowNs();
    auto run = (*board)->RunSetOperationBatch(items);
    const uint64_t t1 = NowNs();
    if (!run.ok()) return Fail(error, run.status().ToString());
    for (size_t i = begin; i < end; ++i) {
      const DirectOp& op = sample.ops[i];
      if (run->results[i - begin] != DirectOracle(op.op, op.a, op.b)) {
        return Fail(error, "system replay mismatch on op " + std::to_string(i));
      }
    }
    spans->Add("system.batch", 3, t0, t1, batches);
    wall_ns += static_cast<double>(t1 - t0);
    makespan += static_cast<double>(run->run.makespan_cycles);
    core_cycles += static_cast<double>(run->run.total_core_cycles);
    ++batches;
  }
  metrics->push_back({"system.batch_wall_ms", Mean(wall_ns, batches) / 1e6,
                      "ms"});
  metrics->push_back(
      {"system.makespan_kcycles", Mean(makespan, batches) / 1e3, "kcycles"});
  metrics->push_back({"system.core_utilization",
                      makespan == 0 ? 0.0
                                    : core_cycles / (kBoardCores * makespan),
                      "ratio"});
  return true;
}

/// core/sim/prefetch: one private core; ops beyond the local store
/// stream through the prefetcher.
bool ReplayCore(const LayerSample& sample, SpanLog* spans,
                std::vector<Metric>* metrics, std::string* error) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  if (!processor.ok()) return Fail(error, processor.status().ToString());
  Processor& core = **processor;
  double wall_ns = 0;
  double cycles = 0;
  double elements = 0;
  uint64_t streamed = 0;
  for (size_t i = 0; i < sample.ops.size(); ++i) {
    const DirectOp& op = sample.ops[i];
    const bool fits =
        op.a.size() <= core.max_set_elements(static_cast<uint32_t>(
                           op.b.size())) &&
        op.b.size() <= core.max_set_elements(static_cast<uint32_t>(
                           op.a.size()));
    std::vector<uint32_t> result;
    uint64_t op_cycles = 0;
    const uint64_t t0 = NowNs();
    if (fits) {
      auto run = op.op == SetOp::kMerge ? core.RunMerge(op.a, op.b)
                                        : core.RunSetOperation(op.op, op.a,
                                                               op.b);
      if (!run.ok()) return Fail(error, run.status().ToString());
      op_cycles = run->metrics.cycles;
      result = std::move(run->result);
    } else {
      prefetch::StreamingSetOperation streaming(&core, prefetch::DmaConfig{});
      auto run = streaming.Run(op.op, op.a, op.b);
      if (!run.ok()) return Fail(error, run.status().ToString());
      op_cycles = run->total_cycles;
      result = std::move(run->result);
      ++streamed;
    }
    const uint64_t t1 = NowNs();
    if (result != DirectOracle(op.op, op.a, op.b)) {
      return Fail(error, "core replay mismatch on op " + std::to_string(i));
    }
    spans->Add(fits ? "core.op" : "prefetch.streamed_op", 3, t0, t1, i);
    wall_ns += static_cast<double>(t1 - t0);
    cycles += static_cast<double>(op_cycles);
    elements += static_cast<double>(Elements(op));
  }
  metrics->push_back({"core.op_us", Mean(wall_ns, sample.ops.size()) / 1e3,
                      "us"});
  metrics->push_back({"sim.mcycles_per_s",
                      wall_ns == 0 ? 0.0 : cycles / wall_ns * 1e3,
                      "Mcycles/s"});
  metrics->push_back({"sim.cycles_per_elem",
                      elements == 0 ? 0.0 : cycles / elements, "cycles/elem"});
  metrics->push_back({"prefetch.streamed_ops", static_cast<double>(streamed),
                      "count"});
  return true;
}

/// baseline: the host kernels degraded mode routes to.
bool ReplayBaseline(const LayerSample& sample, SpanLog* spans,
                    std::vector<Metric>* metrics, std::string* error) {
  double wall_ns = 0;
  for (size_t i = 0; i < sample.ops.size(); ++i) {
    const DirectOp& op = sample.ops[i];
    const uint64_t t0 = NowNs();
    auto result = service::RunHostFallbackOp(op.op, op.a, op.b);
    const uint64_t t1 = NowNs();
    if (!result.ok()) return Fail(error, result.status().ToString());
    if (*result != DirectOracle(op.op, op.a, op.b)) {
      return Fail(error, "baseline replay mismatch on op " + std::to_string(i));
    }
    spans->Add("baseline.op", 3, t0, t1, i);
    wall_ns += static_cast<double>(t1 - t0);
  }
  metrics->push_back({"baseline.fallback_op_us",
                      Mean(wall_ns, sample.ops.size()) / 1e3, "us"});
  return true;
}

}  // namespace

bool ReplayLayers(const LayerSample& sample, SpanLog* spans,
                  std::vector<Metric>* metrics, std::string* error) {
  return ReplayQuery(sample, spans, metrics, error) &&
         ReplaySystem(sample, spans, metrics, error) &&
         ReplayCore(sample, spans, metrics, error) &&
         ReplayBaseline(sample, spans, metrics, error);
}

bool BoardSimThroughput(uint64_t seed, size_t count, size_t batch,
                        double* melem_per_s, std::string* error) {
  auto board = MakeBoard();
  if (!board.ok()) return Fail(error, board.status().ToString());
  double elements = 0;
  double makespan = 0;
  for (size_t begin = 0; begin < count; begin += batch) {
    const size_t end = std::min(count, begin + batch);
    std::vector<DirectOp> ops;
    std::vector<system::Board::BatchItem> items;
    for (size_t i = begin; i < end; ++i) ops.push_back(MakeDirectOp(seed, i));
    for (const DirectOp& op : ops) {
      items.push_back({op.op, op.a, op.b});
      elements += static_cast<double>(Elements(op));
    }
    auto run = (*board)->RunSetOperationBatch(items);
    if (!run.ok()) return Fail(error, run.status().ToString());
    for (size_t k = 0; k < ops.size(); ++k) {
      if (run->results[k] != DirectOracle(ops[k].op, ops[k].a, ops[k].b)) {
        return Fail(error,
                    "sim replay mismatch on op " + std::to_string(begin + k));
      }
    }
    makespan += static_cast<double>(run->run.makespan_cycles);
  }
  *melem_per_s = elements / (makespan / (*board)->core_frequency_hz()) / 1e6;
  return true;
}

bool EngineSimThroughput(
    const std::vector<std::shared_ptr<const query::Predicate>>& predicates,
    const Columns& columns, double* melem_per_s, std::string* error) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  if (!processor.ok()) return Fail(error, processor.status().ToString());
  const query::Table table = MakeTable("orders", columns);
  query::QueryEngine engine(&table, processor->get());
  for (int c = 0; c < kNumColumns; ++c) {
    const Status built = engine.BuildIndex(kColumnNames[c]);
    if (!built.ok()) return Fail(error, built.ToString());
  }
  double elements = 0;
  double seconds = 0;
  for (const auto& predicate : predicates) {
    query::QueryStats stats;
    auto rids = engine.Select(*predicate, &stats);
    if (!rids.ok()) return Fail(error, rids.status().ToString());
    if (*rids != ScanOracle(*predicate, columns)) {
      return Fail(error, "sim replay mismatch on " + predicate->ToString());
    }
    elements += static_cast<double>(stats.elements_processed);
    seconds += stats.accelerator_seconds;
  }
  *melem_per_s = elements / seconds / 1e6;
  return true;
}

}  // namespace dba::perfbench
