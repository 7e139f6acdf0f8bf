#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"

namespace dba::query {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - begin).count();
}

// The QueryStats counts the registry exports, one row each, read by
// registration and by PublishStats, the only place they (and the
// route_counts series) move. The latency histogram observes *simulated*
// cycles, so registry snapshots stay deterministic across host threads.
struct StatsCounter {
  uint32_t QueryStats::*field;
  const char* name;
  const char* help;
};

constexpr StatsCounter kStatsCounters[] = {
    {&QueryStats::set_operations, "dba_query_setops_total",
     "Set operations run by query plans."},
    {&QueryStats::sorts, "dba_query_sorts_total",
     "Accelerator sorts run by query plans."},
    {&QueryStats::retries, "dba_query_retries_total",
     "Transient-failure retries across set ops and sorts."},
    {&QueryStats::partition_index_builds,
     "dba_query_partition_index_builds_total",
     "Lazy PartitionIndex materializations (savings meter paybacks)."},
};
constexpr size_t kNumStatsCounters = std::size(kStatsCounters);

struct QueryInstrumentSet {
  std::array<obs::Counter*, kNumStatsCounters> stats;
  obs::Histogram* latency;
};

const QueryInstrumentSet& QueryInstruments() {
  static const QueryInstrumentSet instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    QueryInstrumentSet out;
    for (size_t i = 0; i < kNumStatsCounters; ++i) {
      out.stats[i] = registry.GetCounter(kStatsCounters[i].name,
                                         kStatsCounters[i].help);
    }
    out.latency = registry.GetHistogram(
        "dba_query_latency_cycles",
        "Simulated accelerator cycles per public query.");
    return out;
  }();
  return instruments;
}

// Adaptive-planner instruments (EnableAdaptivePlanner). Route counters
// record counts only, so they keep the registry's determinism contract
// and match QueryStats::route_counts exactly at any host_threads; the
// decision/wall histograms observe host nanoseconds and are explicitly
// outside that contract (documented in docs/PLANNER.md).
struct PlanInstrumentSet {
  std::array<obs::Counter*, kNumRoutes> route_total;
  std::array<obs::Histogram*, kNumRoutes> route_wall_ns;
  obs::Histogram* decision_ns;
  obs::Histogram* eis_cycles;
};

const PlanInstrumentSet& PlanInstruments() {
  static const PlanInstrumentSet instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    PlanInstrumentSet out;
    for (size_t r = 0; r < kNumRoutes; ++r) {
      const std::string_view route = RouteName(static_cast<Route>(r));
      out.route_total[r] = registry.GetCounter(
          "dba_query_plan_total", "route", route,
          "Planner-routed intersections by chosen route.");
      out.route_wall_ns[r] = registry.GetHistogram(
          "dba_query_plan_route_wall_ns", "route", route,
          "Execution time per routed intersection in ns: simulated time "
          "(cycles / f_max) for eis_merge, host wall time otherwise "
          "(host-route series are not deterministic).");
    }
    out.decision_ns = registry.GetHistogram(
        "dba_query_plan_decision_ns",
        "Planner decision latency in host ns (not deterministic).");
    out.eis_cycles = registry.GetHistogram(
        "dba_query_plan_eis_cycles",
        "Simulated cycles of planner-routed EIS intersections.");
    return out;
  }();
  return instruments;
}

/// The published QueryStats counts at one instant (allocation-free).
struct StatsTally {
  std::array<uint32_t, kNumStatsCounters> counts{};
  std::array<uint32_t, kNumRoutes> routes{};
};

StatsTally Tally(const QueryStats& stats) {
  StatsTally tally;
  for (size_t i = 0; i < kNumStatsCounters; ++i) {
    tally.counts[i] = stats.*kStatsCounters[i].field;
  }
  tally.routes = stats.route_counts;
  return tally;
}

/// Adds what `stats` counted since `entry`, skipping zero deltas.
void PublishStats(const StatsTally& entry, const QueryStats& stats) {
  for (size_t i = 0; i < kNumStatsCounters; ++i) {
    const uint32_t delta = stats.*kStatsCounters[i].field - entry.counts[i];
    if (delta != 0) QueryInstruments().stats[i]->Increment(delta);
  }
  for (size_t r = 0; r < kNumRoutes; ++r) {
    const uint32_t delta = stats.route_counts[r] - entry.routes[r];
    if (delta != 0) PlanInstruments().route_total[r]->Increment(delta);
  }
}

obs::Counter* QueryCounter(std::string_view op) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static constexpr std::string_view kHelp = "Public queries served by op.";
  static obs::Counter* const select =
      registry.GetCounter("dba_query_queries_total", "op", "select", kHelp);
  static obs::Counter* const join_keys =
      registry.GetCounter("dba_query_queries_total", "op", "join_keys", kHelp);
  static obs::Counter* const select_ordered = registry.GetCounter(
      "dba_query_queries_total", "op", "select_values_ordered", kHelp);
  if (op == "select") return select;
  if (op == "join_keys") return join_keys;
  return select_ordered;
}

/// Runs a public query's `body` on the caller's stats (or a local one,
/// when the caller passed none) and publishes what it counted on every
/// exit; on success also sets accelerator_seconds and counts the query.
template <typename Fn>
auto RunQuery(std::string_view op, QueryStats* stats, double frequency_hz,
              Fn&& body) -> decltype(body(std::declval<QueryStats&>())) {
  QueryStats local_stats;
  QueryStats& s = stats != nullptr ? *stats : local_stats;
  const StatsTally entry = Tally(s);
  const uint64_t cycles_before = s.accelerator_cycles;
  auto result = body(s);
  PublishStats(entry, s);
  if (result.ok()) {
    s.accelerator_seconds =
        static_cast<double>(s.accelerator_cycles) / frequency_hz;
    QueryCounter(op)->Increment();
    QueryInstruments().latency->Observe(s.accelerator_cycles - cycles_before);
  }
  return result;
}

/// The attempt's settings: the base watchdog budget doubles with every
/// retry (a genuine slow run eventually fits; a real hang keeps failing).
RunSettings AttemptSettings(const RunSettings& base, int attempt) {
  RunSettings settings = base;
  settings.max_cycles = base.max_cycles << attempt;
  return settings;
}

}  // namespace

Status QueryEngine::BuildIndex(const std::string& column) {
  DBA_ASSIGN_OR_RETURN(SecondaryIndex index,
                       SecondaryIndex::Build(*table_, column));
  DBA_ASSIGN_OR_RETURN(const uint64_t version, table_->ColumnVersion(column));
  indexes_.erase(column);
  indexes_.emplace(column, std::move(index));
  index_versions_[column] = version;
  return Status::Ok();
}

Status QueryEngine::RefreshIndexIfStale(const std::string& column) {
  if (indexes_.find(column) == indexes_.end()) return Status::Ok();
  DBA_ASSIGN_OR_RETURN(const uint64_t current, table_->ColumnVersion(column));
  const auto built = index_versions_.find(column);
  if (built != index_versions_.end() && built->second == current) {
    return Status::Ok();
  }
  DBA_RETURN_IF_ERROR(BuildIndex(column));
  // Partition indexes are keyed by probe signature ("column:lo:hi"):
  // every cached index over the stale column covers old data, as does
  // its savings meter -- drop them and let the lazy machinery restart.
  const std::string prefix = column + ":";
  for (auto it = partition_indexes_.begin();
       it != partition_indexes_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = partition_indexes_.erase(it);
    } else {
      ++it;
    }
  }
  savings_.erase(column);
  return Status::Ok();
}

template <typename Fn>
auto QueryEngine::RunAttempts(const AttemptSite& site, QueryStats& stats,
                              Fn&& attempt)
    -> decltype(attempt(RunSettings{})) {
  Status last_error = Status::Internal("no attempt executed");
  for (int i = 0; i < max_attempts_; ++i) {
    if (i > 0) ++stats.retries;
    last_error = Status::Ok();
    if (attempt_fault_hook_ && !site.hook_prefix.empty()) {
      last_error = attempt_fault_hook_(
          std::string(site.hook_prefix) + std::string(site.hook_name), i);
    }
    if (last_error.ok()) {
      auto run = attempt(AttemptSettings(run_settings_, i));
      if (run.ok()) return run;
      last_error = run.status();
    }
    if (!IsTransient(last_error.code())) return last_error;
    if (!site.retry_note.empty()) {
      stats.plan.push_back(std::string(site.retry_note) + " after " +
                           std::string(StatusCodeToString(last_error.code())));
    }
  }
  return last_error;
}

Result<prefetch::CoreSetOpRun> QueryEngine::ExecuteEis(SetOp op,
                                                       std::span<const Rid> a,
                                                       std::span<const Rid> b,
                                                       QueryStats& stats) {
  return RunAttempts(
      {.hook_prefix = "eis:", .hook_name = eis::SopModeName(op)}, stats,
      [&](const RunSettings& settings) {
        return prefetch::RunCoreSetOperation(*processor_, op, a, b, settings);
      });
}

Result<prefetch::ExternalSortRun> QueryEngine::Sort(
    std::span<const uint32_t> values, std::string_view retry_note,
    QueryStats& stats) {
  DBA_ASSIGN_OR_RETURN(
      prefetch::ExternalSortRun run,
      RunAttempts({.retry_note = retry_note}, stats,
                  [&](const RunSettings& settings) {
                    return prefetch::ExternalSort(*processor_, values,
                                                  settings);
                  }));
  stats.sorts += run.chunks;
  stats.accelerator_cycles += run.sort_cycles + run.merge_cycles;
  return run;
}

Result<QueryEngine::Operand> QueryEngine::Probe(const Predicate& leaf,
                                                QueryStats& stats) {
  DBA_RETURN_IF_ERROR(RefreshIndexIfStale(leaf.column));
  auto it = indexes_.find(leaf.column);
  if (it == indexes_.end()) {
    return Status::FailedPrecondition(
        "no secondary index on column '" + leaf.column +
        "'; call BuildIndex first");
  }
  Operand out;
  uint32_t lo = leaf.lo;
  uint32_t hi = leaf.hi;
  switch (leaf.kind) {
    case Predicate::Kind::kEquals:
      out.rids = it->second.ProbeEquals(leaf.lo);
      hi = leaf.lo;
      break;
    case Predicate::Kind::kBetween:
    case Predicate::Kind::kLessEq:
    case Predicate::Kind::kGreaterEq:
      out.rids = it->second.ProbeRange(leaf.lo, leaf.hi);
      break;
    default:
      return Status::Internal("Probe called on a non-leaf predicate");
  }
  // Provenance for the planner: the source column (savings accounting)
  // and a probe signature (the index cache key -- the table is
  // immutable, so identical signatures yield identical RID sets).
  out.column = leaf.column;
  out.probe_key =
      leaf.column + ":" + std::to_string(lo) + ":" + std::to_string(hi);
  ++stats.index_probes;
  stats.plan.push_back("probe " + leaf.ToString() + " -> " +
                           std::to_string(out.rids.size()) + " RIDs");
  return out;
}

Result<std::vector<Rid>> QueryEngine::RunSetOp(SetOp op, const OperandView& a,
                                               const OperandView& b,
                                               QueryStats& stats) {
  // Degenerate inputs need no accelerator round trip.
  if (a.rids.empty() || b.rids.empty()) {
    DBA_ASSIGN_OR_RETURN(std::vector<Rid> result,
                         EmptyOperandResult(op, a.rids, b.rids));
    stats.plan.push_back(std::string(eis::SopModeName(op)) +
                             " (degenerate) -> " +
                             std::to_string(result.size()) + " RIDs");
    return result;
  }

  // Adaptive routing applies to intersections only (union/difference/
  // merge always take the EIS datapath); off by default.
  if (op == SetOp::kIntersect && planner_ != nullptr) {
    return RunPlannedIntersect(a, b, stats);
  }

  DBA_ASSIGN_OR_RETURN(prefetch::CoreSetOpRun run,
                       ExecuteEis(op, a.rids, b.rids, stats));
  ++stats.set_operations;
  stats.accelerator_cycles += run.cycles;
  stats.elements_processed += a.rids.size() + b.rids.size();
  stats.plan.push_back(std::string(eis::SopModeName(op)) + " " +
                           std::to_string(a.rids.size()) + " x " +
                           std::to_string(b.rids.size()) + " -> " +
                           std::to_string(run.result.size()) + " RIDs" +
                           (run.streamed ? " [streamed]" : ""));
  return std::move(run.result);
}

Result<std::vector<Rid>> QueryEngine::RunPlannedIntersect(
    const OperandView& a, const OperandView& b, QueryStats& stats) {
  const PlanInstrumentSet& plan_metrics = PlanInstruments();
  const CostModel& model = planner_->cost_model();
  const bool a_is_small = a.rids.size() <= b.rids.size();
  const OperandView& small = a_is_small ? a : b;
  const OperandView& large = a_is_small ? b : a;

  // A cached index over the larger operand's exact RID set?
  const PartitionIndex* index = nullptr;
  if (!large.probe_key.empty()) {
    auto it = partition_indexes_.find(std::string(large.probe_key));
    if (it != partition_indexes_.end()) index = &it->second;
  }

  const Clock::time_point decide_begin = Clock::now();
  PlanDecision decision =
      planner_->Plan(a.rids.size(), b.rids.size(), index != nullptr);
  plan_metrics.decision_ns->Observe(static_cast<uint64_t>(
      ElapsedNs(decide_begin, Clock::now())));

  // Savings accounting (self-building index): without an index for this
  // operand, record what the partition-probe route would have saved over
  // the chosen route; once a column's accumulated missed savings reach
  // payback_factor * build_cost, materialize the index and charge it.
  if (index == nullptr && !decision.forced && !large.column.empty() &&
      !large.probe_key.empty()) {
    const double build_cost_ns = model.PartitionBuildNs(large.rids.size());
    const double savings_ns =
        decision.chosen_ns -
        model.PartitionProbeNs(a.rids.size(), b.rids.size()) -
        model.decision_ns;
    const std::string column(large.column);
    PartitionSavingsMeter& meter = savings_[column];
    const bool payback = meter.RecordMiss(savings_ns, build_cost_ns,
                                          planner_->options().payback_factor);
    if (payback) {
      PartitionIndex built = PartitionIndex::Build(large.rids);
      meter.ChargeBuild(build_cost_ns, built.size());
      auto [it, inserted] =
          partition_indexes_.emplace(std::string(large.probe_key),
                                     std::move(built));
      index = &it->second;
      decision.route = Route::kPartitionProbe;
      decision.index_available = true;
      decision.chosen_ns =
          decision.estimated_ns[static_cast<size_t>(Route::kPartitionProbe)];
      ++stats.partition_index_builds;
      stats.plan.push_back("build partition index on " + column + " (" +
                               std::to_string(large.rids.size()) + " entries)");
    }
  }

  // Execute the chosen route. Every route runs under the engine's one
  // attempt loop (SetMaxAttempts): retry accounting must not depend on
  // where the planner happened to send the work.
  const uint64_t cycles_base = stats.accelerator_cycles;
  std::vector<Rid> result;
  uint64_t cycles = 0;
  double route_seconds = 0;
  bool streamed = false;
  if (decision.route == Route::kEisMerge) {
    DBA_ASSIGN_OR_RETURN(prefetch::CoreSetOpRun run,
                         ExecuteEis(SetOp::kIntersect, a.rids, b.rids, stats));
    result = std::move(run.result);
    cycles = run.cycles;
    streamed = run.streamed;
    route_seconds = static_cast<double>(cycles) / processor_->frequency_hz();
    plan_metrics.eis_cycles->Observe(cycles);
  } else {
    // The partition route probes the (cached or transient) index over
    // the larger operand with the smaller; the merge-family host routes
    // are symmetric and take the operands as-is.
    DBA_ASSIGN_OR_RETURN(
        RouteRun run,
        RunAttempts(
            {.hook_prefix = "route:", .hook_name = RouteName(decision.route)},
            stats, [&](const RunSettings& settings) {
              return decision.route == Route::kPartitionProbe
                         ? RunIntersectRoute(decision.route, small.rids,
                                             large.rids, processor_, settings,
                                             index)
                         : RunIntersectRoute(decision.route, a.rids, b.rids,
                                             processor_, settings);
            }));
    result = std::move(run.result);
    route_seconds = run.route_seconds + run.build_seconds;
  }

  const size_t route_idx = static_cast<size_t>(decision.route);
  plan_metrics.route_wall_ns[route_idx]->Observe(
      static_cast<uint64_t>(route_seconds * 1e9));
  ++stats.set_operations;
  ++stats.route_counts[route_idx];
  stats.accelerator_cycles += cycles;
  stats.elements_processed += a.rids.size() + b.rids.size();
  if (decision.route != Route::kEisMerge) {
    stats.host_route_seconds += route_seconds;
  }
  stats.plan.push_back("intersect[" + std::string(RouteName(decision.route)) +
                           (decision.forced ? ", forced" : "") + "] " +
                           std::to_string(a.rids.size()) + " x " +
                           std::to_string(b.rids.size()) + " -> " +
                           std::to_string(result.size()) + " RIDs" +
                           (streamed ? " [streamed]" : ""));
  if (run_settings_.trace_sink != nullptr) {
    // Planner span on the simulated timeline: EIS spans are exact; host
    // routes are rendered at their wall-equivalent width in cycles.
    const uint64_t width =
        decision.route == Route::kEisMerge
            ? cycles
            : static_cast<uint64_t>(route_seconds *
                                    processor_->frequency_hz());
    run_settings_.trace_sink->BeginRegion(
        cycles_base, "plan[" + std::string(RouteName(decision.route)) + "]");
    run_settings_.trace_sink->EndRegion(cycles_base + width);
  }
  return result;
}

Result<std::vector<Rid>> QueryEngine::Complement(const std::vector<Rid>& rids,
                                                 QueryStats& stats) {
  std::vector<Rid> all(table_->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  return RunSetOp(SetOp::kDifference, all, rids, stats);
}

Result<QueryEngine::Operand> QueryEngine::Evaluate(const Predicate& predicate,
                                                   QueryStats& stats) {
  if (predicate.is_leaf()) return Probe(predicate, stats);

  switch (predicate.kind) {
    case Predicate::Kind::kNot: {
      DBA_ASSIGN_OR_RETURN(Operand child,
                           Evaluate(*predicate.children[0], stats));
      DBA_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                           Complement(child.rids, stats));
      return Operand{std::move(rids), {}, {}};
    }
    case Predicate::Kind::kAnd: {
      // Index ANDing (Raman et al. [31]): evaluate positive conjuncts,
      // intersect smallest-first, and apply negated conjuncts as
      // difference operands (A AND NOT B = A \ B) -- never
      // materializing a complement. Leaf operands keep their column
      // provenance, so the planner's savings accounting sees which
      // column each intersection probed.
      std::vector<Operand> positives;
      std::vector<const Predicate*> negatives;
      for (const PredicatePtr& child : predicate.children) {
        if (child->kind == Predicate::Kind::kNot) {
          negatives.push_back(child->children[0].get());
        } else {
          DBA_ASSIGN_OR_RETURN(Operand operand, Evaluate(*child, stats));
          positives.push_back(std::move(operand));
        }
      }
      Operand accumulator;
      if (positives.empty()) {
        accumulator.rids.resize(table_->num_rows());
        std::iota(accumulator.rids.begin(), accumulator.rids.end(), 0u);
      } else {
        std::sort(positives.begin(), positives.end(),
                  [](const Operand& x, const Operand& y) {
                    return x.rids.size() < y.rids.size();
                  });
        accumulator = std::move(positives.front());
        for (size_t i = 1; i < positives.size(); ++i) {
          DBA_ASSIGN_OR_RETURN(
              std::vector<Rid> rids,
              RunSetOp(SetOp::kIntersect, accumulator, positives[i], stats));
          accumulator = Operand{std::move(rids), {}, {}};
        }
      }
      for (const Predicate* negative : negatives) {
        DBA_ASSIGN_OR_RETURN(Operand excluded, Evaluate(*negative, stats));
        DBA_ASSIGN_OR_RETURN(
            std::vector<Rid> rids,
            RunSetOp(SetOp::kDifference, accumulator, excluded, stats));
        accumulator = Operand{std::move(rids), {}, {}};
      }
      return accumulator;
    }
    case Predicate::Kind::kOr: {
      Operand accumulator;
      bool first = true;
      for (const PredicatePtr& child : predicate.children) {
        DBA_ASSIGN_OR_RETURN(Operand operand, Evaluate(*child, stats));
        if (first) {
          accumulator = std::move(operand);
          first = false;
        } else {
          DBA_ASSIGN_OR_RETURN(
              std::vector<Rid> rids,
              RunSetOp(SetOp::kUnion, accumulator, operand, stats));
          accumulator = Operand{std::move(rids), {}, {}};
        }
      }
      return accumulator;
    }
    default:
      return Status::Internal("unhandled predicate kind");
  }
}

void QueryEngine::EnableAdaptivePlanner(const PlannerOptions& options) {
  planner_ = std::make_unique<Planner>(options);
  savings_.clear();
  partition_indexes_.clear();
}

ColumnIndexState QueryEngine::partition_state(
    const std::string& column) const {
  auto it = savings_.find(column);
  if (it == savings_.end()) return {};
  const PartitionSavingsMeter& meter = it->second;
  return {.missed_savings_ns = meter.missed_savings_ns(),
          .misses_recorded = meter.misses_recorded(),
          .indexes_built = meter.indexes_built(),
          .indexed_entries = meter.indexed_entries()};
}

Result<std::vector<Rid>> QueryEngine::Select(const Predicate& predicate,
                                             QueryStats* stats) {
  return RunQuery("select", stats, processor_->frequency_hz(),
                  [&](QueryStats& s) -> Result<std::vector<Rid>> {
    DBA_ASSIGN_OR_RETURN(Operand matched, Evaluate(predicate, s));
    return std::move(matched.rids);
  });
}

Result<std::vector<uint32_t>> QueryEngine::JoinKeys(
    const std::string& column, const Table& other,
    const std::string& other_column, QueryStats* stats) {
  return RunQuery("join_keys", stats, processor_->frequency_hz(),
                  [&](QueryStats& s) -> Result<std::vector<uint32_t>> {
    const auto sort_keys =
        [&](const Table& table,
            const std::string& key_column) -> Result<std::vector<uint32_t>> {
      DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                           table.Column(key_column));
      const std::string name = table.name() + "." + key_column;
      DBA_ASSIGN_OR_RETURN(prefetch::ExternalSortRun run,
                           Sort(values, "retry sort of " + name, s));
      s.elements_processed += values.size();
      if (std::adjacent_find(run.sorted.begin(), run.sorted.end()) !=
          run.sorted.end()) {
        return Status::InvalidArgument(
            "JoinKeys requires unique keys; column '" + key_column +
            "' of table '" + table.name() + "' has duplicates");
      }
      s.plan.push_back("sort join keys of " + name + " (" +
                           std::to_string(run.sorted.size()) + " keys)");
      return std::move(run.sorted);
    };
    DBA_ASSIGN_OR_RETURN(std::vector<uint32_t> left,
                         sort_keys(*table_, column));
    DBA_ASSIGN_OR_RETURN(std::vector<uint32_t> right,
                         sort_keys(other, other_column));
    return RunSetOp(SetOp::kIntersect, left, right, s);
  });
}

Result<std::vector<uint32_t>> QueryEngine::SelectValuesOrdered(
    const Predicate& predicate, const std::string& order_by,
    QueryStats* stats) {
  return RunQuery("select_values_ordered", stats, processor_->frequency_hz(),
                  [&](QueryStats& s) -> Result<std::vector<uint32_t>> {
    DBA_ASSIGN_OR_RETURN(Operand matched, Evaluate(predicate, s));
    const std::vector<Rid>& rids = matched.rids;
    DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                         table_->Column(order_by));

    // Gather the qualifying values (in hardware: a prefetcher gather).
    std::vector<uint32_t> values;
    values.reserve(rids.size());
    for (Rid rid : rids) values.push_back(column[rid]);

    DBA_ASSIGN_OR_RETURN(
        prefetch::ExternalSortRun run,
        Sort(values, "retry sort of " + table_->name() + "." + order_by, s));
    // Beyond the local store the chunk runs are merged pairwise by the
    // streamed EIS merge kernel: each merge is a set operation.
    s.set_operations += run.chunks - 1;
    s.elements_processed += values.size() + run.merge_elements;
    s.plan.push_back(
        run.chunks == 1
            ? "sort " + std::to_string(values.size()) + " values on " +
                  order_by
            : "external sort of " + std::to_string(values.size()) +
                  " values (" + std::to_string(run.chunks) +
                  " chunks, streamed merges)");
    return std::move(run.sorted);
  });
}

}  // namespace dba::query
