#ifndef DBA_QUERY_ENGINE_H_
#define DBA_QUERY_ENGINE_H_

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "fault/fault.h"
#include "prefetch/streaming.h"
#include "query/index.h"
#include "query/partition_index.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/table.h"

namespace dba::query {

/// Execution statistics of one query.
struct QueryStats {
  uint32_t index_probes = 0;
  uint32_t set_operations = 0;
  uint32_t sorts = 0;
  uint32_t retries = 0;              // transient-failure re-executions
  uint64_t accelerator_cycles = 0;   // total cycles on the DBA core
  uint64_t elements_processed = 0;   // set-op + sort input elements
  double accelerator_seconds = 0;    // at the synthesized f_max
  std::vector<std::string> plan;     // rendered execution steps
  // --- Adaptive-planner telemetry (EnableAdaptivePlanner) ---
  uint32_t planned_ops = 0;          // intersections routed by the planner
  /// Executions per route, indexed by Route; always sums to planned_ops
  /// and matches the dba_query_plan_total{route=...} counter deltas.
  std::array<uint32_t, kNumRoutes> route_counts{};
  uint32_t partition_index_builds = 0;  // lazy indexes materialized
  double host_route_seconds = 0;     // wall time spent in host routes
};

/// Savings/materialization state of one column's lazy PartitionIndex
/// (inspection surface for tests and `dba_cli plan`).
struct ColumnIndexState {
  double missed_savings_ns = 0;  // accumulated unclaimed savings
  double build_cost_ns = 0;      // estimate for the last candidate set
  uint32_t misses_recorded = 0;
  uint32_t indexes_built = 0;
  uint64_t indexed_entries = 0;  // total elements across built indexes
};

/// A miniature selection/ordering engine on top of the accelerator: the
/// integration layer a database system would put between its planner and
/// the DBA processor. WHERE-clause predicate trees compile to secondary-
/// index probes combined with the EIS set operations (AND -> intersect,
/// OR -> union, AND NOT -> difference, Section 2.3), and ORDER BY runs
/// on the merge-sort kernel. RID lists larger than the local store are
/// streamed through the data prefetcher automatically.
class QueryEngine {
 public:
  /// `table` and `processor` must outlive the engine.
  QueryEngine(const Table* table, Processor* processor)
      : table_(table), processor_(processor) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Builds (or rebuilds) the secondary index for `column`.
  Status BuildIndex(const std::string& column);
  bool HasIndex(const std::string& column) const {
    return indexes_.count(column) != 0;
  }

  /// Evaluates the WHERE clause: the sorted RID set of qualifying rows.
  /// Every column referenced by `predicate` must have an index. Indexes
  /// built over a column version that the table has since mutated past
  /// (Table::UpdateColumn) are rebuilt transparently before the probe,
  /// and the column's lazy partition-index state is dropped with them.
  Result<std::vector<Rid>> Select(const Predicate& predicate,
                                  QueryStats* stats = nullptr);

  /// SELECT <order_by> FROM t WHERE <predicate> ORDER BY <order_by>:
  /// gathers the qualifying rows' values of `order_by` and sorts them on
  /// the accelerator. Inputs beyond the local store sort in chunks merged
  /// by the streamed EIS merge kernel (prefetch::ExternalSort).
  Result<std::vector<uint32_t>> SelectValuesOrdered(
      const Predicate& predicate, const std::string& order_by,
      QueryStats* stats = nullptr);

  /// Match-finding phase of a sort-merge join on unique keys (paper
  /// Section 2.3: "Sorting ... is used before sort-merge joins"): sorts
  /// both key columns on the accelerator and intersects them, returning
  /// the sorted join keys. Fails if either column has duplicate keys.
  Result<std::vector<uint32_t>> JoinKeys(const std::string& column,
                                         const Table& other,
                                         const std::string& other_column,
                                         QueryStats* stats = nullptr);

  /// Enables the adaptive intersection planner (docs/PLANNER.md): every
  /// RID-set intersection is routed to its estimated-fastest kernel --
  /// EIS merge, host galloping, host SIMD merge, or a probe of a lazy
  /// per-column PartitionIndex that materializes only once its
  /// savings-accounting meter pays back the build cost. Results stay
  /// byte-identical to the always-EIS engine on every route; only the
  /// execution vehicle (and so QueryStats::accelerator_cycles vs.
  /// host_route_seconds) changes. Off by default: the seed behavior is
  /// always-EIS.
  void EnableAdaptivePlanner(const PlannerOptions& options = {});
  void DisableAdaptivePlanner();
  bool planner_enabled() const { return planner_ != nullptr; }
  const Planner* planner() const { return planner_.get(); }

  /// Lazy-index state of `column` ({} when never considered).
  ColumnIndexState partition_state(const std::string& column) const;

  /// Base kernel-run settings applied to every accelerator call -- e.g. a
  /// watchdog budget (RunSettings::max_cycles) when the core may hang, or
  /// input validation when RID lists may arrive corrupted.
  void SetRunSettings(const RunSettings& settings) {
    run_settings_ = settings;
  }
  /// Attempts per accelerator step (>= 1; default 1 = fail fast, the
  /// historical behavior). Transient failures -- DeadlineExceeded,
  /// Unavailable, DataLoss -- are re-executed with the watchdog budget
  /// doubled each attempt; QueryStats::retries counts re-executions.
  /// Every step retries under the same policy: set operations on any
  /// planner route, the ORDER BY sort and the JoinKeys column sorts.
  void SetMaxAttempts(int attempts) {
    max_attempts_ = attempts < 1 ? 1 : attempts;
  }

  /// Deterministic per-attempt fault hook (fault::MakeTransientFaultHook)
  /// consulted before every set-operation attempt, EIS or host-routed;
  /// a non-OK return fails the attempt and the SetMaxAttempts retry
  /// policy takes over. Null (the default) disables injection.
  void SetAttemptFaultHook(fault::AttemptFaultHook hook) {
    attempt_fault_hook_ = std::move(hook);
  }

 private:
  /// A sorted RID set plus its provenance: leaf probes carry the source
  /// column and a probe signature ("column:lo:hi") so the planner's
  /// savings accounting and index cache can recognize repeated work;
  /// derived sets (set-op results, complements) are anonymous.
  struct Operand {
    std::vector<Rid> rids;
    std::string column;     // "" = not attributable to one column
    std::string probe_key;  // "" = not cacheable
  };

  /// Non-owning view of an operand; implicitly built from an Operand or
  /// a bare RID vector (anonymous provenance).
  struct OperandView {
    std::span<const Rid> rids;
    std::string_view column;
    std::string_view probe_key;
    OperandView(const Operand& operand)  // NOLINT
        : rids(operand.rids),
          column(operand.column),
          probe_key(operand.probe_key) {}
    OperandView(const std::vector<Rid>& plain) : rids(plain) {}  // NOLINT
  };

  Result<Operand> Evaluate(const Predicate& predicate, QueryStats& stats);
  Result<Operand> Probe(const Predicate& leaf, QueryStats& stats);

  /// Rebuilds the secondary index on `column` when the table's column
  /// version moved past the version the index was built from, dropping
  /// the column's partition indexes and savings state (they cover the
  /// old data). No-op when the column has no index yet.
  Status RefreshIndexIfStale(const std::string& column);

  /// Names one step for the attempt loop: the fault hook is consulted
  /// under `hook_prefix` + `hook_name` (not at all when `hook_prefix` is
  /// empty), and a non-empty `retry_note` is logged to the plan with the
  /// failure code after every transient failure.
  struct AttemptSite {
    std::string_view hook_prefix = {};
    std::string_view hook_name = {};
    std::string_view retry_note = {};
  };

  /// The engine's one attempt loop: runs `attempt(settings)` until it
  /// succeeds, fails with a non-transient code, or SetMaxAttempts runs
  /// out, doubling the watchdog budget with every retry. Every retry is
  /// charged to `stats.retries`, whether or not the step succeeds.
  template <typename Fn>
  auto RunAttempts(const AttemptSite& site, QueryStats& stats, Fn&& attempt)
      -> decltype(attempt(RunSettings{}));

  /// Sorts `values` (prefetch::ExternalSort) under the attempt loop and
  /// charges the chunk sorts and all cycles; callers charge elements,
  /// merges and plan text.
  Result<prefetch::ExternalSortRun> Sort(std::span<const uint32_t> values,
                                         std::string_view retry_note,
                                         QueryStats& stats);

  Result<std::vector<Rid>> RunSetOp(SetOp op, const OperandView& a,
                                    const OperandView& b, QueryStats& stats);
  Result<std::vector<Rid>> Complement(const std::vector<Rid>& rids,
                                      QueryStats& stats);

  /// The EIS datapath (prefetch::RunCoreSetOperation) under the attempt
  /// loop; charges only retries.
  Result<prefetch::CoreSetOpRun> ExecuteEis(SetOp op, std::span<const Rid> a,
                                            std::span<const Rid> b,
                                            QueryStats& stats);

  /// Planner-routed intersection of two non-empty operands: decides,
  /// runs the lazy-index savings accounting, executes the chosen route,
  /// and records the decision in stats/metrics/trace.
  Result<std::vector<Rid>> RunPlannedIntersect(const OperandView& a,
                                               const OperandView& b,
                                               QueryStats& stats);

  const Table* table_;
  Processor* processor_;
  RunSettings run_settings_;
  int max_attempts_ = 1;
  fault::AttemptFaultHook attempt_fault_hook_;
  std::map<std::string, SecondaryIndex> indexes_;
  std::map<std::string, uint64_t> index_versions_;  // column version built

  // --- Adaptive planner state (null/empty while disabled) ---
  std::unique_ptr<Planner> planner_;
  std::map<std::string, PartitionSavingsMeter> savings_;      // by column
  std::map<std::string, PartitionIndex> partition_indexes_;   // by probe_key
  std::map<std::string, ColumnIndexState> index_state_;       // by column
};

}  // namespace dba::query

#endif  // DBA_QUERY_ENGINE_H_
