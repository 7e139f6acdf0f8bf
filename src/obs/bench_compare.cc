#include "obs/bench_compare.h"

#include <map>

#include "obs/bench_json.h"

namespace dba::obs {
namespace {

/// Stable identity of one result row: every string member plus the
/// integer "cores" column, in key order. Metric columns are numeric, so
/// they never leak into the identity; nor do the planner rows' `chosen`
/// and `best_measured` route names, measurements that vary run to run.
std::string RowKey(const JsonValue& row) {
  std::map<std::string, std::string> parts;
  for (const auto& [key, value] : row.members()) {
    if (value.is_string() && key != "chosen" && key != "best_measured") {
      parts[key] = value.as_string();
    } else if (key == "cores" && value.is_number()) {
      parts[key] = std::to_string(value.as_u64());
    }
  }
  std::string key;
  for (const auto& [name, value] : parts) {
    if (!key.empty()) key += " ";
    key += name + "=" + value;
  }
  return key;
}

}  // namespace

Result<BenchComparison> CompareBenchDocuments(
    const JsonValue& run, const JsonValue& baseline,
    const BenchCompareOptions& options) {
  if (const Status status = ValidateBenchJson(run); !status.ok()) {
    return Status(status.code(), "run document: " + status.message());
  }
  if (const Status status = ValidateBenchJson(baseline); !status.ok()) {
    return Status(status.code(), "baseline document: " + status.message());
  }
  if (run.at("bench").as_string() != baseline.at("bench").as_string()) {
    return Status::InvalidArgument(
        "bench name mismatch: run is '" + run.at("bench").as_string() +
        "', baseline is '" + baseline.at("bench").as_string() + "'");
  }
  if (!(options.tolerance >= 0.0 && options.tolerance < 1.0)) {
    return Status::InvalidArgument("tolerance must be in [0, 1)");
  }

  std::map<std::string, const JsonValue*> run_rows;
  for (const JsonValue& row : run.at("results").elements()) {
    run_rows[RowKey(row)] = &row;
  }

  BenchComparison comparison;
  for (const JsonValue& base_row : baseline.at("results").elements()) {
    const std::string key = RowKey(base_row);
    const auto it = run_rows.find(key);
    if (it == run_rows.end()) {
      comparison.missing_rows.push_back(key);
      continue;
    }
    for (const std::string& metric : options.metrics) {
      const JsonValue* base_value = base_row.Find(metric);
      if (base_value == nullptr || !base_value->is_number()) continue;
      BenchMetricDelta delta;
      delta.row_key = key;
      delta.metric = metric;
      delta.baseline_value = base_value->as_double();
      const JsonValue* run_value = it->second->Find(metric);
      if (run_value == nullptr || !run_value->is_number()) {
        // The run dropped a metric the baseline tracks. Absent is not
        // zero: tolerate it unless the caller asked for strict mode.
        if (!options.strict) {
          comparison.tolerated.push_back(key + " " + metric);
          continue;
        }
        delta.run_value = 0;
        delta.ratio = 0;
        delta.regressed = true;
      } else {
        delta.run_value = run_value->as_double();
        delta.ratio = delta.baseline_value != 0
                          ? delta.run_value / delta.baseline_value
                          : 1.0;
        delta.regressed =
            delta.baseline_value > 0 &&
            delta.run_value < delta.baseline_value * (1.0 - options.tolerance);
      }
      if (delta.regressed) ++comparison.regressions;
      comparison.deltas.push_back(std::move(delta));
    }
  }
  return comparison;
}

}  // namespace dba::obs
