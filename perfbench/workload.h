#ifndef DBA_PERFBENCH_WORKLOAD_H_
#define DBA_PERFBENCH_WORKLOAD_H_

// Seeded inputs and independent oracles of the service ledger benchmark.
//
// Every input is a pure function of (seed, index), so the load generator
// can build request i on the fly and the checker can rebuild it after
// the timed window without either keeping operands in memory. The
// oracles share no code with the program: direct ops are checked with
// the <algorithm> set routines, predicates with a row scan over the
// benchmark's own copy of the columns.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/processor.h"
#include "query/predicate.h"
#include "query/table.h"

namespace dba::perfbench {

/// splitmix64: the benchmark's only source of randomness.
uint64_t Mix(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    return Mix(state_);
  }
  /// Uniform in [0, bound), bound <= 2^32.
  uint32_t Below(uint64_t bound) {
    return static_cast<uint32_t>(((Next() >> 32) * bound) >> 32);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Order-sensitive 64-bit fingerprint of a result (length included).
uint64_t Fingerprint(std::span<const uint32_t> values);

// --- Direct set operations (direct_mix, outage) ---

/// Operand sides range log-uniformly over [kMinSide, kMaxSide]; a
/// DBA_2LSU_EIS core holds about 8K elements per side in its 64 KiB
/// local store, so roughly 44% of the ops stream through the prefetcher.
inline constexpr uint32_t kMinSide = 1024;
inline constexpr uint32_t kMaxSide = 16384;
inline constexpr uint32_t kValueRange = 1u << 20;

struct DirectOp {
  SetOp op = SetOp::kIntersect;
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

/// Request `index` of the direct stream: ops rotate intersect, union,
/// difference, merge (equal shares); operands are fresh sorted,
/// duplicate-free sets.
DirectOp MakeDirectOp(uint64_t seed, uint64_t index);

/// std::set_intersection / set_union / set_difference / merge.
std::vector<uint32_t> DirectOracle(SetOp op, std::span<const uint32_t> a,
                                   std::span<const uint32_t> b);

// --- Predicate queries (select_cold, select_hot_rw) ---

/// The service schema: region in [0,5), status in [0,3), amount in
/// [0,10000).
inline constexpr uint32_t kRows = 262144;
inline constexpr int kNumColumns = 3;
extern const char* const kColumnNames[kNumColumns];
inline constexpr uint32_t kColumnDomain[kNumColumns] = {5, 3, 10000};

struct Columns {
  std::vector<uint32_t> values[kNumColumns];
  const std::vector<uint32_t>& operator[](int c) const { return values[c]; }
};

Columns MakeColumns(uint64_t seed);
/// Fresh values of `column` for update number `update_index`.
std::vector<uint32_t> MakeUpdateValues(uint64_t seed, uint64_t update_index,
                                       int column);
query::Table MakeTable(const std::string& name, const Columns& columns);

/// Predicate `index` of a stream: one of four AND/OR/NOT shapes over
/// Equals, Between and GreaterEq leaves, each carrying a Between leaf
/// on amount whose bounds are injective in `index` (for index < 3e7),
/// so no two predicates of one stream are equal.
std::shared_ptr<const query::Predicate> MakePredicate(uint64_t seed,
                                                      uint64_t index);

/// Row-scan evaluation: the sorted RIDs of the rows satisfying
/// `predicate` over `columns`.
std::vector<uint32_t> ScanOracle(const query::Predicate& predicate,
                                 const Columns& columns);

/// Index of `column` in the schema, or -1.
int ColumnIndex(const std::string& column);
/// Bitmask of schema columns referenced by `predicate`.
uint32_t ColumnMask(const query::Predicate& predicate);

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace dba::perfbench

#endif  // DBA_PERFBENCH_WORKLOAD_H_
