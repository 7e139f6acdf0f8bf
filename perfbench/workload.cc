#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace dba::perfbench {

const char* const kColumnNames[kNumColumns] = {"region", "status", "amount"};

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

uint64_t Fingerprint(std::span<const uint32_t> values) {
  // Four independent lanes keep the multiply chain off the critical
  // path; the generator pays this once per response.
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t lane[4] = {values.size(), 1, 2, 3};
  size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = (lane[k] ^ values[i + static_cast<size_t>(k)]) * kMul;
      lane[k] ^= lane[k] >> 29;
    }
  }
  for (; i < values.size(); ++i) lane[0] = (lane[0] ^ values[i]) * kMul;
  return Mix(lane[0] ^ Mix(lane[1] ^ Mix(lane[2] ^ Mix(lane[3]))));
}

namespace {

std::vector<uint32_t> SortedSet(Rng& rng, uint32_t n) {
  std::vector<uint32_t> out(n);
  const uint64_t gap = kValueRange / n;
  uint32_t v = rng.Below(gap);
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = v;
    v += 1 + rng.Below(2 * gap - 1);
  }
  return out;
}

/// Fractional part of start + index * step: a Weyl sequence, so any run
/// of consecutive indices covers [0, 1) evenly and the work a run of
/// requests carries hardly depends on the seed.
double Stratified(uint64_t seed, uint64_t index, double step) {
  const double start = static_cast<double>(Mix(seed) >> 11) * 0x1.0p-53;
  const double x = start + static_cast<double>(index) * step;
  return x - std::floor(x);
}

uint32_t SideSize(double u) {
  const double span = std::log2(static_cast<double>(kMaxSide) / kMinSide);
  return static_cast<uint32_t>(std::lround(kMinSide * std::exp2(u * span)));
}

}  // namespace

DirectOp MakeDirectOp(uint64_t seed, uint64_t index) {
  static constexpr SetOp kOps[4] = {SetOp::kIntersect, SetOp::kUnion,
                                    SetOp::kDifference, SetOp::kMerge};
  Rng rng(Mix(seed ^ 0xD1EC7ull) + index * 0x2545F4914F6CDD1Dull);
  DirectOp op;
  op.op = kOps[index % 4];
  op.a = SortedSet(rng, SideSize(Stratified(seed ^ 0xA, index, 0.6180339887)));
  op.b = SortedSet(rng, SideSize(Stratified(seed ^ 0xB, index, 0.7548776662)));
  return op;
}

std::vector<uint32_t> DirectOracle(SetOp op, std::span<const uint32_t> a,
                                   std::span<const uint32_t> b) {
  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  auto sink = std::back_inserter(out);
  switch (op) {
    case SetOp::kIntersect:
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), sink);
      break;
    case SetOp::kUnion:
      std::set_union(a.begin(), a.end(), b.begin(), b.end(), sink);
      break;
    case SetOp::kDifference:
      std::set_difference(a.begin(), a.end(), b.begin(), b.end(), sink);
      break;
    default:
      std::merge(a.begin(), a.end(), b.begin(), b.end(), sink);
      break;
  }
  return out;
}

Columns MakeColumns(uint64_t seed) {
  Columns columns;
  for (int c = 0; c < kNumColumns; ++c) {
    columns.values[c] = MakeUpdateValues(seed, 0, c);
  }
  return columns;
}

std::vector<uint32_t> MakeUpdateValues(uint64_t seed, uint64_t update_index,
                                       int column) {
  Rng rng(Mix(seed ^ 0xC0105ull) ^ Mix(update_index * 8 + 1 +
                                       static_cast<uint64_t>(column)));
  std::vector<uint32_t> values(kRows);
  for (uint32_t& v : values) v = rng.Below(kColumnDomain[column]);
  return values;
}

query::Table MakeTable(const std::string& name, const Columns& columns) {
  query::Table table(name);
  for (int c = 0; c < kNumColumns; ++c) {
    (void)table.AddColumn(kColumnNames[c], columns[c]);
  }
  return table;
}

std::shared_ptr<const query::Predicate> MakePredicate(uint64_t seed,
                                                      uint64_t index) {
  using namespace query;
  // (lo, width) is a bijection of index over [0, 10000 * 3000): lo walks
  // a full cycle mod 10000, width steps once per cycle. Both stride
  // evenly through their ranges, like the other constants, so the work
  // of a run of predicates hardly depends on the seed.
  const uint64_t cycle_pos = index % 10000;
  const uint32_t lo = static_cast<uint32_t>(
      (Mix(seed) % 10000 + cycle_pos * 7919) % 10000);
  const uint32_t width = static_cast<uint32_t>(
      100 + (index / 10000 + Mix(seed ^ 1) % 3000 + cycle_pos * 1237) % 3000);
  const auto pick = [&](uint64_t salt, uint32_t n, double step) {
    return static_cast<uint32_t>(Stratified(seed ^ salt, index, step) * n);
  };
  const uint32_t region = pick(0x1, 5, 0.4142135624);
  const uint32_t status = pick(0x2, 3, 0.7320508076);
  PredicatePtr range = Between("amount", lo, lo + width);
  PredicatePtr p;
  switch ((index + seed) % 4) {
    case 0:
      p = And(std::move(range), Equals("region", region));
      break;
    case 1:
      p = Or(std::move(range),
             And(Equals("status", status),
                 GreaterEq("amount", 8000 + pick(0x3, 2000, 0.2360679775))));
      break;
    case 2:
      p = And(std::move(range), Not(Equals("region", region)));
      break;
    default: {
      std::vector<PredicatePtr> terms;
      terms.push_back(Or(Equals("region", region),
                         Equals("region",
                                (region + 1 + pick(0x4, 4, 0.6457513111)) %
                                    5)));
      terms.push_back(Not(Equals("status", status)));
      terms.push_back(std::move(range));
      p = And(std::move(terms));
      break;
    }
  }
  return std::shared_ptr<const Predicate>(std::move(p));
}

int ColumnIndex(const std::string& column) {
  for (int c = 0; c < kNumColumns; ++c) {
    if (column == kColumnNames[c]) return c;
  }
  return -1;
}

uint32_t ColumnMask(const query::Predicate& predicate) {
  if (predicate.is_leaf()) return 1u << ColumnIndex(predicate.column);
  uint32_t mask = 0;
  for (const auto& child : predicate.children) mask |= ColumnMask(*child);
  return mask;
}

namespace {

using Bitmap = std::vector<uint8_t>;

Bitmap Scan(const query::Predicate& p, const Columns& columns) {
  using Kind = query::Predicate::Kind;
  Bitmap out(kRows, 0);
  if (p.is_leaf()) {
    const std::vector<uint32_t>& v = columns[ColumnIndex(p.column)];
    for (uint32_t r = 0; r < kRows; ++r) {
      switch (p.kind) {
        case Kind::kEquals:
          out[r] = v[r] == p.lo;
          break;
        case Kind::kBetween:
          out[r] = v[r] >= p.lo && v[r] <= p.hi;
          break;
        case Kind::kLessEq:
          out[r] = v[r] <= p.hi;
          break;
        default:
          out[r] = v[r] >= p.lo;
          break;
      }
    }
    return out;
  }
  if (p.kind == Kind::kNot) {
    out = Scan(*p.children[0], columns);
    for (uint8_t& bit : out) bit ^= 1;
    return out;
  }
  out = Scan(*p.children[0], columns);
  for (size_t i = 1; i < p.children.size(); ++i) {
    const Bitmap other = Scan(*p.children[i], columns);
    for (uint32_t r = 0; r < kRows; ++r) {
      out[r] = p.kind == Kind::kAnd ? (out[r] & other[r]) : (out[r] | other[r]);
    }
  }
  return out;
}

}  // namespace

std::vector<uint32_t> ScanOracle(const query::Predicate& predicate,
                                 const Columns& columns) {
  const Bitmap bits = Scan(predicate, columns);
  std::vector<uint32_t> rids;
  for (uint32_t r = 0; r < kRows; ++r) {
    if (bits[r]) rids.push_back(r);
  }
  return rids;
}

Zipf::Zipf(size_t n, double exponent) : cdf_(n) {
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

}  // namespace dba::perfbench
