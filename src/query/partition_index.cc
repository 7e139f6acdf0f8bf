#include "query/partition_index.h"

#include <algorithm>
#include <bit>

namespace dba::query {

PartitionIndex PartitionIndex::Build(std::span<const uint32_t> sorted_values) {
  PartitionIndex index;
  index.values_.assign(sorted_values.begin(), sorted_values.end());
  if (index.values_.empty()) return index;

  const size_t n = index.values_.size();
  const size_t partitions = (n + kPartitionWidth - 1) / kPartitionWidth;
  index.partition_max_.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    const size_t end = std::min(n, (p + 1) * static_cast<size_t>(
                                                kPartitionWidth));
    index.partition_max_.push_back(index.values_[end - 1]);
  }

  // Directory radix: enough entries that each maps to O(1) partitions on
  // a uniform domain, capped so the directory never dominates the index.
  const uint32_t max_value = index.values_.back();
  size_t dir_bits = std::bit_width(partitions) + 1;
  if (dir_bits > 20) dir_bits = 20;
  const uint32_t value_bits = std::bit_width(max_value);
  index.shift_ =
      value_bits > dir_bits ? value_bits - static_cast<uint32_t>(dir_bits) : 0;
  const size_t dir_size = (static_cast<size_t>(max_value) >> index.shift_) + 2;
  index.directory_.resize(dir_size);
  // directory_[d] = first partition whose maximum reaches radix bucket d.
  size_t partition = 0;
  for (size_t d = 0; d < dir_size; ++d) {
    while (partition < partitions &&
           (static_cast<size_t>(index.partition_max_[partition]) >>
            index.shift_) < d) {
      ++partition;
    }
    index.directory_[d] = static_cast<uint32_t>(partition);
  }
  return index;
}

size_t PartitionIndex::FindPartition(uint32_t value, size_t from) const {
  const size_t bucket = static_cast<size_t>(value) >> shift_;
  size_t p = bucket < directory_.size() ? directory_[bucket]
                                        : partition_max_.size();
  if (p < from) p = from;  // keep the monotone cursor
  while (p < partition_max_.size() && partition_max_[p] < value) ++p;
  return p;
}

bool PartitionIndex::Contains(uint32_t value) const {
  if (values_.empty() || value > values_.back()) return false;
  const size_t p = FindPartition(value, 0);
  if (p >= partition_max_.size()) return false;
  const size_t begin = p * kPartitionWidth;
  const size_t end = std::min(values_.size(), begin + kPartitionWidth);
  return std::binary_search(values_.begin() + static_cast<ptrdiff_t>(begin),
                            values_.begin() + static_cast<ptrdiff_t>(end),
                            value);
}

std::vector<uint32_t> PartitionIndex::Intersect(
    std::span<const uint32_t> probes) const {
  std::vector<uint32_t> out;
  if (values_.empty() || probes.empty()) return out;
  out.reserve(std::min(probes.size(), values_.size()));
  size_t partition = 0;
  for (const uint32_t value : probes) {
    if (value > values_.back()) break;
    partition = FindPartition(value, partition);
    if (partition >= partition_max_.size()) break;
    const size_t begin = partition * kPartitionWidth;
    const size_t end = std::min(values_.size(), begin + kPartitionWidth);
    if (std::binary_search(values_.begin() + static_cast<ptrdiff_t>(begin),
                           values_.begin() + static_cast<ptrdiff_t>(end),
                           value)) {
      out.push_back(value);
    }
  }
  return out;
}

bool PartitionSavingsMeter::RecordMiss(double savings_ns,
                                       double build_cost_ns,
                                       double payback_factor) {
  if (savings_ns <= 0) return false;
  missed_savings_ns_ += savings_ns;
  ++misses_recorded_;
  return missed_savings_ns_ >= payback_factor * build_cost_ns;
}

void PartitionSavingsMeter::ChargeBuild(double build_cost_ns,
                                        uint64_t indexed_entries) {
  missed_savings_ns_ -= build_cost_ns;
  if (missed_savings_ns_ < 0) missed_savings_ns_ = 0;
  ++indexes_built_;
  indexed_entries_ += indexed_entries;
}

}  // namespace dba::query
