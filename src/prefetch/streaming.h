#ifndef DBA_PREFETCH_STREAMING_H_
#define DBA_PREFETCH_STREAMING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "prefetch/dma.h"

namespace dba::prefetch {

/// Result of a streamed (prefetcher-fed) set operation.
struct StreamingRun {
  std::vector<uint32_t> result;
  uint64_t compute_cycles = 0;   // core cycles across all chunks
  uint64_t dma_cycles = 0;       // total transfer cycles
  uint64_t total_cycles = 0;     // with compute/transfer overlap
  uint32_t chunks = 0;
  bool dma_bound = false;
  double throughput_meps = 0;  // at the processor's f_max
};

/// Executes sorted-set operations on inputs larger than the local data
/// memories by streaming value-partitioned chunks through the data
/// prefetcher (Section 3.2): double-buffered bursts fill the second port
/// of the local memories while the core processes the previous chunk, so
/// throughput stays constant for larger data sets (Section 5.2).
///
/// Chunking is value-based: each round processes all elements up to
/// pivot = min(max of the staged A chunk, max of the staged B chunk),
/// which both sides consume completely -- exactly the partitioning the
/// prefetcher FSM performs in hardware.
class StreamingSetOperation {
 public:
  /// `processor` must outlive this object. `chunk_elements` is the
  /// per-side staging size; 0 picks the largest that fits the local
  /// memories. `base_settings` is applied to every per-chunk kernel run
  /// (e.g. a watchdog budget from a fault-tolerant caller).
  StreamingSetOperation(Processor* processor, DmaConfig dma_config,
                        uint32_t chunk_elements = 0,
                        const RunSettings& base_settings = {});

  Result<StreamingRun> Run(SetOp op, std::span<const uint32_t> a,
                           std::span<const uint32_t> b);

 private:
  Processor* processor_;
  DmaController dma_;
  uint32_t chunk_elements_;
  RunSettings base_settings_;
};

/// One set operation (intersect, union, difference or merge) on one
/// core: run in the local store when both operands fit, streamed through
/// the prefetcher otherwise. Operands must be non-empty (see
/// EmptyOperandResult). Returns the raw cycles; callers do their own
/// accounting.
struct CoreSetOpRun {
  std::vector<uint32_t> result;
  uint64_t cycles = 0;  // kernel cycles, or streamed total with DMA overlap
  bool streamed = false;
};
Result<CoreSetOpRun> RunCoreSetOperation(Processor& core, SetOp op,
                                         std::span<const uint32_t> a,
                                         std::span<const uint32_t> b,
                                         const RunSettings& settings);

/// Sorts any number of values on one core: local-store-sized chunks on
/// the merge-sort kernel, each sorted chunk merged into the output so far
/// with the streamed merge kernel (chunks - 1 merges). An input that fits
/// is one chunk and no merge.
struct ExternalSortRun {
  std::vector<uint32_t> sorted;
  uint64_t sort_cycles = 0;     // across all chunk sorts
  uint64_t merge_cycles = 0;    // across all streamed merges
  uint32_t chunks = 0;
  uint64_t merge_elements = 0;  // input elements across all merges
};
Result<ExternalSortRun> ExternalSort(Processor& core,
                                     std::span<const uint32_t> values,
                                     const RunSettings& settings);

}  // namespace dba::prefetch

#endif  // DBA_PREFETCH_STREAMING_H_
