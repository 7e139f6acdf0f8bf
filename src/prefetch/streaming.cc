#include "prefetch/streaming.h"

#include <algorithm>

namespace dba::prefetch {

StreamingSetOperation::StreamingSetOperation(Processor* processor,
                                             DmaConfig dma_config,
                                             uint32_t chunk_elements,
                                             const RunSettings& base_settings)
    : processor_(processor),
      dma_(dma_config),
      chunk_elements_(chunk_elements),
      base_settings_(base_settings) {
  if (chunk_elements_ == 0) {
    // Half the per-set capacity: the other half is the double buffer
    // the prefetcher fills while the core works.
    chunk_elements_ = std::max<uint32_t>(
        256, processor_->max_set_elements(0) / 2);
  }
}

Result<StreamingRun> StreamingSetOperation::Run(SetOp op,
                                                std::span<const uint32_t> a,
                                                std::span<const uint32_t> b) {
  StreamingRun run;
  size_t ia = 0;
  size_t ib = 0;

  while (ia < a.size() && ib < b.size()) {
    // Stage the next chunk of each stream.
    const size_t ca = std::min<size_t>(chunk_elements_, a.size() - ia);
    const size_t cb = std::min<size_t>(chunk_elements_, b.size() - ib);
    // Value pivot: everything up to the smaller staged maximum can be
    // processed without seeing future elements of either stream.
    const uint32_t pivot = std::min(a[ia + ca - 1], b[ib + cb - 1]);
    auto le_pivot = [pivot](uint32_t v) { return v <= pivot; };
    const size_t na = static_cast<size_t>(
        std::partition_point(a.begin() + static_cast<ptrdiff_t>(ia),
                             a.begin() + static_cast<ptrdiff_t>(ia + ca),
                             le_pivot) -
        (a.begin() + static_cast<ptrdiff_t>(ia)));
    const size_t nb = static_cast<size_t>(
        std::partition_point(b.begin() + static_cast<ptrdiff_t>(ib),
                             b.begin() + static_cast<ptrdiff_t>(ib + cb),
                             le_pivot) -
        (b.begin() + static_cast<ptrdiff_t>(ib)));

    DBA_ASSIGN_OR_RETURN(
        SetOpRun chunk_run,
        op == SetOp::kMerge
            ? processor_->RunMerge(a.subspan(ia, na), b.subspan(ib, nb),
                                   base_settings_)
            : processor_->RunSetOperation(op, a.subspan(ia, na),
                                          b.subspan(ib, nb),
                                          base_settings_));

    // Transfer cost of this round: both staged chunks in, results out.
    const uint64_t dma_bytes =
        4 * (static_cast<uint64_t>(na) + nb + chunk_run.result.size());
    const uint64_t dma_cycles = dma_.TransferCycles(dma_bytes);
    run.compute_cycles += chunk_run.metrics.cycles;
    run.dma_cycles += dma_cycles;
    // Double buffering: each round overlaps its transfer with the
    // previous round's compute.
    run.total_cycles += std::max(chunk_run.metrics.cycles, dma_cycles);
    run.result.insert(run.result.end(), chunk_run.result.begin(),
                      chunk_run.result.end());
    ++run.chunks;
    ia += na;
    ib += nb;
  }

  // Tail: one stream is exhausted.
  const bool a_left = ia < a.size();
  std::span<const uint32_t> rest =
      a_left ? a.subspan(ia) : b.subspan(ib);
  if (!rest.empty()) {
    std::vector<uint32_t> tail;
    if (op == SetOp::kUnion || op == SetOp::kMerge ||
        (op == SetOp::kDifference && a_left)) {
      tail.assign(rest.begin(), rest.end());
      // The tail still streams through the prefetcher and the copy path.
      const uint64_t bytes = 4 * 2 * static_cast<uint64_t>(rest.size());
      const uint64_t dma_cycles = dma_.TransferCycles(bytes);
      // 128-bit copy instructions: 2 port cycles + loop per beat.
      const uint64_t copy_cycles = 3 * ((rest.size() + 3) / 4);
      run.compute_cycles += copy_cycles;
      run.dma_cycles += dma_cycles;
      run.total_cycles += std::max(copy_cycles, dma_cycles);
    }
    run.result.insert(run.result.end(), tail.begin(), tail.end());
  }

  run.dma_bound = run.dma_cycles > run.compute_cycles;
  if (run.total_cycles > 0) {
    const double seconds =
        static_cast<double>(run.total_cycles) / processor_->frequency_hz();
    run.throughput_meps =
        static_cast<double>(a.size() + b.size()) / seconds / 1e6;
  }
  return run;
}

Result<CoreSetOpRun> RunCoreSetOperation(Processor& core, SetOp op,
                                         std::span<const uint32_t> a,
                                         std::span<const uint32_t> b,
                                         const RunSettings& settings) {
  CoreSetOpRun run;
  const bool fits =
      a.size() <= core.max_set_elements(static_cast<uint32_t>(b.size())) &&
      b.size() <= core.max_set_elements(static_cast<uint32_t>(a.size()));
  if (fits) {
    // kMerge has its own processor entry point (RunSetOperation rejects
    // it: duplicates make it a sort building block, not a set op).
    DBA_ASSIGN_OR_RETURN(SetOpRun core_run,
                         op == SetOp::kMerge
                             ? core.RunMerge(a, b, settings)
                             : core.RunSetOperation(op, a, b, settings));
    run.cycles = core_run.metrics.cycles;
    run.result = std::move(core_run.result);
    return run;
  }
  StreamingSetOperation streaming(&core, DmaConfig{}, 0, settings);
  DBA_ASSIGN_OR_RETURN(StreamingRun streamed, streaming.Run(op, a, b));
  run.cycles = streamed.total_cycles;
  run.result = std::move(streamed.result);
  run.streamed = true;
  return run;
}

Result<ExternalSortRun> ExternalSort(Processor& core,
                                     std::span<const uint32_t> values,
                                     const RunSettings& settings) {
  ExternalSortRun run;
  const size_t capacity = core.max_sort_elements();
  StreamingSetOperation streaming(&core, DmaConfig{}, 0, settings);
  size_t pos = 0;
  do {
    const size_t len = std::min(capacity, values.size() - pos);
    DBA_ASSIGN_OR_RETURN(SortRun chunk,
                         core.RunSort(values.subspan(pos, len), settings));
    run.sort_cycles += chunk.metrics.cycles;
    ++run.chunks;
    pos += len;
    if (run.chunks == 1) {
      run.sorted = std::move(chunk.sorted);
      continue;
    }
    DBA_ASSIGN_OR_RETURN(
        StreamingRun merged,
        streaming.Run(SetOp::kMerge, run.sorted, chunk.sorted));
    run.merge_cycles += merged.total_cycles;
    run.merge_elements += run.sorted.size() + chunk.sorted.size();
    run.sorted = std::move(merged.result);
  } while (pos < values.size());
  return run;
}

}  // namespace dba::prefetch
