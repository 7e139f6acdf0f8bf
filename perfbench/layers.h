#ifndef DBA_PERFBENCH_LAYERS_H_
#define DBA_PERFBENCH_LAYERS_H_

// Per-layer replays of the service ledger benchmark. Each replay calls
// one layer's public functions directly, serially and outside the timed
// window, on a fixed seeded sample of the workload's own inputs, and
// checks every output against the independent oracles of workload.h.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "service/service_clock.h"
#include "workload.h"

namespace dba::perfbench {

/// Every board of the benchmark: four DBA_2LSU_EIS cores simulated on two
/// host threads (the service scheduler plus one pool worker).
constexpr int kBoardCores = 4;
constexpr int kHostThreads = 2;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// In-memory span log of the traced run: name, track, start, end, the
/// identifier it belongs to and the span that caused it, written out as
/// Chrome trace-event JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int track;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;
    uint64_t parent;
  };

  void Add(const char* name, int track, uint64_t start_ns, uint64_t end_ns,
           uint64_t id = 0, uint64_t parent = 0) {
    spans_.push_back(Span{name, track, start_ns, end_ns, id, parent});
  }
  Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The one clock of a run: the service's batch regions, the generator's
/// request stamps, the spans and the replays all read it.
service::SystemClock& LedgerClock();
inline uint64_t NowNs() { return LedgerClock().NowNs(); }

/// What the replays run: the set ops the workload generates (direct
/// ops, or the top-level RID-set op of each predicate) and, for the
/// predicate workloads, the predicates themselves over `columns`.
struct LayerSample {
  std::vector<DirectOp> ops;
  size_t batch = 16;  // RunSetOperationBatch items per call
  std::vector<std::shared_ptr<const query::Predicate>> predicates;
  const Columns* columns = nullptr;
};

/// The top-level set op a predicate's root combinator performs, with
/// its operands evaluated by the row-scan oracle.
DirectOp RootSetOp(const query::Predicate& predicate, const Columns& columns);

/// Replays `sample` through the query, system, core/sim/prefetch and
/// baseline layers and appends their metrics. Returns false (with
/// `error` set) on any failed call or mismatch.
bool ReplayLayers(const LayerSample& sample, SpanLog* spans,
                  std::vector<Metric>* metrics, std::string* error);

/// Simulated accelerator throughput at f_max in Melem/s, deterministic:
/// direct ops 0..count-1 of the seed's stream replayed in fixed batches
/// through a healthy board (elements / sum of makespans) ...
bool BoardSimThroughput(uint64_t seed, size_t count, size_t batch,
                        double* melem_per_s, std::string* error);
/// ... or predicates replayed through a private QueryEngine on one core
/// (elements_processed / accelerator_seconds).
bool EngineSimThroughput(
    const std::vector<std::shared_ptr<const query::Predicate>>& predicates,
    const Columns& columns, double* melem_per_s, std::string* error);

}  // namespace dba::perfbench

#endif  // DBA_PERFBENCH_LAYERS_H_
