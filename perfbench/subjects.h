#ifndef CIAO_PERFBENCH_SUBJECTS_H_
#define CIAO_PERFBENCH_SUBJECTS_H_

// The two things a benchmark round can drive with the same script:
//
//  * the CiaoSystem facade, exactly as an application uses it (timed runs);
//  * a stage-by-stage replica assembled from the layers' public functions,
//    with a span around every call into a layer (traced runs). It exists
//    because CiaoSystem hides the boundaries between client, transport,
//    loader, WAL and engine; its answers and exact counts are checked
//    against the facade's on every traced run.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/replan.h"
#include "costmodel/cost_model.h"
#include "engine/plan.h"
#include "optimizer/selection.h"
#include "storage/catalog.h"
#include "storage/jit_loader.h"
#include "storage/partial_loader.h"
#include "storage/segment_store.h"
#include "tracer.h"

namespace ciao::perfbench {

/// Counters the traced replica gathers at layer boundaries that the
/// facade does not expose. All zero for the facade.
struct BoundaryCounters {
  uint64_t payload_bytes = 0;       // ChunkMessage bytes through transport
  uint64_t client_bytes = 0;        // record bytes scanned by a prefilter
  uint64_t bits_set = 0;            // annotation bits set by clients
  uint64_t bits_evaluated = 0;      // records x predicates clients evaluated
  uint64_t wal_bytes = 0;           // WAL bytes appended by LogBatch
  uint64_t wal_appends = 0;
  double fleet_prefilter_s = 0.0;   // client CPU inside FleetScheduler
};

class Subject {
 public:
  virtual ~Subject() = default;

  /// One closed-loop ingest batch (acknowledged on return).
  virtual Status Ingest(const std::vector<std::string>& batch,
                        uint64_t request) = 0;
  virtual Result<QueryResult> Execute(const Query& query,
                                      uint64_t request) = 0;
  virtual Result<bool> ForceRelayout() = 0;
  virtual Status CompactAndCheckpoint() = 0;

  virtual const PushdownPlan& plan() const = 0;
  virtual size_t pushed() const = 0;
  virtual bool partial_loading() const = 0;
  virtual LoadStats load_stats() const = 0;
  virtual const TableCatalog& catalog() const = 0;
  /// nullptr when storage is off.
  virtual const SegmentStore* store() const = 0;
  /// nullptr when the adaptive runtime is off.
  virtual const ReplanController* replan() const = 0;
  virtual QueryPromotionStats promotion() const = 0;
  virtual BoundaryCounters boundary() const { return {}; }
};

struct SubjectInputs {
  const columnar::Schema* schema = nullptr;
  const Workload* planned = nullptr;
  const std::vector<std::string>* sample = nullptr;
  CiaoConfig config;
  CostModel cost_model = CostModel::Default();
};

/// CiaoSystem::Bootstrap behind the Subject interface.
Result<std::unique_ptr<Subject>> MakeSystemSubject(const SubjectInputs& in);

/// The traced replica: plans through workload::EstimateClauseStats,
/// SelectPredicates and BuildRegistry, ingests through ClientFilter /
/// FleetScheduler, ChunkMessage, Transport, SegmentStore::LogBatch and
/// PartialLoader::IngestMessage, and queries through PromoteForQuery,
/// QueryExecutor::Execute and ReplanController — each call inside a span
/// recorded by `tracer`. Supports the two pipeline shapes the benchmark
/// uses: the static sequential paper pipeline, and the adaptive pipeline
/// over a client fleet and a fresh segment store.
Result<std::unique_ptr<Subject>> MakeStageSubject(const SubjectInputs& in,
                                                  Tracer* tracer);

}  // namespace ciao::perfbench

#endif  // CIAO_PERFBENCH_SUBJECTS_H_
