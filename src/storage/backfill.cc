#include "storage/backfill.h"

#include <mutex>
#include <vector>

#include "common/timer.h"
#include "storage/rewrite.h"

namespace ciao {

namespace {

/// Input order, with rows matching >= 1 predicate in the "hot" run 0 and
/// all-zero rows in the "cold" run 1.
///
/// Row order within a segment carries no semantics (COUNT(*) engine;
/// per-row annotations and zone maps are rewritten alongside), and the
/// cold groups are exactly what the new epoch's skipping scans drop
/// without decoding a single column — which is how a backfilled catalog
/// matches a cold-reloaded one's scan cost despite retaining rows the old
/// epoch loaded. Because the runs re-coalesce across the segment's input
/// groups, repeated re-plans re-partition rather than progressively
/// fragmenting the layout.
std::vector<RowRef> HotColdOrder(const std::vector<AnnotatedGroup>& groups) {
  std::vector<RowRef> order;
  for (size_t g = 0; g < groups.size(); ++g) {
    const BitVector any = groups[g].bits.UnionAll();
    for (size_t r = 0; r < any.size(); ++r) {
      order.push_back(RowRef{static_cast<uint32_t>(g),
                             static_cast<uint32_t>(r), any.Get(r) ? 0u : 1u});
    }
  }
  return order;
}

}  // namespace

Status BackfillEpochAnnotations(TableCatalog* catalog,
                                const PredicateRegistry& registry,
                                uint64_t annotation_epoch,
                                BackfillStats* stats) {
  ScopedTimer timer(&stats->seconds);
  if (registry.empty()) {
    // No pushed-down predicates: no skipping scans can be planned under
    // the new epoch, so stale annotations are never consulted and the
    // sideline stays valid for full scans.
    return Status::OK();
  }

  // Promote first: the promoted segment is born in the new id space, so
  // the segment sweep below has nothing to rewrite for it.
  {
    std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
    RewriteInput input;
    input.sideline = catalog->SnapshotRaw();
    input.select = SidelineSelect::kAnyClientBit;
    RewriteStats rewrite;
    CIAO_RETURN_IF_ERROR(RewriteSegments(catalog, registry, annotation_epoch,
                                         input, nullptr, RewriteLayout{},
                                         &rewrite));
    stats->raw_promoted += rewrite.rows_read;
    stats->raw_kept += input.sideline->size() - rewrite.rows_read;
  }

  // One rewrite per stale segment keeps memory bounded out of core; each
  // gives one file that takes the old segment's slot.
  RewriteLayout layout;
  layout.rows_per_group = kDefaultRewriteRowsPerGroup;
  for (const SegmentRef& segment : catalog->SnapshotSegments()) {
    if (segment->annotation_epoch == annotation_epoch) continue;
    RewriteInput input;
    input.segments = {segment};
    RewriteStats rewrite;
    CIAO_RETURN_IF_ERROR(RewriteSegments(catalog, registry, annotation_epoch,
                                         input, HotColdOrder, layout,
                                         &rewrite));
    stats->groups_rebuilt += rewrite.groups_read;
    stats->rows_reannotated += rewrite.rows_read;
    if (rewrite.published) ++stats->segments_rebuilt;
  }
  return Status::OK();
}

}  // namespace ciao
