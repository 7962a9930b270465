#include "storage/jit_loader.h"

#include <mutex>
#include <utility>

#include "common/timer.h"
#include "storage/rewrite.h"

namespace ciao {

namespace {

/// The shared body of both promotions: one sideline rewrite selecting
/// `input.select`'s records. The caller holds restructure_mu().
Status PromoteSideline(TableCatalog* catalog, RewriteInput input,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, JitStats* stats,
                       RewriteStats* rewrite) {
  input.sideline = catalog->SnapshotRaw();
  if (input.sideline->empty()) return Status::OK();
  ScopedTimer timer(&stats->seconds);
  CIAO_RETURN_IF_ERROR(RewriteSegments(catalog, registry, annotation_epoch,
                                       input, nullptr, RewriteLayout{},
                                       rewrite));
  stats->records_parsed += rewrite->rows_read;
  stats->parse_errors += rewrite->parse_failures;
  return Status::OK();
}

}  // namespace

Status PromoteRawToColumnar(TableCatalog* catalog,
                            const PredicateRegistry& registry,
                            uint64_t annotation_epoch, JitStats* stats) {
  std::lock_guard<std::mutex> restructure(catalog->restructure_mu());
  RewriteStats rewrite;
  return PromoteSideline(catalog, RewriteInput{}, registry, annotation_epoch,
                         stats, &rewrite);
}

Status PromoteForQuery(TableCatalog* catalog, const Query& query,
                       const PredicateRegistry& registry,
                       uint64_t annotation_epoch, JitStats* stats,
                       QueryPromotionStats* promotion) {
  // Promotion is an optimization: when another thread is already
  // restructuring the sideline, skip instead of queueing behind it —
  // the query's full scan handles raw records either way.
  std::unique_lock<std::mutex> restructure(catalog->restructure_mu(),
                                           std::try_to_lock);
  if (!restructure.owns_lock()) return Status::OK();
  RewriteInput input;
  input.select = SidelineSelect::kQueryScreen;
  input.query = &query;
  RewriteStats rewrite;
  CIAO_RETURN_IF_ERROR(PromoteSideline(catalog, std::move(input), registry,
                                       annotation_epoch, stats, &rewrite));
  promotion->promoted += rewrite.rows_read;
  promotion->screened_out += rewrite.records_unselected;
  promotion->parse_failures += rewrite.parse_failures;
  return Status::OK();
}

}  // namespace ciao
