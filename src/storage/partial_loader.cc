#include "storage/partial_loader.h"

#include "columnar/file_writer.h"
#include "columnar/json_converter.h"
#include "common/timer.h"

namespace ciao {

Status PartialLoader::IngestChunk(const json::JsonChunk& chunk,
                                  const BitVectorSet& annotations,
                                  bool partial_loading_enabled,
                                  TableCatalog* catalog,
                                  LoadStats* stats) const {
  if (annotations.num_predicates() != num_predicates_) {
    return Status::InvalidArgument(
        "IngestChunk: annotation predicate count mismatch");
  }
  if (num_predicates_ > 0 && annotations.num_records() != chunk.size()) {
    return Status::InvalidArgument(
        "IngestChunk: annotation record count mismatch");
  }

  Stopwatch total_watch;
  stats->records_in += chunk.size();

  // The loading criterion: a record is loaded iff it satisfies >= 1
  // pushed-down predicate (paper §VI-A). No predicates, or partial
  // loading disabled -> load everything.
  BitVector load_mask;
  if (!partial_loading_enabled || num_predicates_ == 0) {
    load_mask = BitVector(chunk.size(), true);
  } else {
    load_mask = annotations.UnionAll();
  }

  columnar::BatchBuilder builder(schema_);
  // Sidelined records are buffered and appended under one catalog lock
  // per chunk, so concurrent loaders don't serialize per record on the
  // sideline-heavy (selective-pushdown) path.
  std::vector<std::string_view> sidelined;
  {
    ScopedTimer parse_timer(&stats->parse_seconds);
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (load_mask.Get(i)) {
        // Malformed records are counted and skipped; the loader keeps
        // going (a stream should not die on one bad record). The bit in
        // the load mask must then be cleared so annotation compaction
        // stays aligned with the rows actually loaded.
        if (!builder.AppendSerialized(chunk.Record(i)).ok()) {
          load_mask.Set(i, false);
        }
      } else {
        sidelined.push_back(chunk.Record(i));
        ++stats->records_sidelined;
      }
    }
    catalog->AppendRawBatch(sidelined);
  }
  stats->parse_errors += builder.parse_errors();
  stats->coercion_errors += builder.coercion_errors();

  const size_t loaded = builder.num_rows();
  if (loaded > 0) {
    ScopedTimer encode_timer(&stats->encode_seconds);
    const columnar::RecordBatch batch = builder.Finish();
    // Re-index chunk-level bitvectors to the loaded rows only.
    BitVectorSet compacted;
    if (num_predicates_ > 0) {
      CIAO_ASSIGN_OR_RETURN(compacted, annotations.CompactBy(load_mask));
    }
    columnar::TableWriter writer(schema_);
    CIAO_RETURN_IF_ERROR(writer.AppendRowGroup(batch, compacted));
    CIAO_RETURN_IF_ERROR(catalog->AddSegment(std::move(writer).Finish(),
                                             loaded, annotation_epoch_));
    stats->records_loaded += loaded;
  }

  stats->total_seconds += total_watch.ElapsedSeconds();
  return Status::OK();
}

std::shared_ptr<const ClientFilter> PartialLoader::CompletionFilter(
    const std::vector<uint32_t>& missing_ids) const {
  std::lock_guard<std::mutex> lock(completion_mu_);
  auto it = completion_filters_.find(missing_ids);
  if (it != completion_filters_.end()) return it->second;
  auto filter =
      std::make_shared<const ClientFilter>(registry_, missing_ids);
  completion_filters_.emplace(missing_ids, filter);
  return filter;
}

Status PartialLoader::IngestMessage(const ChunkMessage& msg,
                                    bool partial_loading_enabled,
                                    TableCatalog* catalog,
                                    LoadStats* stats) const {
  CIAO_ASSIGN_OR_RETURN(BitVectorSet annotations,
                        msg.ExpandAnnotations(num_predicates_));
  if (server_completion()) {
    const std::vector<uint32_t> missing = msg.MissingIds(num_predicates_);
    if (!missing.empty()) {
      // Evaluate the mask's complement on the raw bytes the client
      // already shipped — the same no-false-negative prefilter the
      // client runs — replacing the conservative all-ones vectors with
      // exact bits. The chunk's whole annotation set is then as precise
      // as a full-budget client's.
      const std::shared_ptr<const ClientFilter> filter =
          CompletionFilter(missing);
      PrefilterStats completion;
      const BitVectorSet exact = filter->Evaluate(msg.chunk, &completion);
      for (size_t i = 0; i < missing.size(); ++i) {
        *annotations.mutable_vector(missing[i]) = exact.vector(i);
      }
      stats->predicates_completed += missing.size();
      stats->completion_seconds += completion.seconds;
    }
  }
  return IngestChunk(msg.chunk, annotations, partial_loading_enabled, catalog,
                     stats);
}

LoaderPool::LoaderPool(const PartialLoader* loader, Transport* transport,
                       TableCatalog* catalog, LoaderPoolOptions options)
    : loader_(loader),
      transport_(transport),
      catalog_(catalog),
      options_(options) {
  if (options_.num_loaders == 0) options_.num_loaders = 1;
}

LoaderPool::~LoaderPool() {
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void LoaderPool::Start() {
  workers_.reserve(options_.num_loaders);
  for (size_t i = 0; i < options_.num_loaders; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status LoaderPool::Join() {
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

Status LoaderPool::LoadOne(std::string_view payload, LoadStats* stats) const {
  CIAO_ASSIGN_OR_RETURN(ChunkMessage msg, ChunkMessage::Deserialize(payload));
  return loader_->IngestMessage(msg, options_.partial_loading_enabled,
                                catalog_, stats);
}

void LoaderPool::WorkerLoop() {
  LoadStats local;
  Status error;
  while (true) {
    Result<std::optional<std::string>> payload = transport_->Receive();
    if (!payload.ok()) {
      if (error.ok()) error = payload.status();
      break;
    }
    if (!payload->has_value()) break;  // transport closed and drained
    // After the first failure keep consuming (and discarding) so that
    // senders blocked on a full bounded queue are never deadlocked.
    if (!error.ok()) continue;
    Status st = LoadOne(**payload, &local);
    if (!st.ok()) error = st;
  }
  std::lock_guard<std::mutex> lock(mu_);
  merged_.MergeFrom(local);
  if (first_error_.ok() && !error.ok()) first_error_ = error;
}

}  // namespace ciao
