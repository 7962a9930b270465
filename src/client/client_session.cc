#include "client/client_session.h"

namespace ciao {

json::JsonChunk ClientSession::BuildChunk(
    const std::vector<std::string>& records, size_t start, size_t end) {
  size_t bytes = 0;
  for (size_t i = start; i < end; ++i) bytes += records[i].size() + 1;
  json::JsonChunk chunk;
  chunk.Reserve(end - start, bytes);
  for (size_t i = start; i < end; ++i) {
    chunk.AppendSerialized(records[i]);
  }
  return chunk;
}

Status ClientSession::SendRecords(const std::vector<std::string>& records) {
  for (size_t start = 0; start < records.size(); start += chunk_size_) {
    const size_t end = std::min(records.size(), start + chunk_size_);
    CIAO_RETURN_IF_ERROR(SendChunk(BuildChunk(records, start, end)));
  }
  return Status::OK();
}

Status ClientSession::SendChunk(json::JsonChunk chunk) {
  return transport_->Send(PrepareChunk(std::move(chunk)));
}

std::string ClientSession::PrepareChunk(json::JsonChunk chunk) {
  ChunkMessage msg;
  msg.predicate_ids = filter_.evaluated_ids();
  // The chunk's evaluated-predicate mask: which of the registry's
  // predicates the ids cover (budget-limited clients evaluate a subset).
  msg.total_predicates = static_cast<uint32_t>(filter_.registry()->size());
  msg.annotations = filter_.Evaluate(chunk, &stats_);
  msg.chunk = std::move(chunk);
  std::string payload;
  msg.SerializeTo(&payload);
  return payload;
}

}  // namespace ciao
