#ifndef CIAO_CLIENT_CLIENT_SESSION_H_
#define CIAO_CLIENT_CLIENT_SESSION_H_

#include <string>
#include <vector>

#include "client/client_filter.h"
#include "common/status.h"
#include "storage/transport.h"

namespace ciao {

/// One data client: chunks its outgoing records, runs the prefilter, and
/// ships annotated chunk messages over the transport (paper §III: "data
/// clients send JSON objects in chunks (e.g. 1k objects for each chunk)").
class ClientSession {
 public:
  /// `filter` and `transport` must outlive the session.
  ClientSession(ClientFilter filter, Transport* transport,
                size_t chunk_size = 1000)
      : filter_(std::move(filter)),
        transport_(transport),
        chunk_size_(chunk_size == 0 ? 1 : chunk_size) {}

  /// Filters and sends `records` (serialized JSON, one per entry).
  Status SendRecords(const std::vector<std::string>& records);

  /// Filters and sends one pre-built chunk. Takes the chunk by value so
  /// callers can move it; the payload then moves end-to-end into the
  /// transport queue without a full-chunk copy.
  Status SendChunk(json::JsonChunk chunk);

  /// Filters one pre-built chunk and returns its serialized ChunkMessage
  /// without sending it: SendChunk's first half, for a caller that
  /// orders payloads before they reach the transport (the fleet).
  std::string PrepareChunk(json::JsonChunk chunk);

  /// Assembles records [start, end) into a chunk with an exact buffer
  /// reservation; shared by SendRecords and the fleet's chunk scheduler
  /// so their chunk contents stay byte-identical.
  static json::JsonChunk BuildChunk(const std::vector<std::string>& records,
                                    size_t start, size_t end);

  const PrefilterStats& stats() const { return stats_; }
  const ClientFilter& filter() const { return filter_; }
  size_t chunk_size() const { return chunk_size_; }

 private:
  ClientFilter filter_;
  Transport* transport_;
  size_t chunk_size_;
  PrefilterStats stats_;
};

}  // namespace ciao

#endif  // CIAO_CLIENT_CLIENT_SESSION_H_
