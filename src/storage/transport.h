#ifndef CIAO_STORAGE_TRANSPORT_H_
#define CIAO_STORAGE_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bitvec/bitvector_set.h"
#include "common/status.h"
#include "json/chunk.h"

namespace ciao {

/// What a client ships per chunk (paper Fig 1, Step 1→2): the raw NDJSON
/// payload, the evaluated-predicate mask (which registry ids this chunk
/// actually evaluated, out of how many), and one bitvector per evaluated
/// id. The per-chunk mask is what lets a heterogeneous fleet stay
/// precisely tracked: the server knows, chunk by chunk, which bits are
/// exact and which predicates it must treat as "maybe" — or complete
/// itself.
struct ChunkMessage {
  json::JsonChunk chunk;
  /// Registry ids evaluated for this chunk, aligned with `annotations`
  /// vectors. A client with a small budget may evaluate only a subset of
  /// the registry.
  std::vector<uint32_t> predicate_ids;
  BitVectorSet annotations;
  /// Size of the sender's predicate registry — the mask's universe. The
  /// unevaluated ids of the chunk are exactly [0, total_predicates) minus
  /// `predicate_ids`. 0 = unknown (the sender did not say): the receiver
  /// falls back to its own registry size.
  uint32_t total_predicates = 0;

  /// Wire format v2: "CMG2" | u32 total_predicates | u32 n_ids | ids |
  /// u64 ndjson_len | ndjson | BitVectorSet. Any other magic, including
  /// the retired maskless v1 "CMSG", is Corruption.
  void SerializeTo(std::string* out) const;
  static Result<ChunkMessage> Deserialize(std::string_view buffer);

  /// Expands annotations to cover `total_predicates` registry entries:
  /// evaluated ids keep their vectors, unevaluated predicates become
  /// all-ones (no false negatives — "maybe satisfies"). Fails if an id is
  /// out of range or annotations misalign.
  Result<BitVectorSet> ExpandAnnotations(size_t total_predicates) const;

  /// The chunk's unevaluated ids out of a universe of `total` predicates,
  /// ascending: the complement of `predicate_ids`. Ignores the message's
  /// own total_predicates so a receiver can ask against its registry.
  std::vector<uint32_t> MissingIds(size_t total) const;
};

/// Client→server byte channel. The paper simulates communication through
/// file I/O on one machine; both an in-memory queue and a file-backed
/// directory queue are provided.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues one message payload.
  virtual Status Send(std::string payload) = 0;

  /// Dequeues the next payload; nullopt when the queue is empty.
  virtual Result<std::optional<std::string>> Receive() = 0;

  /// Total bytes sent so far (network-volume accounting).
  virtual uint64_t bytes_sent() const = 0;
};

/// FIFO queue in process memory.
class InMemoryTransport final : public Transport {
 public:
  Status Send(std::string payload) override;
  Result<std::optional<std::string>> Receive() override;
  uint64_t bytes_sent() const override { return bytes_sent_; }

  size_t pending() const { return queue_.size(); }

 private:
  std::deque<std::string> queue_;
  uint64_t bytes_sent_ = 0;
};

/// Thread-safe bounded MPMC queue: many concurrent client sessions Send,
/// many loader workers Receive. A full queue blocks senders (backpressure
/// keeps memory bounded when clients outpace loaders); an empty queue
/// blocks receivers until a message arrives or the channel closes.
///
/// Close/drain protocol: register the producer side with AddProducers
/// before starting senders; each producer calls ProducerDone when
/// finished. When the last producer is done (or Close is called), blocked
/// receivers drain the remaining messages and then observe nullopt —
/// the worker-pool shutdown signal.
class BoundedTransport final : public Transport {
 public:
  explicit BoundedTransport(size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks while the queue is at capacity. Fails with IOError if the
  /// transport was closed.
  Status Send(std::string payload) override;

  /// Blocks until a message is available; nullopt once the transport is
  /// closed and fully drained.
  Result<std::optional<std::string>> Receive() override;

  uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

  /// Registers `n` producers that will call ProducerDone.
  void AddProducers(size_t n);

  /// Marks one producer finished; the last one closes the channel.
  void ProducerDone();

  /// Force-closes the channel: wakes all blocked senders (they fail) and
  /// receivers (they drain, then observe nullopt).
  void Close();

  bool closed() const;
  size_t pending() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<std::string> queue_;
  size_t producers_ = 0;
  bool closed_ = false;
  std::atomic<uint64_t> bytes_sent_{0};
};

/// Numbered files in a spool directory (survives across processes; used
/// by the file-I/O simulation mode and its tests).
class FileTransport final : public Transport {
 public:
  /// `dir` must exist and be writable.
  explicit FileTransport(std::string dir);

  Status Send(std::string payload) override;
  Result<std::optional<std::string>> Receive() override;
  uint64_t bytes_sent() const override { return bytes_sent_; }

 private:
  std::string dir_;
  uint64_t next_send_ = 0;
  uint64_t next_recv_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace ciao

#endif  // CIAO_STORAGE_TRANSPORT_H_
