#include "storage/transport.h"

#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/string_util.h"
#include "storage/fs.h"

namespace ciao {

namespace {

constexpr std::string_view kMessageMagic = "CMG2";

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Status ReadU32(std::string_view buffer, size_t* offset, uint32_t* v) {
  if (*offset + 4 > buffer.size()) {
    return Status::Corruption("chunk message truncated (u32)");
  }
  std::memcpy(v, buffer.data() + *offset, 4);
  *offset += 4;
  return Status::OK();
}

Status ReadU64(std::string_view buffer, size_t* offset, uint64_t* v) {
  if (*offset + 8 > buffer.size()) {
    return Status::Corruption("chunk message truncated (u64)");
  }
  std::memcpy(v, buffer.data() + *offset, 8);
  *offset += 8;
  return Status::OK();
}

}  // namespace

void ChunkMessage::SerializeTo(std::string* out) const {
  // Header + mask + ids + NDJSON payload; the BitVectorSet adds its own
  // length fields plus one word-aligned buffer per predicate.
  out->reserve(out->size() + kMessageMagic.size() + 8 +
               4 * predicate_ids.size() + 8 + chunk.data().size() +
               annotations.num_predicates() * (annotations.num_records() / 8 + 16));
  out->append(kMessageMagic);
  PutU32(total_predicates, out);
  PutU32(static_cast<uint32_t>(predicate_ids.size()), out);
  for (const uint32_t id : predicate_ids) PutU32(id, out);
  PutU64(chunk.data().size(), out);
  out->append(chunk.data());
  annotations.SerializeTo(out);
}

Result<ChunkMessage> ChunkMessage::Deserialize(std::string_view buffer) {
  if (buffer.substr(0, kMessageMagic.size()) != kMessageMagic) {
    return Status::Corruption("chunk message: bad magic");
  }
  size_t offset = kMessageMagic.size();
  ChunkMessage msg;
  CIAO_RETURN_IF_ERROR(ReadU32(buffer, &offset, &msg.total_predicates));
  uint32_t n_ids = 0;
  CIAO_RETURN_IF_ERROR(ReadU32(buffer, &offset, &n_ids));
  // Client-sent count: bound it by the u32 ids that can follow.
  if (n_ids > (buffer.size() - offset) / 4) {
    return Status::Corruption("chunk message: id count exceeds the bytes left");
  }
  msg.predicate_ids.resize(n_ids);
  for (uint32_t& id : msg.predicate_ids) {
    CIAO_RETURN_IF_ERROR(ReadU32(buffer, &offset, &id));
  }
  uint64_t ndjson_len = 0;
  CIAO_RETURN_IF_ERROR(ReadU64(buffer, &offset, &ndjson_len));
  if (ndjson_len > buffer.size() - offset) {
    return Status::Corruption("chunk message: truncated NDJSON payload");
  }
  CIAO_ASSIGN_OR_RETURN(
      msg.chunk, json::JsonChunk::FromNdjson(
                     std::string(buffer.substr(offset, ndjson_len))));
  offset += ndjson_len;
  CIAO_ASSIGN_OR_RETURN(msg.annotations,
                        BitVectorSet::Deserialize(buffer, &offset));
  if (msg.annotations.num_predicates() != msg.predicate_ids.size()) {
    return Status::Corruption("chunk message: id/vector count mismatch");
  }
  if (msg.annotations.num_predicates() > 0 &&
      msg.annotations.num_records() != msg.chunk.size()) {
    return Status::Corruption("chunk message: vector length != record count");
  }
  if (msg.total_predicates > 0) {
    for (const uint32_t id : msg.predicate_ids) {
      if (id >= msg.total_predicates) {
        return Status::Corruption(
            "chunk message: evaluated id outside the declared mask");
      }
    }
  }
  return msg;
}

std::vector<uint32_t> ChunkMessage::MissingIds(size_t total) const {
  std::vector<bool> evaluated(total, false);
  for (const uint32_t id : predicate_ids) {
    if (id < total) evaluated[id] = true;
  }
  std::vector<uint32_t> missing;
  for (uint32_t id = 0; id < total; ++id) {
    if (!evaluated[id]) missing.push_back(id);
  }
  return missing;
}

Result<BitVectorSet> ChunkMessage::ExpandAnnotations(
    size_t total_predicates) const {
  BitVectorSet expanded(total_predicates, chunk.size());
  // Unevaluated predicates: all-ones ("maybe"), so partial loading keeps
  // every record such a predicate might need — conservative and sound.
  for (size_t p = 0; p < total_predicates; ++p) {
    expanded.mutable_vector(p)->Negate();  // all zeros -> all ones
  }
  for (size_t i = 0; i < predicate_ids.size(); ++i) {
    const uint32_t id = predicate_ids[i];
    if (id >= total_predicates) {
      return Status::OutOfRange("ExpandAnnotations: predicate id out of range");
    }
    *expanded.mutable_vector(id) = annotations.vector(i);
  }
  return expanded;
}

Status InMemoryTransport::Send(std::string payload) {
  bytes_sent_ += payload.size();
  queue_.push_back(std::move(payload));
  return Status::OK();
}

Result<std::optional<std::string>> InMemoryTransport::Receive() {
  if (queue_.empty()) return std::optional<std::string>();
  std::string payload = std::move(queue_.front());
  queue_.pop_front();
  return std::optional<std::string>(std::move(payload));
}

Status BoundedTransport::Send(std::string payload) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
  if (closed_) {
    return Status::IOError("BoundedTransport: Send on closed transport");
  }
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  queue_.push_back(std::move(payload));
  lock.unlock();
  not_empty_.notify_one();
  return Status::OK();
}

Result<std::optional<std::string>> BoundedTransport::Receive() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::optional<std::string>();  // closed + drained
  std::string payload = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return std::optional<std::string>(std::move(payload));
}

void BoundedTransport::AddProducers(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  producers_ += n;
}

void BoundedTransport::ProducerDone() {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (producers_ > 0) --producers_;
    if (producers_ == 0) {
      closed_ = true;
      last = true;
    }
  }
  if (last) {
    not_empty_.notify_all();
    not_full_.notify_all();
  }
}

void BoundedTransport::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool BoundedTransport::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t BoundedTransport::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

FileTransport::FileTransport(std::string dir) : dir_(std::move(dir)) {}

namespace {

/// On-disk frame of one FileTransport message. A consumer — possibly
/// another process, possibly after the producer crashed — must be able to
/// tell a complete message from a torn or rotted one, so the payload is
/// wrapped in magic + length + CRC rather than trusted as-is.
constexpr std::string_view kFileFrameMagic = "CFT1";
constexpr size_t kFileFrameHeader = 4 + 4 + 4;  // magic | len | crc

}  // namespace

Status FileTransport::Send(std::string payload) {
  const std::string name = StrFormat(
      "msg_%08llu.bin", static_cast<unsigned long long>(next_send_));
  std::string framed;
  framed.reserve(kFileFrameHeader + payload.size());
  framed.append(kFileFrameMagic);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  framed.append(reinterpret_cast<const char*>(&len), 4);
  framed.append(reinterpret_cast<const char*>(&crc), 4);
  framed.append(payload);
  // Atomic publish (temp + fsync + rename): a concurrent or post-crash
  // Receive can never observe a half-written msg_N file under its final
  // name.
  CIAO_RETURN_IF_ERROR(fs::AtomicWriteFile(dir_, name, framed));
  bytes_sent_ += payload.size();
  ++next_send_;
  return Status::OK();
}

Result<std::optional<std::string>> FileTransport::Receive() {
  const std::string path =
      StrFormat("%s/msg_%08llu.bin", dir_.c_str(),
                static_cast<unsigned long long>(next_recv_));
  std::string framed;
  const Status read = fs::ReadFile(path, &framed);
  if (!read.ok()) return std::optional<std::string>();  // no message yet
  if (framed.size() < kFileFrameHeader ||
      std::string_view(framed).substr(0, 4) != kFileFrameMagic) {
    return Status::Corruption("FileTransport: bad frame header in " + path);
  }
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, framed.data() + 4, 4);
  std::memcpy(&crc, framed.data() + 8, 4);
  if (framed.size() != kFileFrameHeader + len) {
    return Status::Corruption("FileTransport: frame length mismatch in " +
                              path);
  }
  std::string payload = framed.substr(kFileFrameHeader);
  if (Crc32(payload) != crc) {
    return Status::Corruption("FileTransport: payload CRC mismatch in " +
                              path);
  }
  std::remove(path.c_str());
  ++next_recv_;
  return std::optional<std::string>(std::move(payload));
}

}  // namespace ciao
