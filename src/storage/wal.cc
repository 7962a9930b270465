#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "storage/fs.h"

namespace ciao {

namespace {

constexpr uint32_t kFrameMagic = 0x464C5743;  // "CWLF"
constexpr size_t kFrameHeaderBytes = 12;      // magic + len + crc

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

uint32_t GetU32(std::string_view s, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + offset, 4);
  return v;
}

uint64_t GetU64(std::string_view s, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, s.data() + offset, 8);
  return v;
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("wal write " + path + ": " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Decodes the payload of one frame; nullopt-style failure = corrupt.
Status DecodePayload(std::string_view payload, WalBatch* out) {
  if (payload.size() < 12) return Status::Corruption("wal: short payload");
  out->seq = GetU64(payload, 0);
  const uint32_t n = GetU32(payload, 8);
  size_t offset = 12;
  // The CRC proves the bytes, not the count: each record needs its u32
  // length, so bound n before reserving.
  if (n > (payload.size() - offset) / 4) {
    return Status::Corruption("wal: record count exceeds the payload");
  }
  out->records.clear();
  out->records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (offset + 4 > payload.size()) {
      return Status::Corruption("wal: truncated record length");
    }
    const uint32_t len = GetU32(payload, offset);
    offset += 4;
    if (offset + len > payload.size()) {
      return Status::Corruption("wal: truncated record bytes");
    }
    out->records.emplace_back(payload.substr(offset, len));
    offset += len;
  }
  if (offset != payload.size()) {
    return Status::Corruption("wal: payload trailing bytes");
  }
  return Status::OK();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, WalSyncMode sync, int fd,
                             uint64_t size)
    : path_(std::move(path)), sync_(sync), fd_(fd), size_(size) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(std::string path,
                                                           WalSyncMode sync) {
  // Find the valid prefix first so a torn tail from a previous crash is
  // physically cut before any new frame is appended after it.
  CIAO_ASSIGN_OR_RETURN(const WalReplayResult replay, Replay(path));
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("wal open " + path + ": " + std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(replay.valid_bytes)) != 0) {
    const Status st = Status::IOError("wal truncate " + path + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status st =
        Status::IOError("wal seek " + path + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), sync, fd, replay.valid_bytes));
}

Status WriteAheadLog::Append(uint64_t seq,
                             const std::vector<std::string>& records) {
  std::string payload;
  size_t payload_bytes = 12;
  for (const std::string& r : records) payload_bytes += 4 + r.size();
  payload.reserve(payload_bytes);
  PutU64(seq, &payload);
  PutU32(static_cast<uint32_t>(records.size()), &payload);
  for (const std::string& r : records) {
    PutU32(static_cast<uint32_t>(r.size()), &payload);
    payload.append(r);
  }

  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(kFrameMagic, &frame);
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  frame.append(payload);

  std::lock_guard<std::mutex> lock(mu_);
  CIAO_RETURN_IF_ERROR(WriteAll(fd_, frame, path_));
  if (sync_ == WalSyncMode::kAlways && ::fsync(fd_) != 0) {
    return Status::IOError("wal fsync " + path_ + ": " +
                           std::strerror(errno));
  }
  size_ += frame.size();
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("wal reset " + path_ + ": " +
                           std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::IOError("wal seek " + path_ + ": " +
                           std::strerror(errno));
  }
  if (sync_ == WalSyncMode::kAlways && ::fsync(fd_) != 0) {
    return Status::IOError("wal fsync " + path_ + ": " +
                           std::strerror(errno));
  }
  size_ = 0;
  return Status::OK();
}

uint64_t WriteAheadLog::tail_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

Result<WalReplayResult> WriteAheadLog::Replay(const std::string& path) {
  WalReplayResult result;
  if (!fs::FileExists(path)) return result;  // no log yet = empty log
  std::string bytes;
  CIAO_RETURN_IF_ERROR(fs::ReadFile(path, &bytes));

  const std::string_view data(bytes);
  size_t offset = 0;
  while (true) {
    if (offset + kFrameHeaderBytes > data.size()) {
      result.truncated_tail = offset < data.size();
      break;
    }
    if (GetU32(data, offset) != kFrameMagic) {
      result.truncated_tail = true;
      break;
    }
    const uint32_t payload_len = GetU32(data, offset + 4);
    const uint32_t crc = GetU32(data, offset + 8);
    if (offset + kFrameHeaderBytes + payload_len > data.size()) {
      result.truncated_tail = true;  // frame announced but cut short
      break;
    }
    const std::string_view payload =
        data.substr(offset + kFrameHeaderBytes, payload_len);
    if (Crc32(payload) != crc) {
      result.truncated_tail = true;  // torn or bit-rotted frame
      break;
    }
    WalBatch batch;
    if (!DecodePayload(payload, &batch).ok()) {
      result.truncated_tail = true;
      break;
    }
    result.batches.push_back(std::move(batch));
    offset += kFrameHeaderBytes + payload_len;
    result.valid_bytes = offset;
  }
  return result;
}

}  // namespace ciao
