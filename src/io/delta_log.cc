#include "io/delta_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/fault_injection.h"

namespace sbf {
namespace io {

namespace {

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

// --- encode/decode ---------------------------------------------------------

std::vector<uint8_t> EncodeWalHeader(uint64_t generation,
                                     wire::ByteSpan empty_filter_frame) {
  wire::Writer payload;
  payload.PutU64(generation);
  payload.PutFrame(empty_filter_frame);
  return wire::SealFrame(wire::kMagicWalHeader, wire::kFormatVersion,
                         std::move(payload));
}

std::vector<uint8_t> EncodeWalDeltaBatch(uint64_t sequence, bool is_remove,
                                         uint64_t count, const uint64_t* keys,
                                         size_t n) {
  wire::Writer payload;
  payload.PutU64(sequence);
  payload.PutU8(static_cast<uint8_t>(WalRecordType::kDeltaBatch));
  payload.PutU8(is_remove ? 1 : 0);
  payload.PutVarint(count);
  payload.PutVarint(n);
  payload.PutWords(keys, n);
  return wire::SealFrame(wire::kMagicWalRecord, wire::kFormatVersion,
                         std::move(payload));
}

std::vector<uint8_t> EncodeWalCheckpointSeal(uint64_t sequence,
                                             uint64_t next_generation) {
  wire::Writer payload;
  payload.PutU64(sequence);
  payload.PutU8(static_cast<uint8_t>(WalRecordType::kCheckpointSeal));
  payload.PutVarint(next_generation);
  return wire::SealFrame(wire::kMagicWalRecord, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<WalRecord> DecodeWalRecord(wire::ByteSpan frame) {
  auto reader = wire::OpenFrame(frame, wire::kMagicWalRecord,
                                wire::kFormatVersion, "WAL record");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  WalRecord record;
  record.sequence = in.ReadU64();
  const uint8_t type = in.ReadU8();
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kDeltaBatch): {
      record.type = WalRecordType::kDeltaBatch;
      record.is_remove = in.ReadU8() != 0;
      record.count = in.ReadVarint();
      const uint64_t n = in.ReadVarint();
      if (!in.ok()) return in.status();
      if (record.count == 0) {
        return Status::DataLoss("WAL delta batch with zero count");
      }
      if (n * 8 > in.remaining()) {
        return Status::DataLoss("WAL delta batch key count out of bounds");
      }
      record.keys.resize(static_cast<size_t>(n));
      if (!in.ReadWords(record.keys.data(), record.keys.size())) {
        return in.status();
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kCheckpointSeal):
      record.type = WalRecordType::kCheckpointSeal;
      record.next_generation = in.ReadVarint();
      break;
    default:
      return Status::DataLoss("unknown WAL record type " +
                              std::to_string(type));
  }
  Status end = in.ExpectEnd("WAL record");
  if (!end.ok()) return end;
  return record;
}

StatusOr<WalHeader> DecodeWalHeader(wire::ByteSpan frame) {
  auto reader = wire::OpenFrame(frame, wire::kMagicWalHeader,
                                wire::kFormatVersion, "WAL header");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  WalHeader header;
  header.generation = in.ReadU64();
  header.empty_filter_frame = in.ReadFrameSpan();
  if (!in.ok()) return in.status();
  Status end = in.ExpectEnd("WAL header");
  if (!end.ok()) return end;
  return header;
}

// --- scanning --------------------------------------------------------------

namespace {

// Size of the complete frame starting at `bytes`, or 0 when even the
// envelope cannot be trusted (short header or declared size past EOF).
uint64_t FrameExtent(wire::ByteSpan bytes) {
  if (bytes.size() < wire::kFrameHeaderSize) return 0;
  wire::Reader header(bytes.data(), wire::kFrameHeaderSize);
  header.ReadU32();  // magic
  header.ReadU32();  // version
  const uint64_t payload_size = header.ReadU64();
  if (payload_size > bytes.size() - wire::kFrameHeaderSize) return 0;
  return wire::kFrameHeaderSize + payload_size;
}

}  // namespace

StatusOr<LogScan> ScanLog(wire::ByteSpan bytes) {
  // The header must validate completely: a file whose FIRST frame is
  // damaged is not a recoverable WAL (there is nothing to replay), so this
  // is the one place scan failure is an error rather than a torn tail.
  const uint64_t header_extent = FrameExtent(bytes);
  if (header_extent == 0) {
    return Status::DataLoss("not a WAL: missing or short header frame");
  }
  auto header = DecodeWalHeader(bytes.subspan(0, header_extent));
  if (!header.ok()) {
    return Status::DataLoss("not a WAL: " + header.status().message());
  }

  LogScan scan;
  scan.header = header.value();
  scan.valid_bytes = header_extent;

  uint64_t offset = header_extent;
  bool have_prev_seq = false;
  uint64_t prev_seq = 0;
  while (offset < bytes.size()) {
    const wire::ByteSpan rest = bytes.subspan(offset);
    const uint64_t extent = FrameExtent(rest);
    if (extent == 0) {
      scan.torn_tail = true;
      scan.tail_reason = "short frame at offset " + std::to_string(offset);
      break;
    }
    auto record = DecodeWalRecord(rest.subspan(0, extent));
    if (!record.ok()) {
      scan.torn_tail = true;
      scan.tail_reason = "invalid record at offset " + std::to_string(offset) +
                         ": " + record.status().message();
      break;
    }
    // A sequence discontinuity means the bytes from here on belong to some
    // other history (a partially recycled file, interleaved writers);
    // replaying them would be guessing. Same rule: clean end-of-log.
    if (have_prev_seq && record.value().sequence != prev_seq + 1) {
      scan.torn_tail = true;
      scan.tail_reason =
          "sequence discontinuity at offset " + std::to_string(offset);
      break;
    }
    prev_seq = record.value().sequence;
    have_prev_seq = true;
    scan.records.push_back(std::move(record).value());
    offset += extent;
    scan.valid_bytes = offset;
  }
  scan.ignored_bytes = bytes.size() - scan.valid_bytes;
  return scan;
}

// --- file-backed appender --------------------------------------------------

DeltaLogWriter::~DeltaLogWriter() { Close(); }

DeltaLogWriter::DeltaLogWriter(DeltaLogWriter&& other) noexcept
    : fd_(other.fd_),
      offset_(other.offset_),
      sync_each_append_(other.sync_each_append_),
      wedged_(other.wedged_),
      unsynced_(other.unsynced_),
      path_(std::move(other.path_)) {
  other.fd_ = -1;
}

DeltaLogWriter& DeltaLogWriter::operator=(DeltaLogWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    offset_ = other.offset_;
    sync_each_append_ = other.sync_each_append_;
    wedged_ = other.wedged_;
    unsynced_ = other.unsynced_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

void DeltaLogWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<DeltaLogWriter> DeltaLogWriter::Create(
    const std::string& path, uint64_t generation,
    wire::ByteSpan empty_filter_frame, bool sync_each_append,
    wire::ByteSpan records) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
  if (fd < 0) return Status::DataLoss(Errno("create WAL", path));
  DeltaLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.sync_each_append_ = sync_each_append;
  std::vector<uint8_t> head = EncodeWalHeader(generation, empty_filter_frame);
  head.insert(head.end(), records.begin(), records.end());
  Status status = writer.Write(head);
  if (!status.ok()) return status;
  // The header must be durable before any record claims to be: a log whose
  // records survive but whose header was lost is unreadable.
  status = writer.Sync();
  if (!status.ok()) return status;
  return writer;
}

StatusOr<DeltaLogWriter> DeltaLogWriter::Resume(const std::string& path,
                                                uint64_t resume_offset,
                                                bool sync_each_append) {
  const int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) return Status::DataLoss(Errno("open WAL", path));
  // Drop any torn tail so the next append starts at the last valid byte —
  // otherwise the garbage would mask the new records from a later scan.
  // A clean log is not truncated: even a same-size truncate updates the
  // inode's times, which the close-time Sync would then have to journal.
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::DataLoss(Errno("stat WAL", path));
    ::close(fd);
    return status;
  }
  const bool torn = static_cast<uint64_t>(st.st_size) != resume_offset;
  if (torn && ::ftruncate(fd, static_cast<off_t>(resume_offset)) != 0) {
    const Status status = Status::DataLoss(Errno("truncate WAL", path));
    ::close(fd);
    return status;
  }
  if (::lseek(fd, static_cast<off_t>(resume_offset), SEEK_SET) < 0) {
    const Status status = Status::DataLoss(Errno("seek WAL", path));
    ::close(fd);
    return status;
  }
  DeltaLogWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  writer.offset_ = resume_offset;
  writer.sync_each_append_ = sync_each_append;
  writer.unsynced_ = torn;
  return writer;
}

Status DeltaLogWriter::Append(const std::vector<uint8_t>& frame) {
  Status status = Write(frame);
  if (!status.ok()) return status;
  if (sync_each_append_) return Sync();
  return Status::Ok();
}

Status DeltaLogWriter::Write(wire::ByteSpan frame) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (wedged_) {
    return Status::FailedPrecondition(
        "WAL writer wedged by an earlier failed append");
  }
  size_t intended = frame.size();
  size_t injected_cut = intended;
  const bool short_write = fault::ShouldShortWrite(intended, &injected_cut);
  if (short_write) intended = injected_cut;

  unsynced_ = true;
  size_t written = 0;
  while (written < intended) {
    const ssize_t n = ::write(fd_, frame.data() + written, intended - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      wedged_ = true;
      return Status::DataLoss(Errno("append WAL", path_));
    }
    written += static_cast<size_t>(n);
  }
  if (short_write) {
    // The injected crash: a prefix of the record is on disk, the process
    // "died". Wedge the writer so the scenario cannot keep appending past
    // its own crash point.
    offset_ += written;
    wedged_ = true;
    return Status::DataLoss("injected short write tore WAL record in " +
                            path_);
  }
  offset_ += written;
  return Status::Ok();
}

Status DeltaLogWriter::ReadFrom(uint64_t offset,
                                std::vector<uint8_t>* out) const {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  out->resize(static_cast<size_t>(offset_ - std::min(offset, offset_)));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t n = ::pread(fd_, out->data() + got, out->size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::DataLoss(Errno("read back WAL", path_));
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status DeltaLogWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (fault::ShouldFailFsync()) {
    wedged_ = true;
    return Status::DataLoss("injected fsync failure on " + path_);
  }
  if (::fsync(fd_) != 0) {
    wedged_ = true;
    return Status::DataLoss(Errno("fsync WAL", path_));
  }
  unsynced_ = false;
  return Status::Ok();
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::DataLoss(Errno("read", path));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::DataLoss(Errno("stat", path));
    ::close(fd);
    return status;
  }
  out->clear();
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::DataLoss(Errno("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // concurrent truncation; take what we got
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  ::close(fd);
  return Status::Ok();
}

}  // namespace io
}  // namespace sbf
