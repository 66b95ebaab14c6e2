#ifndef SBF_IO_DELTA_LOG_H_
#define SBF_IO_DELTA_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/wire.h"
#include "util/status.h"

namespace sbf {
namespace io {

// Write-ahead delta log for the durable store (io/durable_store.h): an
// append-only file of CRC-framed records in the library's one wire
// envelope, so the WAL inherits the same torn-write and bit-flip detection
// as every persisted filter. A log file is
//
//   [header frame 'SBwh'] [record frame 'SBwr']*
//
// where the header pins the log's generation and embeds a serialized
// EMPTY filter carrying the store's full configuration — recovery can
// therefore rebuild from the log alone when no checkpoint survives. Each
// record frame is a batch of identical-count key deltas:
//
//   header  payload: u64 generation, embedded empty-filter frame
//   record  payload: u64 sequence, u8 type, then per type:
//     kDeltaBatch:      u8 is_remove, varint count, varint n, n x u64 key
//     kCheckpointSeal:  varint next_generation (the checkpoint that
//                       captured everything up to this point)
//
// Sequences increase by one per record within a log; the scanner treats a
// sequence discontinuity like any other malformed record — end of log.
// Across a store's logs they keep increasing, except that a log may begin
// with a verbatim copy of its predecessor's last records (see
// io/durable_store.h) and a seal carries the sequence of the record after
// it.
//
// The scanner's contract is the paranoid half of the design: a torn,
// short, or bit-flipped record at the TAIL of the log is a normal crash
// artifact and is reported as a clean end-of-log (`torn_tail`), never as
// an error. Replay consumes records strictly in file order and stops at
// the first frame that fails validation; whatever bytes follow are
// reported in `ignored_bytes` so the store can truncate them before
// appending again.

// Record types inside an 'SBwr' frame. Every enumerator here must be
// exercised by tests/crash_recovery_test.cc (sbf_lint.py rule 8,
// durable-record-coverage).
enum class WalRecordType : uint8_t {
  kDeltaBatch = 1,      // n keys, each inserted/removed `count` times
  kCheckpointSeal = 2,  // a checkpoint captured all prior state
};

// One decoded 'SBwr' record.
struct WalRecord {
  uint64_t sequence = 0;
  WalRecordType type = WalRecordType::kDeltaBatch;
  // kDeltaBatch fields.
  bool is_remove = false;
  uint64_t count = 0;
  std::vector<uint64_t> keys;
  // kCheckpointSeal field.
  uint64_t next_generation = 0;
};

// --- pure encode/decode (no file I/O; golden-testable) ---------------------

// Seals a log-header frame: generation + the embedded empty-filter frame
// that lets recovery rebuild from the log alone.
std::vector<uint8_t> EncodeWalHeader(uint64_t generation,
                                     wire::ByteSpan empty_filter_frame);

// Seals one delta-batch record frame.
std::vector<uint8_t> EncodeWalDeltaBatch(uint64_t sequence, bool is_remove,
                                         uint64_t count, const uint64_t* keys,
                                         size_t n);

// Seals one checkpoint-seal record frame.
std::vector<uint8_t> EncodeWalCheckpointSeal(uint64_t sequence,
                                             uint64_t next_generation);

// Decodes a complete 'SBwr' frame (envelope + payload validation).
StatusOr<WalRecord> DecodeWalRecord(wire::ByteSpan frame);

// Decoded 'SBwh' header: the generation plus a view of the embedded
// empty-filter frame (valid only while the backing bytes live).
struct WalHeader {
  uint64_t generation = 0;
  wire::ByteSpan empty_filter_frame;
};
StatusOr<WalHeader> DecodeWalHeader(wire::ByteSpan frame);

// --- scanning --------------------------------------------------------------

// Result of a paranoid forward scan over a log file's bytes.
struct LogScan {
  WalHeader header;
  std::vector<WalRecord> records;
  // True when the file ends in an invalid frame (short, CRC-damaged, or
  // otherwise malformed) — the normal signature of a crash mid-append.
  bool torn_tail = false;
  // Why the scan stopped early (diagnostic only; a torn tail is NOT an
  // error).
  std::string tail_reason;
  // Bytes of the file covered by the header + valid records; appending
  // must resume here (truncating anything beyond it first).
  uint64_t valid_bytes = 0;
  // Bytes after `valid_bytes` that were ignored as torn.
  uint64_t ignored_bytes = 0;
};

// Scans `bytes` (a whole log file). Fails only when the file is not a WAL
// at all (missing/invalid header frame); everything after a valid header
// is handled with the torn-tail rule.
StatusOr<LogScan> ScanLog(wire::ByteSpan bytes);

// --- file-backed appender --------------------------------------------------

// Append-only writer over one log file. Not thread-safe; the durable
// store serializes appends. Fault-injection crash points (short write,
// fsync failure) fire inside Append/Sync, and a failed append leaves the
// file exactly as a crashed process would — with a torn tail the scanner
// absorbs.
class DeltaLogWriter {
 public:
  DeltaLogWriter() = default;
  ~DeltaLogWriter();
  DeltaLogWriter(const DeltaLogWriter&) = delete;
  DeltaLogWriter& operator=(const DeltaLogWriter&) = delete;
  DeltaLogWriter(DeltaLogWriter&& other) noexcept;
  DeltaLogWriter& operator=(DeltaLogWriter&& other) noexcept;

  // Creates `path` (failing if it exists) and writes the header frame,
  // followed by `records` — already-sealed record frames, copied verbatim
  // (a checkpoint carries the old log's uncovered tail over this way) —
  // then syncs once.
  static StatusOr<DeltaLogWriter> Create(const std::string& path,
                                         uint64_t generation,
                                         wire::ByteSpan empty_filter_frame,
                                         bool sync_each_append,
                                         wire::ByteSpan records = {});

  // Opens an existing log for appending at `resume_offset` (the scanner's
  // valid_bytes); bytes beyond it — a torn tail — are truncated away. A
  // log that ends at `resume_offset` is left untouched (no truncate, so
  // nothing for a later Sync to write).
  static StatusOr<DeltaLogWriter> Resume(const std::string& path,
                                         uint64_t resume_offset,
                                         bool sync_each_append);

  // Appends one sealed frame. On failure (including an injected short
  // write) the frame may be partially on disk; the writer is then wedged
  // and every later Append fails, mirroring a dead process.
  Status Append(const std::vector<uint8_t>& frame);

  // Forces written bytes to storage.
  Status Sync();

  // Reads back the bytes this writer has written from `offset` to its
  // current end.
  Status ReadFrom(uint64_t offset, std::vector<uint8_t>* out) const;

  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }
  // Whether an append or a tail truncation happened since the last
  // successful Sync.
  [[nodiscard]] bool unsynced() const noexcept { return unsynced_; }
  [[nodiscard]] uint64_t bytes_written() const noexcept { return offset_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void Close();

 private:
  // Writes `bytes` at the end of the file with the short-write crash point
  // armed; no sync.
  Status Write(wire::ByteSpan bytes);

  int fd_ = -1;
  uint64_t offset_ = 0;
  bool sync_each_append_ = false;
  bool wedged_ = false;
  bool unsynced_ = false;
  std::string path_;
};

// Reads a whole file into `out`. Shared by the durable store and tooling.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

}  // namespace io
}  // namespace sbf

#endif  // SBF_IO_DELTA_LOG_H_
