#include "io/wire.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#endif

#include "util/fault_injection.h"

namespace sbf {
namespace wire {
namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

// Slicing-by-8 tables: row 0 is the classic byte-at-a-time table, and
// row k advances a byte's contribution past k further zero bytes, so one
// 64-bit step folds eight input bytes with eight independent lookups.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

// Little-endian 64-bit load; compilers fold it into one mov on x86.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(p[b]) << (8 * b);
  return v;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SBF_CRC32C_HW 1

// SSE4.2 `crc32` computes exactly the reflected Castagnoli update, eight
// bytes per instruction. Compiled for SSE4.2 regardless of the build's
// -march; only ever called after the CPUID check in Crc32cHardware.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* data,
                                                      size_t size) {
  uint64_t crc = ~0u;
  for (; size >= 8; data += 8, size -= 8) {
    crc = _mm_crc32_u64(crc, LoadLe64(data));
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++data, --size) crc32 = _mm_crc32_u8(crc32, *data);
  return ~crc32;
}
#endif

}  // namespace

uint32_t Crc32cPortable(const uint8_t* data, size_t size) {
  const Crc32cTables& t = kCrc32cTables;
  uint32_t crc = ~0u;
  for (; size >= 8; data += 8, size -= 8) {
    const uint64_t w = LoadLe64(data) ^ crc;
    crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
          t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
          t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

Crc32cFn Crc32cHardware() {
#ifdef SBF_CRC32C_HW
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return nullptr;
}

uint32_t Crc32c(const uint8_t* data, size_t size) {
  // Chosen once per process; both implementations agree bit for bit.
  static const Crc32cFn impl = [] {
    const Crc32cFn hardware = Crc32cHardware();
    return hardware != nullptr ? hardware : &Crc32cPortable;
  }();
  return impl(data, size);
}

uint64_t Reader::ReadVarint() {
  uint64_t value = 0;
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (!Need(1, "varint")) return 0;
    const uint8_t byte = *p_++;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the final value bit.
      if (shift == 63 && byte > 1) {
        Fail("varint overflows 64 bits");
        return 0;
      }
      return value;
    }
  }
  Fail("varint longer than 10 bytes");
  return 0;
}

std::vector<uint8_t> SealFrame(uint32_t magic, uint32_t version,
                               Writer&& payload) {
  const std::vector<uint8_t> body = payload.Take();
  Writer out;
  out.PutU32(magic);
  out.PutU32(version);
  out.PutU64(body.size());
  out.PutU32(Crc32c(body.data(), body.size()));
  out.PutBytes(body.data(), body.size());
  std::vector<uint8_t> frame = out.Take();
  // Fault-injection site (no-op in production builds): models a torn or
  // corrupted write as the serialized frame leaves the library. OpenFrame's
  // size/CRC validation must reject every mutation with a clean Status.
  fault::MutateSealedFrame(&frame);
  return frame;
}

StatusOr<FrameInfo> ProbeFrame(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::DataLoss("frame truncated (shorter than a header)");
  }
  Reader header(bytes.data(), kFrameHeaderSize);
  FrameInfo info;
  info.magic = header.ReadU32();
  info.version = header.ReadU32();
  info.payload_size = header.ReadU64();
  info.crc32c = header.ReadU32();
  if (info.payload_size != bytes.size() - kFrameHeaderSize) {
    return Status::DataLoss("frame payload size mismatch");
  }
  const uint32_t actual =
      Crc32c(bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize);
  if (actual != info.crc32c) {
    return Status::DataLoss("frame payload checksum mismatch");
  }
  return info;
}

StatusOr<Reader> OpenFrame(ByteSpan bytes, uint32_t magic,
                           uint32_t max_version, const char* what) {
  const std::string name(what);
  if (bytes.size() < kFrameHeaderSize) {
    return Status::DataLoss(name + " frame truncated");
  }
  Reader header(bytes.data(), kFrameHeaderSize);
  const uint32_t actual_magic = header.ReadU32();
  const uint32_t version = header.ReadU32();
  const uint64_t payload_size = header.ReadU64();
  const uint32_t crc = header.ReadU32();
  if (actual_magic != magic) {
    return Status::DataLoss("bad " + name + " frame magic");
  }
  if (version < 1 || version > max_version) {
    return Status::DataLoss("unsupported " + name + " wire version " +
                            std::to_string(version));
  }
  if (payload_size != bytes.size() - kFrameHeaderSize) {
    return Status::DataLoss(name + " frame payload size mismatch");
  }
  const uint8_t* payload = bytes.data() + kFrameHeaderSize;
  if (Crc32c(payload, static_cast<size_t>(payload_size)) != crc) {
    return Status::DataLoss(name + " frame payload checksum mismatch");
  }
  return Reader(payload, static_cast<size_t>(payload_size));
}

uint32_t PeekMagic(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderSize) return 0;
  return Reader(bytes.data(), 4).ReadU32();
}

}  // namespace wire
}  // namespace sbf
