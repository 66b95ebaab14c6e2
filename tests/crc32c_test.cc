// CRC32C dispatch (io/wire.h): the SSE4.2 instruction path and the
// portable slicing-by-8 path must agree with each other and with the plain
// bytewise definition of the Castagnoli CRC on every length and alignment,
// since every frame header on disk and on the wire carries this value.
// Byte-identity of whole frames is pinned separately by golden_wire_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "io/wire.h"
#include "util/random.h"

namespace sbf {
namespace {

// Bit-at-a-time reference over the reflected polynomial, independent of
// either table-driven or hardware implementation.
uint32_t BytewiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32cTest, KnownAnswer) {
  const char* check = "123456789";
  const auto* data = reinterpret_cast<const uint8_t*>(check);
  EXPECT_EQ(wire::Crc32c(data, 9), 0xE3069283u);
  EXPECT_EQ(wire::Crc32cPortable(data, 9), 0xE3069283u);
  EXPECT_EQ(BytewiseCrc32c(data, 9), 0xE3069283u);
  if (const wire::Crc32cFn hardware = wire::Crc32cHardware()) {
    EXPECT_EQ(hardware(data, 9), 0xE3069283u);
  }
  EXPECT_EQ(wire::Crc32c(data, 0), 0u);
}

TEST(Crc32cTest, ImplementationsAgreeOnEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 8, 11);
  const wire::Crc32cFn hardware = wire::Crc32cHardware();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t want = BytewiseCrc32c(p, len);
      ASSERT_EQ(wire::Crc32cPortable(p, len), want)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(wire::Crc32c(p, len), want)
          << "offset " << offset << " len " << len;
      if (hardware != nullptr) {
        ASSERT_EQ(hardware(p, len), want)
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, ImplementationsAgreeOnOneMegabyte) {
  const std::vector<uint8_t> bytes = RandomBytes(1 << 20, 12);
  const uint32_t want = BytewiseCrc32c(bytes.data(), bytes.size());
  EXPECT_EQ(wire::Crc32cPortable(bytes.data(), bytes.size()), want);
  EXPECT_EQ(wire::Crc32c(bytes), want);
  if (const wire::Crc32cFn hardware = wire::Crc32cHardware()) {
    EXPECT_EQ(hardware(bytes.data(), bytes.size()), want);
  }
}

TEST(Crc32cTest, DispatchPrefersHardwareWhenPresent) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_NE(wire::Crc32cHardware(), nullptr);
    return;
  }
#endif
  EXPECT_EQ(wire::Crc32cHardware(), nullptr);
}

}  // namespace
}  // namespace sbf
