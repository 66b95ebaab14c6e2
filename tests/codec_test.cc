#include <gtest/gtest.h>

#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "bitstream/steps_code.h"
#include "util/bits.h"
#include "util/random.h"

namespace sbf {
namespace {

// --- Elias gamma --------------------------------------------------------------

TEST(EliasGammaTest, KnownCodewords) {
  // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100".
  BitVector out;
  BitWriter writer(&out);
  EliasGammaEncode(1, &writer);
  EliasGammaEncode(2, &writer);
  EliasGammaEncode(3, &writer);
  EliasGammaEncode(4, &writer);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 1u + 3 + 3 + 5);

  BitReader reader(&out);
  EXPECT_EQ(EliasGammaDecode(&reader), 1u);
  EXPECT_EQ(EliasGammaDecode(&reader), 2u);
  EXPECT_EQ(EliasGammaDecode(&reader), 3u);
  EXPECT_EQ(EliasGammaDecode(&reader), 4u);
}

TEST(EliasGammaTest, RoundTripExhaustiveSmall) {
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t n = 1; n <= 2000; ++n) EliasGammaEncode(n, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t n = 1; n <= 2000; ++n) {
    ASSERT_EQ(EliasGammaDecode(&reader), n);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(EliasGammaTest, RoundTripRandomLarge) {
  Xoshiro256 rng(1);
  std::vector<uint64_t> values;
  BitVector out;
  BitWriter writer(&out);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = (rng.Next() >> (rng.UniformInt(63))) | 1;
    values.push_back(v);
    EliasGammaEncode(v, &writer);
  }
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v : values) ASSERT_EQ(EliasGammaDecode(&reader), v);
}

TEST(EliasGammaTest, LengthMatchesEncoding) {
  for (uint64_t n : {1ull, 2ull, 3ull, 4ull, 100ull, 12345ull, 1ull << 40}) {
    BitVector out;
    BitWriter writer(&out);
    EliasGammaEncode(n, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), EliasGammaLength(n)) << n;
  }
}

// --- Elias delta ----------------------------------------------------------------

TEST(EliasDeltaTest, KnownCodewords) {
  // delta(1) = "1" (gamma(1)), delta(2) = gamma(2) + "0" = "0100".
  EXPECT_EQ(EliasDeltaLength(1), 1u);
  EXPECT_EQ(EliasDeltaLength(2), 4u);
  EXPECT_EQ(EliasDeltaLength(3), 4u);
  EXPECT_EQ(EliasDeltaLength(4), 5u);
}

TEST(EliasDeltaTest, RoundTripExhaustiveSmall) {
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t n = 1; n <= 2000; ++n) EliasDeltaEncode(n, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t n = 1; n <= 2000; ++n) {
    ASSERT_EQ(EliasDeltaDecode(&reader), n);
  }
}

TEST(EliasDeltaTest, RoundTripPowersOfTwo) {
  BitVector out;
  BitWriter writer(&out);
  for (uint32_t p = 0; p < 64; ++p) EliasDeltaEncode(1ull << p, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint32_t p = 0; p < 64; ++p) {
    ASSERT_EQ(EliasDeltaDecode(&reader), 1ull << p) << p;
  }
}

TEST(EliasDeltaTest, LengthMatchesEncodingAndPaperFormula) {
  for (uint64_t n : {1ull, 2ull, 5ull, 17ull, 100ull, 65535ull, 1ull << 50}) {
    BitVector out;
    BitWriter writer(&out);
    EliasDeltaEncode(n, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), EliasDeltaLength(n)) << n;
    // L2(n) = floor(log2 n) + 2 floor(log2(floor(log2 n)+1)) + 1.
    const uint32_t log_n = FloorLog2(n);
    EXPECT_EQ(EliasDeltaLength(n), log_n + 2 * FloorLog2(log_n + 1) + 1) << n;
  }
}

TEST(EliasDeltaTest, AsymptoticallySmallerThanGamma) {
  EXPECT_LT(EliasDeltaLength(1ull << 40), EliasGammaLength(1ull << 40));
}

// The encoders write whole bit-reversed fields; pin them to the codes'
// definitions written one bit at a time, for every bit length of n
// (covering both the one-write and the two-write codewords) and every
// alignment of the codeword within a word.
TEST(EliasEncodeTest, MatchesBitwiseDefinition) {
  auto msb_first = [](uint64_t x, uint32_t bits, BitWriter* w) {
    for (uint32_t i = bits; i-- > 0;) w->WriteBit((x >> i) & 1);
  };
  auto gamma = [&](uint64_t n, BitWriter* w) {
    const uint32_t len = FloorLog2(n) + 1;
    w->WriteZeros(len - 1);
    msb_first(n, len, w);
  };
  auto delta = [&](uint64_t n, BitWriter* w) {
    const uint32_t len = FloorLog2(n) + 1;
    gamma(len, w);
    msb_first(n, len - 1, w);
  };
  Xoshiro256 rng(14);
  for (uint32_t len = 1; len <= 64; ++len) {
    const uint64_t low = uint64_t{1} << (len - 1);
    const uint64_t mid = low | (rng.Next() & (low - 1));
    for (const uint64_t n : {low, low | (low - 1), mid}) {
      for (const bool is_delta : {false, true}) {
        const uint32_t offset = static_cast<uint32_t>(rng.UniformInt(64));
        BitVector got;
        BitVector want;
        BitWriter got_writer(&got);
        BitWriter want_writer(&want);
        got_writer.WriteBits(~0ull, offset);
        want_writer.WriteBits(~0ull, offset);
        if (is_delta) {
          EliasDeltaEncode(n, &got_writer);
          delta(n, &want_writer);
        } else {
          EliasGammaEncode(n, &got_writer);
          gamma(n, &want_writer);
        }
        got_writer.WriteBit(true);
        want_writer.WriteBit(true);
        got_writer.Finish();
        want_writer.Finish();
        ASSERT_EQ(got.size_bits(), want.size_bits()) << n;
        for (size_t i = 0; i < want.size_bits(); ++i) {
          ASSERT_EQ(got.GetBit(i), want.GetBit(i))
              << (is_delta ? "delta(" : "gamma(") << n << ") bit " << i;
        }
      }
    }
  }
}

// --- steps code --------------------------------------------------------------

TEST(StepsCodeTest, PaperExampleConfiguration) {
  // {0, 0}: 0 -> '0' (1 bit), 1 -> '10' (2 bits), else '11' + Elias.
  StepsCode code({0, 0});
  EXPECT_EQ(code.Length(0), 1u);
  EXPECT_EQ(code.Length(1), 2u);
  EXPECT_EQ(code.Length(2), 2u + EliasDeltaLength(1));

  BitVector out;
  BitWriter writer(&out);
  code.Encode(0, &writer);
  code.Encode(1, &writer);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 3u);
  EXPECT_FALSE(out.GetBit(0));  // '0'
  EXPECT_TRUE(out.GetBit(1));   // '1'
  EXPECT_FALSE(out.GetBit(2));  // '0'
}

class StepsConfigTest
    : public ::testing::TestWithParam<std::vector<uint32_t>> {};

TEST_P(StepsConfigTest, RoundTripSmallValues) {
  StepsCode code(GetParam());
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t v = 0; v <= 300; ++v) code.Encode(v, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v = 0; v <= 300; ++v) {
    ASSERT_EQ(code.Decode(&reader), v) << v;
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST_P(StepsConfigTest, RoundTripRandomLargeValues) {
  StepsCode code(GetParam());
  Xoshiro256 rng(99);
  std::vector<uint64_t> values;
  BitVector out;
  BitWriter writer(&out);
  for (int i = 0; i < 300; ++i) {
    const uint64_t v = rng.Next() >> rng.UniformInt(60);
    values.push_back(v);
    code.Encode(v, &writer);
  }
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v : values) ASSERT_EQ(code.Decode(&reader), v);
}

TEST_P(StepsConfigTest, LengthMatchesEncoding) {
  StepsCode code(GetParam());
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 100ull, 5000ull,
                     1ull << 33}) {
    BitVector out;
    BitWriter writer(&out);
    code.Encode(v, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), code.Length(v)) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StepsConfigTest,
    ::testing::Values(std::vector<uint32_t>{0, 0}, std::vector<uint32_t>{1, 2},
                      std::vector<uint32_t>{2, 3}, std::vector<uint32_t>{1},
                      std::vector<uint32_t>{4, 4, 4}));

TEST(StepsCodeTest, CheaperThanEliasForCountersOfOne) {
  // The paper's motivation: in an "almost set" (most counters 1, stored as
  // code(c+1)=code(2)), steps beat Elias delta.
  StepsCode code({0, 0});
  EXPECT_LT(code.Length(1 + 1), EliasDeltaLength(1 + 1) + 0u);
}

TEST(StepsCodeTest, MixedStreamWithEliasInterleaved) {
  // Codecs must compose on one stream.
  StepsCode code({1, 2});
  BitVector out;
  BitWriter writer(&out);
  code.Encode(7, &writer);
  EliasDeltaEncode(42, &writer);
  code.Encode(0, &writer);
  EliasGammaEncode(5, &writer);
  writer.Finish();
  BitReader reader(&out);
  EXPECT_EQ(code.Decode(&reader), 7u);
  EXPECT_EQ(EliasDeltaDecode(&reader), 42u);
  EXPECT_EQ(code.Decode(&reader), 0u);
  EXPECT_EQ(EliasGammaDecode(&reader), 5u);
}

}  // namespace
}  // namespace sbf
