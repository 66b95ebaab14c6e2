#include <gtest/gtest.h>

#include <bit>
#include <unordered_map>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "io/wire.h"

#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/random.h"

namespace sbf {
namespace {

// --- shared behaviour across all backings (property suite) ------------------

class CounterBackingTest : public ::testing::TestWithParam<CounterBacking> {
 protected:
  std::unique_ptr<CounterVector> Make(size_t m) {
    return MakeCounterVector(GetParam(), m);
  }
};

TEST_P(CounterBackingTest, StartsAtZero) {
  auto v = Make(100);
  EXPECT_EQ(v->size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(v->Get(i), 0u);
  EXPECT_EQ(v->Total(), 0u);
}

TEST_P(CounterBackingTest, SetGetRoundTrip) {
  auto v = Make(50);
  v->Set(0, 7);
  v->Set(25, 123456);
  v->Set(49, 1);
  EXPECT_EQ(v->Get(0), 7u);
  EXPECT_EQ(v->Get(25), 123456u);
  EXPECT_EQ(v->Get(49), 1u);
  EXPECT_EQ(v->Get(1), 0u);
}

TEST_P(CounterBackingTest, IncrementAndDecrement) {
  auto v = Make(10);
  v->Increment(3, 5);
  v->Increment(3, 2);
  EXPECT_EQ(v->Get(3), 7u);
  v->Decrement(3, 4);
  EXPECT_EQ(v->Get(3), 3u);
  v->Decrement(3, 3);
  EXPECT_EQ(v->Get(3), 0u);
}

TEST_P(CounterBackingTest, RandomOpsMatchReferenceModel) {
  constexpr size_t kM = 200;
  auto v = Make(kM);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 31 + 5);

  for (int iter = 0; iter < 20000; ++iter) {
    const size_t i = rng.UniformInt(kM);
    switch (rng.UniformInt(3)) {
      case 0: {
        const uint64_t d = rng.UniformInt(20) + 1;
        v->Increment(i, d);
        model[i] += d;
        break;
      }
      case 1:
        if (model[i] > 0) {
          const uint64_t d = rng.UniformInt(model[i]) + 1;
          v->Decrement(i, d);
          model[i] -= d;
        }
        break;
      default: {
        // Keep values within 31 bits so the fixed32 backing can hold them.
        const uint64_t value = rng.Next() >> (rng.UniformInt(30) + 33);
        v->Set(i, value);
        model[i] = value;
        break;
      }
    }
    if (iter % 500 == 0) {
      for (size_t j = 0; j < kM; ++j) {
        ASSERT_EQ(v->Get(j), model[j]) << "counter " << j << " iter " << iter;
      }
    }
  }
  for (size_t j = 0; j < kM; ++j) ASSERT_EQ(v->Get(j), model[j]);
}

TEST_P(CounterBackingTest, SkewedGrowthMatchesModel) {
  // A few counters grow huge while most stay tiny — the Zipfian pattern
  // that stresses width expansion and slack borrowing.
  constexpr size_t kM = 300;
  auto v = Make(kM);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(77);
  for (int iter = 0; iter < 30000; ++iter) {
    // Zipf-flavoured index: low indices picked much more often.
    const size_t i = static_cast<size_t>(
        kM * rng.UniformDouble() * rng.UniformDouble() * rng.UniformDouble());
    v->Increment(i, 1);
    model[i] += 1;
  }
  for (size_t j = 0; j < kM; ++j) ASSERT_EQ(v->Get(j), model[j]);
}

TEST_P(CounterBackingTest, LargeValues) {
  auto v = Make(8);
  // Largest value every backing can represent (fixed32 caps at 2^32 - 1).
  const uint64_t big = GetParam() == CounterBacking::kFixed32
                           ? (1ull << 31)
                           : (1ull << 50);
  v->Set(0, big);
  v->Set(7, big + 12345);
  EXPECT_EQ(v->Get(0), big);
  EXPECT_EQ(v->Get(7), big + 12345);
  EXPECT_EQ(v->Get(3), 0u);
}

TEST_P(CounterBackingTest, ResetZeroes) {
  auto v = Make(64);
  for (size_t i = 0; i < 64; ++i) v->Set(i, i * i);
  v->Reset();
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(v->Get(i), 0u);
}

TEST_P(CounterBackingTest, CloneIsDeepAndEqual) {
  auto v = Make(40);
  Xoshiro256 rng(21);
  for (size_t i = 0; i < 40; ++i) v->Set(i, rng.UniformInt(1000));
  auto copy = v->Clone();
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(copy->Get(i), v->Get(i));
  copy->Set(5, 999999);
  EXPECT_NE(copy->Get(5), v->Get(5));
}

TEST_P(CounterBackingTest, TotalSumsCounters) {
  auto v = Make(10);
  uint64_t expected = 0;
  for (size_t i = 0; i < 10; ++i) {
    v->Set(i, i * 3);
    expected += i * 3;
  }
  EXPECT_EQ(v->Total(), expected);
}

TEST_P(CounterBackingTest, MemoryUsageIsPositiveAndScales) {
  auto small = Make(64);
  auto large = Make(6400);
  EXPECT_GT(small->MemoryUsageBits(), 0u);
  EXPECT_GT(large->MemoryUsageBits(), small->MemoryUsageBits());
}

INSTANTIATE_TEST_SUITE_P(
    Backings, CounterBackingTest,
    ::testing::Values(CounterBacking::kFixed64, CounterBacking::kFixed32,
                      CounterBacking::kCompact, CounterBacking::kSerialScan),
    [](const auto& param_info) {
      std::string name = CounterBackingName(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- fixed-width specifics ----------------------------------------------------

TEST(FixedWidthTest, WidthBoundsValues) {
  FixedWidthCounterVector v(10, 4);
  EXPECT_EQ(v.max_value(), 15u);
  v.Set(0, 15);
  EXPECT_EQ(v.Get(0), 15u);
}

TEST(FixedWidthTest, SaturatingIncrementClamps) {
  FixedWidthCounterVector v(4, 4, /*sticky_saturation=*/true);
  v.Increment(0, 20);
  EXPECT_EQ(v.Get(0), 15u);
  EXPECT_EQ(v.SaturatedCount(), 1u);
}

TEST(FixedWidthTest, StickyCounterNeverDecrements) {
  FixedWidthCounterVector v(4, 4, /*sticky_saturation=*/true);
  v.Increment(0, 15);
  v.Decrement(0, 3);
  EXPECT_EQ(v.Get(0), 15u);  // stuck
  v.Increment(1, 10);
  v.Decrement(1, 3);
  EXPECT_EQ(v.Get(1), 7u);  // normal path still works
}

TEST(FixedWidthTest, NameReflectsConfig) {
  EXPECT_EQ(FixedWidthCounterVector(4, 4, true).Name(), "fixed4-saturating");
  EXPECT_EQ(FixedWidthCounterVector(4, 32).Name(), "fixed32");
}

// --- compact specifics ---------------------------------------------------------

TEST(CompactTest, WidthsStartAtOneAndGrow) {
  CompactCounterVector v(100);
  EXPECT_EQ(v.WidthOf(0), 1u);
  v.Set(0, 1);
  EXPECT_EQ(v.WidthOf(0), 1u);
  v.Set(0, 2);
  EXPECT_EQ(v.WidthOf(0), 2u);
  v.Set(0, 255);
  EXPECT_EQ(v.WidthOf(0), 8u);
}

TEST(CompactTest, DecrementKeepsWidthUntilRebuild) {
  CompactCounterVector v(100);
  v.Set(0, 255);
  v.Set(0, 1);  // value shrinks, width stays (positions don't move)
  EXPECT_EQ(v.WidthOf(0), 8u);
  EXPECT_EQ(v.Get(0), 1u);
  v.ForceRebuild();
  EXPECT_EQ(v.WidthOf(0), 1u);
  EXPECT_EQ(v.Get(0), 1u);
}

TEST(CompactTest, UsedBitsTracksWidths) {
  CompactCounterVector v(10);
  EXPECT_EQ(v.UsedBits(), 10u);  // all width-1
  v.Set(0, 7);                   // width 3
  EXPECT_EQ(v.UsedBits(), 12u);
}

TEST(CompactTest, SlackBorrowingAcrossGroups) {
  // Tight slack forces cross-group pushes.
  CompactCounterVector::Options options;
  options.group_size = 8;
  options.slack_per_counter = 0.25;
  CompactCounterVector v(64, options);
  std::vector<uint64_t> model(64, 0);
  Xoshiro256 rng(3);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t i = rng.UniformInt(64);
    const uint64_t value = rng.Next() >> (rng.UniformInt(32) + 32);
    v.Set(i, value);
    model[i] = value;
  }
  for (size_t i = 0; i < 64; ++i) ASSERT_EQ(v.Get(i), model[i]);
  EXPECT_GT(v.pushed_bits_total(), 0u);
}

TEST(CompactTest, RebuildsWhenSlackExhausted) {
  CompactCounterVector::Options options;
  options.group_size = 8;
  options.slack_per_counter = 0.1;
  CompactCounterVector v(32, options);
  // Grow every counter to 32 bits: guaranteed to exceed the initial slack.
  for (size_t i = 0; i < 32; ++i) v.Set(i, 0xFFFFFFFFull);
  for (size_t i = 0; i < 32; ++i) ASSERT_EQ(v.Get(i), 0xFFFFFFFFull);
  EXPECT_GE(v.rebuild_count(), 1u);
}

TEST(CompactTest, CompactnessNearInformationContent) {
  // For m counters of value ~15 (4 bits each) the base array should be
  // within a small factor of the N = 4m payload, not 64m.
  constexpr size_t kM = 10000;
  CompactCounterVector v(kM);
  for (size_t i = 0; i < kM; ++i) v.Set(i, 15);
  v.ForceRebuild();
  EXPECT_LT(v.BaseArrayBits(), 7 * kM);   // payload 4m + slack
  EXPECT_GE(v.BaseArrayBits(), 4 * kM);
}

TEST(CompactTest, SingleCounterVector) {
  CompactCounterVector v(1);
  v.Set(0, 42);
  EXPECT_EQ(v.Get(0), 42u);
}

TEST(CompactTest, GroupSizeOne) {
  CompactCounterVector::Options options;
  options.group_size = 1;
  CompactCounterVector v(17, options);
  for (size_t i = 0; i < 17; ++i) v.Set(i, i * 1000);
  for (size_t i = 0; i < 17; ++i) EXPECT_EQ(v.Get(i), i * 1000);
}

// --- serial-scan specifics ------------------------------------------------------

TEST(SerialScanTest, EncodedBitsReflectValues) {
  SerialScanCounterVector v(100);
  const size_t empty_bits = v.EncodedBits();
  // Counters of zero cost 1 bit each with the {0,0} steps code.
  EXPECT_EQ(empty_bits, 100u);
  v.Set(0, 1);  // code(2) = '10' -> 2 bits
  EXPECT_EQ(v.EncodedBits(), 101u);
}

TEST(SerialScanTest, RebuildOnOverflow) {
  SerialScanCounterVector::Options options;
  options.group_size = 4;
  options.slack_per_counter = 0.1;
  SerialScanCounterVector v(16, options);
  for (size_t i = 0; i < 16; ++i) v.Set(i, 1ull << 40);
  for (size_t i = 0; i < 16; ++i) ASSERT_EQ(v.Get(i), 1ull << 40);
}

TEST(SerialScanTest, AlternativeStepConfig) {
  SerialScanCounterVector::Options options;
  options.step_widths = {2, 3};
  SerialScanCounterVector v(50, options);
  for (size_t i = 0; i < 50; ++i) v.Set(i, i);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(v.Get(i), i);
}

// --- cross-backing equivalence ---------------------------------------------------

// --- saturation governance --------------------------------------------------

TEST_P(CounterBackingTest, DecrementBelowZeroClampsAndTallies) {
  // Regression: over-deleting used to abort; it must clamp at zero, tally
  // the event, and leave the vector fully usable.
  auto v = Make(16);
  v->Decrement(3, 5);
  EXPECT_EQ(v->Get(3), 0u);
  v->Increment(3, 2);
  v->Decrement(3, 10);
  EXPECT_EQ(v->Get(3), 0u);
  EXPECT_EQ(v->saturation().underflow_clamps, 2u);
  EXPECT_EQ(v->saturation().saturation_clamps, 0u);
  v->Increment(3, 7);
  EXPECT_EQ(v->Get(3), 7u);
}

TEST_P(CounterBackingTest, IncrementPastMaxClampsAndTallies) {
  auto v = Make(8);
  const uint64_t max = v->MaxValue();
  v->Set(0, max);
  EXPECT_EQ(v->Get(0), max);
  v->Increment(0, 1);  // would wrap past the backing's range
  EXPECT_EQ(v->Get(0), max);
  EXPECT_GE(v->saturation().saturation_clamps, 1u);
  // A clamped counter still reads max — never less (one-sided).
  v->Increment(0, 12345);
  EXPECT_EQ(v->Get(0), max);
}

TEST_P(CounterBackingTest, ScanOccupancyCountsNonzeroAndSaturated) {
  auto v = Make(600);  // spans multiple GetMany chunks
  v->Increment(1, 3);
  v->Increment(599, 1);
  v->Set(300, v->MaxValue());
  const OccupancyCounts counts = v->ScanOccupancy();
  EXPECT_EQ(counts.nonzero, 3u);
  EXPECT_EQ(counts.saturated, 1u);
}

TEST(FixedWidthTest, SetPastMaxClampsInsteadOfAborting) {
  // Regression: Set used to SBF_CHECK on out-of-range values, an abort
  // reachable from public inputs (narrow widths under Minimal Increase
  // lifts). It now clamps and tallies.
  FixedWidthCounterVector v(8, 4);
  v.Set(2, 100);
  EXPECT_EQ(v.Get(2), 15u);
  EXPECT_EQ(v.saturation().saturation_clamps, 1u);
}

TEST(FixedWidthTest, CloneCarriesSaturationStats) {
  FixedWidthCounterVector v(8, 4);
  v.Increment(0, 100);
  v.Decrement(1, 1);
  auto clone = v.Clone();
  EXPECT_EQ(clone->saturation().saturation_clamps, 1u);
  EXPECT_EQ(clone->saturation().underflow_clamps, 1u);
}

TEST(CrossBackingTest, AllBackingsAgreeUnderIdenticalOps) {
  constexpr size_t kM = 128;
  std::vector<std::unique_ptr<CounterVector>> vectors;
  vectors.push_back(MakeCounterVector(CounterBacking::kFixed64, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kFixed32, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kCompact, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kSerialScan, kM));

  Xoshiro256 rng(123);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t i = rng.UniformInt(kM);
    const uint64_t d = rng.UniformInt(5) + 1;
    for (auto& v : vectors) v->Increment(i, d);
  }
  for (size_t i = 0; i < kM; ++i) {
    const uint64_t expected = vectors[0]->Get(i);
    for (auto& v : vectors) {
      ASSERT_EQ(v->Get(i), expected) << v->Name() << " at " << i;
    }
  }
}

// --- bulk load: Deserialize lays the backing out once from decoded values --

// Values that stress the load path: mostly small counters, exact zeros and
// the saturated 2^64 - 1, and wide counters placed on both sides of every
// group boundary, where a per-counter widening load would shift group
// tails and borrow slack across groups.
std::vector<uint64_t> BulkLoadValues(size_t m, size_t group_size,
                                     uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> values(m);
  for (uint64_t& v : values) {
    switch (rng.UniformInt(8)) {
      case 0:
        v = 0;
        break;
      case 1:
        v = ~uint64_t{0};
        break;
      case 2:
        v = rng.Next() >> rng.UniformInt(64);
        break;
      default:
        v = rng.UniformInt(16);
    }
  }
  for (size_t g = group_size; g < m; g += group_size) {
    values[g - 1] = (uint64_t{1} << 40) + rng.UniformInt(1 << 20);
    values[g] = rng.Next() | (uint64_t{1} << 63);
  }
  values[0] = ~uint64_t{0};
  values[m - 1] = 0;
  return values;
}

// Loads `source`'s frame and checks the loaded backing against `values`.
void ExpectBulkLoadRoundTrip(
    const CounterVector& source, const std::vector<uint64_t>& values,
    StatusOr<std::unique_ptr<CounterVector>> (*deserialize)(wire::ByteSpan)) {
  const std::vector<uint8_t> bytes = source.Serialize();
  auto loaded = deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const CounterVector& cv = *loaded.value();
  ASSERT_EQ(cv.size(), values.size());
  std::vector<uint64_t> got(values.size());
  cv.DecodeBlock(0, got.size(), got.data());
  EXPECT_EQ(got, values);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(cv.Get(i), values[i]) << "counter " << i;
  }
  EXPECT_TRUE(cv.CheckInvariants().ok()) << cv.CheckInvariants().message();
  EXPECT_EQ(cv.Serialize(), bytes);
}

TEST(BulkLoadTest, CompactLoadsValuesWithoutRebuilds) {
  for (const size_t group_size : {size_t{1}, size_t{7}, size_t{32}}) {
    for (const size_t m : {size_t{1}, size_t{33}, size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << "group_size " << group_size
                                      << " m " << m);
      const std::vector<uint64_t> values =
          BulkLoadValues(m, group_size, 17 + m + group_size);
      CompactCounterVector::Options options;
      options.group_size = group_size;
      CompactCounterVector source(m, options);
      source.EncodeBlock(0, m, values.data());
      ExpectBulkLoadRoundTrip(source, values,
                              &CompactCounterVector::Deserialize);
      auto loaded =
          CompactCounterVector::Deserialize(source.Serialize()).value();
      const auto& compact = dynamic_cast<const CompactCounterVector&>(*loaded);
      EXPECT_EQ(compact.rebuild_count(), 0u);
      EXPECT_EQ(compact.pushed_bits_total(), 0u);
    }
  }
}

TEST(BulkLoadTest, SerialScanLoadsValues) {
  for (const size_t group_size : {size_t{1}, size_t{7}, size_t{16}}) {
    for (const size_t m : {size_t{1}, size_t{33}, size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << "group_size " << group_size
                                      << " m " << m);
      const std::vector<uint64_t> values =
          BulkLoadValues(m, group_size, 29 + m + group_size);
      SerialScanCounterVector::Options options;
      options.group_size = group_size;
      SerialScanCounterVector source(m, options);
      source.EncodeBlock(0, m, values.data());
      ExpectBulkLoadRoundTrip(source, values,
                              &SerialScanCounterVector::Deserialize);
      auto loaded =
          SerialScanCounterVector::Deserialize(source.Serialize()).value();
      EXPECT_EQ(
          dynamic_cast<const SerialScanCounterVector&>(*loaded).rebuild_count(),
          0u);
    }
  }
}

// A compact 'SBcc' frame around a hand-made counter stream.
std::vector<uint8_t> CompactFrame(uint64_t m, const BitVector& stream) {
  wire::Writer payload;
  payload.PutVarint(m);
  payload.PutVarint(32);
  payload.PutU64(std::bit_cast<uint64_t>(0.5));
  payload.PutVarint(stream.size_bits());
  payload.PutWords(stream.words(), CeilDiv(stream.size_bits(), 64));
  return wire::SealFrame(wire::kMagicCompactCounters, wire::kFormatVersion,
                         std::move(payload));
}

// Bit-at-a-time reference for the counter-stream rules: Elias delta of
// v + 1, gamma prefix of at most 6 zeros, length at most 64 except the
// all-zero-body length-65 codeword of 2^64 (the saturated counter), bits
// past the stream read as ones, no codeword may end past the stream and
// no bits may trail the last one.
bool ReferenceDecode(const BitVector& stream, uint64_t m,
                     std::vector<uint64_t>* out) {
  const uint64_t n = stream.size_bits();
  auto bit = [&](uint64_t pos) { return pos >= n || stream.GetBit(pos); };
  uint64_t pos = 0;
  out->clear();
  for (uint64_t i = 0; i < m; ++i) {
    if (pos >= n) return false;
    uint32_t zeros = 0;
    while (!bit(pos++)) {
      if (++zeros > 6) return false;
    }
    uint64_t len = 1;
    for (uint32_t j = 0; j < zeros; ++j) len = (len << 1) | bit(pos++);
    if (len > 65) return false;
    uint64_t value = 1;
    bool body_zero = true;
    for (uint64_t j = 1; j < len; ++j) {
      const bool b = bit(pos++);
      body_zero = body_zero && !b;
      value = (value << 1) | b;
    }
    if (len == 65 && !body_zero) return false;
    if (pos > n) return false;
    out->push_back(len == 65 ? ~uint64_t{0} : value - 1);
  }
  return pos == n;
}

// The counter stream written bit by bit, independently of the bitstream
// layer's Elias encoders: v as delta(n) for n = v + 1 (gamma of n's bit
// length L, then n's low L - 1 bits, each field MSB-first), and the
// saturated 2^64 - 1 as delta(2^64) = gamma(65) plus 64 zero bits.
BitVector ReferenceStream(const std::vector<uint64_t>& values) {
  BitVector stream;
  BitWriter writer(&stream);
  auto msb_first = [&writer](uint64_t x, uint32_t bits) {
    for (uint32_t i = bits; i-- > 0;) writer.WriteBit((x >> i) & 1);
  };
  for (const uint64_t v : values) {
    const bool saturated = v == ~uint64_t{0};
    const auto len =
        saturated ? 65u : static_cast<uint32_t>(std::bit_width(v + 1));
    const auto len_bits = static_cast<uint32_t>(std::bit_width(len));
    writer.WriteZeros(len_bits - 1);
    msb_first(len, len_bits);
    if (saturated) {
      writer.WriteZeros(64);
    } else {
      msb_first(v + 1, len - 1);
    }
  }
  writer.Finish();
  return stream;
}

TEST(CounterStreamTest, SaturatedCounterTakesTheLength65Codeword) {
  const std::vector<uint64_t> values = {~uint64_t{0}, 2};
  auto loaded = CompactCounterVector::Deserialize(
      CompactFrame(2, ReferenceStream(values)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value()->Get(0), ~uint64_t{0});
  EXPECT_EQ(loaded.value()->Get(1), 2u);
}

TEST(CounterStreamTest, SerializeMatchesEliasReference) {
  const std::vector<uint64_t> values = BulkLoadValues(777, 32, 5);
  CompactCounterVector source(values.size());
  source.EncodeBlock(0, values.size(), values.data());
  EXPECT_EQ(source.Serialize(),
            CompactFrame(values.size(), ReferenceStream(values)));
}

TEST(CounterStreamTest, RejectsCodewordsNoEncoderEmits) {
  auto build = [](auto&& write) {
    BitVector stream;
    BitWriter writer(&stream);
    write(writer);
    writer.Finish();
    return stream;
  };
  const BitVector cases[] = {
      build([](BitWriter& w) { w.WriteZeros(7); w.WriteBits(1, 1); }),
      build([](BitWriter& w) { EliasGammaEncode(66, &w); w.WriteZeros(65); }),
      build([](BitWriter& w) {
        EliasGammaEncode(65, &w);
        w.WriteBits(1, 1);
        w.WriteZeros(63);
      }),
      build([](BitWriter& w) { EliasGammaEncode(65, &w); w.WriteZeros(63); }),
      build([](BitWriter& w) { EliasDeltaEncode(9, &w); w.WriteZeros(1); }),
  };
  for (const BitVector& stream : cases) {
    EXPECT_FALSE(
        CompactCounterVector::Deserialize(CompactFrame(1, stream)).ok())
        << stream.size_bits() << "-bit stream";
  }
}

// The word-window decoder against the bit-at-a-time rules, on valid
// streams and on streams with flipped bits and cut lengths.
TEST(CounterStreamTest, WindowDecoderMatchesBitwiseReference) {
  Xoshiro256 rng(2024);
  for (int iter = 0; iter < 3000; ++iter) {
    const uint64_t m = rng.UniformInt(40) + 1;
    std::vector<uint64_t> values(m);
    for (uint64_t& v : values) {
      v = rng.UniformInt(10) == 0 ? ~uint64_t{0}
                                  : rng.Next() >> rng.UniformInt(64);
    }
    BitVector stream = ReferenceStream(values);
    if (iter % 3 != 0) {
      for (int f = 0; f < 1 + iter % 4; ++f) {
        const uint64_t pos = rng.UniformInt(stream.size_bits());
        stream.SetBit(pos, !stream.GetBit(pos));
      }
    }
    if (iter % 5 == 0 && stream.size_bits() > 1) {
      stream.Resize(stream.size_bits() - 1 - rng.UniformInt(8) %
                                                 (stream.size_bits() - 1));
    }
    const uint64_t claimed = iter % 7 == 0 ? m + 1 : m;
    std::vector<uint64_t> want;
    const bool want_ok = ReferenceDecode(stream, claimed, &want);
    auto loaded =
        CompactCounterVector::Deserialize(CompactFrame(claimed, stream));
    ASSERT_EQ(loaded.ok(), want_ok)
        << "iter " << iter << ": "
        << (loaded.ok() ? "accepted" : loaded.status().message());
    if (!want_ok) continue;
    for (uint64_t i = 0; i < claimed; ++i) {
      ASSERT_EQ(loaded.value()->Get(i), want[i]) << "iter " << iter;
    }
  }
}

}  // namespace
}  // namespace sbf
