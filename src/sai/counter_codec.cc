#include "sai/counter_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "bitstream/bit_vector.h"
#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "util/bits.h"

namespace sbf {
namespace {

// Length field of the one 65-bit codeword: Elias delta of 2^64 is
// gamma(65) followed by 64 zero bits.
constexpr uint32_t kSaturatedLength = 65;

// Appends the codeword of counter value v: Elias delta of v + 1. The
// saturated counter 2^64 - 1 takes delta's codeword of 2^64 (gamma(65) and
// an all-zero 64-bit body), which a 64-bit n cannot express.
void WriteCounter(uint64_t v, BitWriter* writer) {
  if (v == ~uint64_t{0}) {
    EliasGammaEncode(kSaturatedLength, writer);
    writer->WriteZeros(kSaturatedLength - 1);
  } else {
    EliasDeltaEncode(v + 1, writer);
  }
}

// Bit reversal of every 7-bit field: the gamma length field (at most 7
// bits) sits on the decoder's serial position chain, where one L1 load
// beats the full 64-bit reversal.
constexpr std::array<uint8_t, 128> MakeReverse7() {
  std::array<uint8_t, 128> table{};
  for (uint32_t i = 0; i < 128; ++i) {
    uint32_t r = 0;
    for (uint32_t b = 0; b < 7; ++b) r |= ((i >> b) & 1) << (6 - b);
    table[i] = static_cast<uint8_t>(r);
  }
  return table;
}
constexpr std::array<uint8_t, 128> kReverse7 = MakeReverse7();

// The 64 stream bits starting at `pos`, branch-free; words[pos / 64 + 1]
// must exist.
inline uint64_t Window(const uint64_t* words, size_t pos) {
  const size_t w = pos >> 6;
  const uint32_t off = pos & 63;
  return (words[w] >> off) | ((words[w + 1] << 1) << (63 - off));
}

// Decodes the codeword at `*pos` into the counter value it carries (the
// coded integer minus one), advancing `*pos` past it. The stream is
// LSB-first, so the gamma prefix is the count of trailing zeros of a
// 64-bit window; the MSB-first length and value fields are bit-reversed
// out of the same window, with a second window only for a codeword longer
// than 64 bits. Rejects codewords no valid encoder emits (prefix > 6
// zeros, length > 65, length 65 with a nonzero body) instead of
// over-reading — deserialization must be safe on corrupted network input.
// A codeword spans at most 13 + 64 bits.
bool DecodeCounter(const uint64_t* words, size_t* pos, uint64_t* value) {
  const uint64_t window = Window(words, *pos);
  const auto zeros = static_cast<uint32_t>(std::countr_zero(window));
  if (zeros > 6) return false;  // gamma(len) with len <= 65 uses <= 6
  // The 1 ending the prefix is len's MSB; its `zeros` low bits follow.
  const uint64_t len = kReverse7[(window >> zeros) & 0x7F] >> (6 - zeros);
  if (len > kSaturatedLength) return false;
  const uint32_t head = 2 * zeros + 1;
  const auto low = static_cast<uint32_t>(len - 1);
  // The top `low` bits of the reversed body (none when low == 0; the
  // split shift keeps every shift count below 64).
  uint64_t body;
  if (head + low <= 64) {
    body = (ReverseBits(window >> head) >> 1) >> (63 - low);
  } else {
    const uint64_t reversed = ReverseBits(Window(words, *pos + head));
    body = low == 64 ? reversed : (reversed >> 1) >> (63 - low);
  }
  if (len == kSaturatedLength) {
    if (body != 0) return false;
    *value = ~uint64_t{0};
  } else {
    *value = ((uint64_t{1} << low) | body) - 1;  // restore the implied 1
  }
  *pos += head + low;
  return true;
}

}  // namespace

void WriteCounterStream(const CounterVector& cv, wire::Writer* out) {
  BitVector stream;
  BitWriter writer(&stream);
  // Sequential sweep through the decoded-view layer: one group decode per
  // group instead of one positioned Get per counter.
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  const size_t m = cv.size();
  for (size_t base = 0; base < m; base += kChunk) {
    const size_t len = std::min(kChunk, m - base);
    cv.DecodeBlock(base, len, values);
    for (size_t j = 0; j < len; ++j) WriteCounter(values[j], &writer);
  }
  writer.Finish();
  out->PutVarint(stream.size_bits());
  out->PutWords(stream.words(), stream.size_words());
}

StatusOr<std::vector<uint64_t>> ReadCounterStream(wire::Reader* in,
                                                  uint64_t m,
                                                  const char* what) {
  const std::string name(what);
  const uint64_t stream_bits = in->ReadVarint();
  if (!in->ok()) return in->status();
  // Every counter costs at least one bit, and the word block must fit in
  // what is left of the payload — both checks run before any allocation,
  // so a corrupted length cannot trigger a huge one.
  if (m > stream_bits) {
    return Status::DataLoss(name + " counter stream shorter than m");
  }
  const uint64_t stream_words = CeilDiv(stream_bits, 64);
  if (stream_words * 8 > in->remaining()) {
    return Status::DataLoss(name + " counter stream truncated");
  }
  // Two guard words of all-ones after the stream: every window a codeword
  // starting inside the stream reads (at most 13 + 64 bits) stays within
  // them, and an overrun past the stream is then detected by the position
  // checks below.
  std::vector<uint64_t> words(static_cast<size_t>(stream_words) + 2, ~0ull);
  in->ReadWords(words.data(), static_cast<size_t>(stream_words));
  if (!in->ok()) return in->status();

  std::vector<uint64_t> values(static_cast<size_t>(m));
  size_t pos = 0;
  for (uint64_t& value : values) {
    if (pos >= stream_bits) {
      return Status::DataLoss(name + " counter stream ends early");
    }
    if (!DecodeCounter(words.data(), &pos, &value) || pos > stream_bits) {
      return Status::DataLoss(name + " counter stream corrupted");
    }
  }
  if (pos != stream_bits) {
    return Status::DataLoss(name + " counter stream has trailing bits");
  }
  return values;
}

}  // namespace sbf
