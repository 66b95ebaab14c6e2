#include "bitstream/elias.h"

#include "util/bits.h"
#include "util/check.h"

namespace sbf {
namespace {

uint64_t ReadBinaryMsbFirst(uint32_t bits, BitReader* reader) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < bits; ++i) {
    v = (v << 1) | static_cast<uint64_t>(reader->ReadBit());
  }
  return v;
}

}  // namespace

void EliasGammaEncode(uint64_t n, BitWriter* writer) {
  SBF_DCHECK(n >= 1);
  const uint32_t len = FloorLog2(n) + 1;
  // The stream is LSB-first, so n MSB-first is n bit-reversed into its low
  // `len` bits; the codeword is one field write when it fits a word.
  const uint64_t reversed = ReverseBits(n) >> (64 - len);
  if (2 * len - 1 <= 64) {
    writer->WriteBits(reversed << (len - 1), 2 * len - 1);
  } else {
    writer->WriteZeros(len - 1);
    writer->WriteBits(reversed, len);
  }
}

uint64_t EliasGammaDecode(BitReader* reader) {
  uint32_t zeros = 0;
  while (!reader->ReadBit()) ++zeros;
  // The leading 1 just consumed is the MSB of the value.
  uint64_t v = 1;
  if (zeros > 0) {
    v = (v << zeros) | ReadBinaryMsbFirst(zeros, reader);
  }
  return v;
}

uint32_t EliasGammaLength(uint64_t n) {
  SBF_DCHECK(n >= 1);
  return 2 * FloorLog2(n) + 1;
}

void EliasDeltaEncode(uint64_t n, BitWriter* writer) {
  SBF_DCHECK(n >= 1);
  const uint32_t len = FloorLog2(n) + 1;
  // gamma(len) and n's low len - 1 bits, both bit-reversed (as in
  // EliasGammaEncode) and joined into one field write; two for a codeword
  // longer than a word.
  const uint32_t zeros = FloorLog2(len);
  const uint32_t head = 2 * zeros + 1;
  const uint32_t low = len - 1;
  const uint64_t gamma = (ReverseBits(len) >> (63 - zeros)) << zeros;
  const uint64_t body = low == 0 ? 0 : ReverseBits(n) >> (64 - low);
  if (head + low <= 64) {
    writer->WriteBits(gamma | body << head, head + low);
  } else {
    writer->WriteBits(gamma, head);
    writer->WriteBits(body, low);
  }
}

uint64_t EliasDeltaDecode(BitReader* reader) {
  const uint32_t len = static_cast<uint32_t>(EliasGammaDecode(reader));
  uint64_t v = 1;
  if (len > 1) {
    v = (v << (len - 1)) | ReadBinaryMsbFirst(len - 1, reader);
  }
  return v;
}

uint32_t EliasDeltaLength(uint64_t n) {
  SBF_DCHECK(n >= 1);
  const uint32_t len = FloorLog2(n) + 1;  // floor(log2 n) + 1
  return EliasGammaLength(len) + (len - 1);
}

}  // namespace sbf
