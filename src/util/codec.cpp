#include "util/codec.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"

namespace spbc::util::codec {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr uint32_t kHashBits = 13;

uint32_t hash4(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  // Fibonacci hashing of the 4-byte prefix; the single-entry table makes the
  // match finder O(n) and fully deterministic.
  return (v * 2654435761u) >> (32 - kHashBits);
}

unsigned char* put_len(unsigned char* op, size_t extra) {
  // 255-coded continuation of a nibble that saturated at 15.
  while (extra >= 255) {
    *op++ = 255;
    extra -= 255;
  }
  *op++ = static_cast<unsigned char>(extra);
  return op;
}

unsigned char* emit(unsigned char* op, const unsigned char* lit, size_t nlit,
                    size_t match_len, size_t offset) {
  const size_t lit_nib = nlit < 15 ? nlit : 15;
  const size_t match_nib =
      match_len == 0 ? 0 : (match_len - kMinMatch < 15 ? match_len - kMinMatch : 15);
  *op++ = static_cast<unsigned char>((lit_nib << 4) | match_nib);
  if (lit_nib == 15) op = put_len(op, nlit - 15);
  std::memcpy(op, lit, nlit);
  op += nlit;
  if (match_len == 0) return op;  // final literal-only token
  *op++ = static_cast<unsigned char>(offset & 0xff);
  *op++ = static_cast<unsigned char>((offset >> 8) & 0xff);
  if (match_nib == 15) op = put_len(op, match_len - kMinMatch - 15);
  return op;
}

// Length of the common prefix of a[0..limit) and b[0..limit), compared eight
// bytes at a time: the first differing byte is the lowest set byte of the
// XOR in memory order.
size_t common_prefix(const unsigned char* a, const unsigned char* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y) {
      if constexpr (std::endian::native == std::endian::little)
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      else
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::vector<unsigned char> lz_compress(const unsigned char* data, size_t n) {
  if (n == 0) return {};
  // Tokens go through a raw pointer into per-thread scratch of worst-case
  // size (all literals: one token per call plus one 255-coded length byte per
  // 255 literals); the blob is then copied out at its exact size. Per-thread
  // because stores encode concurrently on threaded engine shards.
  const size_t cap = n + n / 255 + 16;
  thread_local std::vector<unsigned char> scratch;
  if (scratch.size() < cap) scratch.resize(cap);
  unsigned char* const base = scratch.data();
  unsigned char* op = base;
  uint32_t table[1u << kHashBits];
  std::memset(table, 0xff, sizeof(table));  // 0xffffffff = empty slot
  size_t lit_start = 0;
  size_t pos = 0;
  // The last kMinMatch-1 bytes can never start a match (hash4 reads 4 bytes
  // and a match must not run past the end without being clamped below).
  const size_t match_limit = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  while (pos < match_limit) {
    const uint32_t h = hash4(data + pos);
    const uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (cand == 0xffffffffu || pos - cand > kMaxOffset ||
        std::memcmp(data + cand, data + pos, kMinMatch) != 0) {
      ++pos;
      continue;
    }
    const size_t len =
        kMinMatch + common_prefix(data + cand + kMinMatch, data + pos + kMinMatch,
                                  n - pos - kMinMatch);
    op = emit(op, data + lit_start, pos - lit_start, len, pos - cand);
    pos += len;
    lit_start = pos;
  }
  if (lit_start < n) op = emit(op, data + lit_start, n - lit_start, 0, 0);
  SPBC_ASSERT_MSG(static_cast<size_t>(op - base) <= cap,
                  "codec: encoder overran its worst-case bound");
  return std::vector<unsigned char>(base, op);
}

void lz_decompress(const unsigned char* enc, size_t n, unsigned char* out,
                   size_t out_n) {
  size_t ip = 0;
  size_t op = 0;
  while (ip < n) {
    const unsigned char token = enc[ip++];
    size_t nlit = token >> 4;
    if (nlit == 15) {
      unsigned char c;
      do {
        SPBC_ASSERT_MSG(ip < n, "codec: truncated literal length");
        c = enc[ip++];
        nlit += c;
      } while (c == 255);
    }
    SPBC_ASSERT_MSG(ip + nlit <= n && op + nlit <= out_n,
                    "codec: literal run overruns the stream");
    std::memcpy(out + op, enc + ip, nlit);
    ip += nlit;
    op += nlit;
    if ((token & 0x0f) == 0 && ip == n) break;  // final literal-only token
    SPBC_ASSERT_MSG(ip + 2 <= n, "codec: truncated match offset");
    const size_t offset = static_cast<size_t>(enc[ip]) |
                          (static_cast<size_t>(enc[ip + 1]) << 8);
    ip += 2;
    size_t mlen = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15) {
      unsigned char c;
      do {
        SPBC_ASSERT_MSG(ip < n, "codec: truncated match length");
        c = enc[ip++];
        mlen += c;
      } while (c == 255);
    }
    SPBC_ASSERT_MSG(offset >= 1 && offset <= op && op + mlen <= out_n,
                    "codec: match overruns the output");
    // Matches may self-overlap (offset < mlen encodes a run). Offset 1 is a
    // byte run. From offset 8 on, each 8-byte word's source lies wholly in
    // already-written output, so whole words are copied; the last may spill
    // up to 7 bytes past the match into output the next token overwrites, so
    // a match ending within 8 bytes of the output's end goes byte by byte, as
    // do offsets 2..7.
    unsigned char* dst = out + op;
    const unsigned char* src = dst - offset;
    op += mlen;
    if (offset == 1) {
      std::memset(dst, *src, mlen);
    } else if (offset >= 8 && op + 8 <= out_n) {
      for (size_t i = 0; i < mlen; i += 8) std::memcpy(dst + i, src + i, 8);
    } else {
      for (size_t i = 0; i < mlen; ++i) dst[i] = src[i];
    }
  }
  SPBC_ASSERT_MSG(op == out_n, "codec: decoded size mismatch");
}

std::vector<unsigned char> lz_decompress(const std::vector<unsigned char>& enc,
                                         size_t out_n) {
  std::vector<unsigned char> out(out_n);
  lz_decompress(enc.data(), enc.size(), out.data(), out_n);
  return out;
}

}  // namespace spbc::util::codec
