#include "common/coding.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define XDB_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace xdb {

void EncodeFixed16(char* dst, uint16_t v) { std::memcpy(dst, &v, 2); }
void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  dst->append(buf, 2);
}
void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PutBig32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v >> 24);
  buf[1] = static_cast<char>(v >> 16);
  buf[2] = static_cast<char>(v >> 8);
  buf[3] = static_cast<char>(v);
  dst->append(buf, 4);
}

void PutBig64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; i++) buf[i] = static_cast<char>(v >> (56 - 8 * i));
  dst->append(buf, 8);
}

uint32_t DecodeBig32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<uint32_t>(u[0]) << 24) |
         (static_cast<uint32_t>(u[1]) << 16) |
         (static_cast<uint32_t>(u[2]) << 8) | static_cast<uint32_t>(u[3]);
}

uint64_t DecodeBig64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) v = (v << 8) | u[i];
  return v;
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

size_t GetVarint64(const char* p, const char* limit, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  const char* q = p;
  while (q < limit && shift <= 63) {
    uint64_t byte = static_cast<unsigned char>(*q++);
    result |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return static_cast<size_t>(q - p);
    }
    shift += 7;
  }
  return 0;
}

size_t GetVarint32(const char* p, const char* limit, uint32_t* v) {
  uint64_t v64;
  size_t n = GetVarint64(p, limit, &v64);
  if (n == 0 || v64 > UINT32_MAX) return 0;
  *v = static_cast<uint32_t>(v64);
  return n;
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

void PutLengthPrefixed(std::string* dst, Slice s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

bool GetLengthPrefixed(Slice* input, Slice* out) {
  uint64_t len;
  size_t n = GetVarint64(input->data(), input->data() + input->size(), &len);
  // Compared without adding: a damaged length near 2^64 must not wrap.
  if (n == 0 || len > input->size() - n) return false;
  *out = Slice(input->data() + n, static_cast<size_t>(len));
  input->RemovePrefix(n + static_cast<size_t>(len));
  return true;
}

void PutOrderedDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  // Flip: positive numbers get the sign bit set; negatives are bitwise
  // complemented, so the full encoding sorts in numeric order.
  if (bits & 0x8000000000000000ULL) {
    bits = ~bits;
  } else {
    bits |= 0x8000000000000000ULL;
  }
  PutBig64(dst, bits);
}

double DecodeOrderedDouble(const char* p) {
  uint64_t bits = DecodeBig64(p);
  if (bits & 0x8000000000000000ULL) {
    bits &= ~0x8000000000000000ULL;
  } else {
    bits = ~bits;
  }
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

namespace {
// Slicing-by-8 (Kounavis & Berry): kCrcTables[0] is the classic byte-wise
// table for the reflected polynomial; kCrcTables[k][b] is the CRC state
// after feeding byte b followed by k zero bytes, so one step folds eight
// input bytes with eight independent lookups. Same polynomial, same
// values as the byte-at-a-time loop.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; k++)
    for (uint32_t i = 0; i < 256; i++)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}
constexpr CrcTables kCrcTables = MakeCrcTables();

// The 8-byte step loads its input with the native-endian DecodeFixed32,
// which must yield the little-endian value the reflected CRC consumes.
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 Crc32 and DecodeFixed32 assume little-endian");

// Both paths below take and return the raw CRC state (pre- and
// post-inversion are Crc32Extend's).
uint32_t TableCrc(uint32_t c, const char* p, size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = DecodeFixed32(p) ^ c;
    const uint32_t hi = DecodeFixed32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; p++, n--)
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef XDB_CRC32_FOLD
// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// constants for the reflected polynomial that Linux's crc32-pclmul uses:
// four 128-bit lanes each move 512 bits forward per 64 input bytes (k1,
// k2), fold into one lane that moves 128 bits per 16 bytes (k3, k4), then
// shrink 128 -> 64 -> 32 bits (k4, k5) and end in a Barrett reduction (P',
// mu). Only these functions are built for pclmul and sse4.1, so the rest
// of the program keeps the build's baseline instruction set.
#define XDB_CLMUL __attribute__((target("pclmul,sse4.1")))

XDB_CLMUL inline __m128i Load128(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi: the lane moved `k`'s distance forward.
XDB_CLMUL inline __m128i Fold128(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// `n` is a multiple of 16 and at least 64.
XDB_CLMUL uint32_t FoldCrc(uint32_t c, const char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold128(x0, k1k2), Load128(p));
    x1 = _mm_xor_si128(Fold128(x1, k1k2), Load128(p + 16));
    x2 = _mm_xor_si128(Fold128(x2, k1k2), Load128(p + 32));
    x3 = _mm_xor_si128(Fold128(x3, k1k2), Load128(p + 48));
  }
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x1);
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x2);
  x0 = _mm_xor_si128(Fold128(x0, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16)
    x0 = _mm_xor_si128(Fold128(x0, k3k4), Load128(p));

  // 128 -> 64 bits (x.lo * k4), then 64 -> 32 (the low word * k5).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: T1 = (x mod x^32) * mu, T2 = (T1 mod x^32) * P'; the CRC is
  // the second word of x ^ T2.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}
#endif
}  // namespace

namespace internal {
uint32_t Crc32ExtendTables(uint32_t crc, const char* data, size_t n) {
  return TableCrc(crc ^ 0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

bool Crc32Folds() {
#ifdef XDB_CRC32_FOLD
  static const bool folds = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return folds;
#else
  return false;
#endif
}
}  // namespace internal

uint32_t Crc32(const char* data, size_t n) { return Crc32Extend(0, data, n); }

uint32_t Crc32Extend(uint32_t crc, const char* data, size_t n) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
#ifdef XDB_CRC32_FOLD
  if (n >= 64 && internal::Crc32Folds()) {
    const size_t m = n & ~size_t{15};
    c = FoldCrc(c, data, m);
    data += m;
    n -= m;
  }
#endif
  return TableCrc(c, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace xdb
