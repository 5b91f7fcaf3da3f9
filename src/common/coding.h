// Integer and string wire encodings shared by the token stream, packed XML
// records, index keys, and the WAL: fixed-width big/little-endian and LEB128
// varints, plus order-preserving encodings for index key components.
#ifndef XDB_COMMON_CODING_H_
#define XDB_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace xdb {

// --- fixed-width little-endian (storage-internal structures) ---

void PutFixed16(std::string* dst, uint16_t v);
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
void EncodeFixed16(char* dst, uint16_t v);
void EncodeFixed32(char* dst, uint32_t v);
void EncodeFixed64(char* dst, uint64_t v);
uint16_t DecodeFixed16(const char* p);
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

// --- big-endian (byte-comparable key components) ---

void PutBig32(std::string* dst, uint32_t v);
void PutBig64(std::string* dst, uint64_t v);
uint32_t DecodeBig32(const char* p);
uint64_t DecodeBig64(const char* p);

// --- LEB128 varints (token stream, packed records) ---

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);
/// Returns bytes consumed, or 0 on malformed input.
size_t GetVarint32(const char* p, const char* limit, uint32_t* v);
size_t GetVarint64(const char* p, const char* limit, uint64_t* v);
size_t VarintLength(uint64_t v);

/// Length-prefixed string.
void PutLengthPrefixed(std::string* dst, Slice s);
/// Advances *input past the string on success.
bool GetLengthPrefixed(Slice* input, Slice* out);

/// Order-preserving encoding of an IEEE double: byte comparison of the output
/// matches numeric comparison of the input (NaN sorts last).
void PutOrderedDouble(std::string* dst, double v);
double DecodeOrderedDouble(const char* p);

/// CRC-32 (reflected polynomial 0xEDB88320) over `n` bytes — shared by page
/// checksums, WAL records, shipped segments and the catalog. On x86-64
/// hosts with PCLMULQDQ and SSE4.1 runs of 64 bytes or more are folded with
/// carry-less multiplies; elsewhere, and for the tail, it is computed
/// slicing-by-8. Both give the values of the byte-at-a-time definition.
uint32_t Crc32(const char* data, size_t n);

/// Continues `crc` (a Crc32 result) over `n` more bytes:
/// Crc32Extend(Crc32(a), b) == Crc32(a followed by b).
uint32_t Crc32Extend(uint32_t crc, const char* data, size_t n);

namespace internal {
/// Crc32Extend on the slicing-by-8 tables alone (the path of hosts without
/// carry-less multiply), and whether Crc32Extend folds on this host; for
/// tests.
uint32_t Crc32ExtendTables(uint32_t crc, const char* data, size_t n);
bool Crc32Folds();
}  // namespace internal

}  // namespace xdb

#endif  // XDB_COMMON_CODING_H_
