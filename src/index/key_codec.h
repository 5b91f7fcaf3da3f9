// Order-preserving typed key encodings for XPath value indexes.
//
// Section 3.3: "A few simple types supported, such as double, string, and
// date. Key values are converted from the string values of the nodes"; and
// Section 4.3: "we use decimal floating-point number based on the new IEEE
// 754r for numeric value indexing, which provides precise values within its
// range."
#ifndef XDB_INDEX_KEY_CODEC_H_
#define XDB_INDEX_KEY_CODEC_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace xdb {

enum class ValueType : uint8_t {
  kString = 1,   // VARCHAR(n)-equivalent
  kDouble = 2,
  kDecimal = 3,  // IEEE-754r-style exact decimal
  kDate = 4,     // xs:date, day precision
};

/// True for a ValueType enumerator. A stored or logged type byte outside
/// them would build an index that rejects every key.
inline bool IsValueType(uint8_t t) {
  return t >= static_cast<uint8_t>(ValueType::kString) &&
         t <= static_cast<uint8_t>(ValueType::kDate);
}

const char* ValueTypeName(ValueType t);
Result<ValueType> ValueTypeFromName(Slice name);

/// Converts a node's string value into a byte-comparable key of the given
/// type, appended to `out`. Fails with kInvalidArgument when the value is
/// not castable (the caller skips such nodes — no index entry is created).
Status EncodeTypedKey(ValueType type, Slice value, uint32_t max_string_len,
                      std::string* out);

/// Parses "[-]YYYY-MM-DD" into days since 1970-01-01 (proleptic Gregorian).
Result<int64_t> ParseDateDays(Slice s);

// A node's address, [doc_id big64][node id bytes]: the NodeID index's key
// and a value index entry's posting, so both sort by (DocID, NodeID).
void EncodeNodeIdKey(uint64_t doc_id, Slice node_id, std::string* out);
Status DecodeNodeIdKey(Slice key, uint64_t* doc_id, Slice* node_id);

}  // namespace xdb

#endif  // XDB_INDEX_KEY_CODEC_H_
