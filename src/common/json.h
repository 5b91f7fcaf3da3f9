// JSON codec for the engine's exported snapshots (MetricsSnapshot,
// DebugSnapshot): writers that produce the canonical bytes, and one strict
// pull reader that accepts exactly what those writers can produce, give or
// take whitespace between tokens.
//
// Not a general JSON library: the only number is an unsigned 64-bit
// integer, there is no null and no generic value skip. Each decoder
// dispatches on the keys it knows and rejects every other key, so garbage
// fails with a Status instead of being half-understood.
#ifndef XDB_COMMON_JSON_H_
#define XDB_COMMON_JSON_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xdb {
namespace json {

/// Appends `s` quoted. `"`, `\` and newline get short escapes, every other
/// byte below 0x20 becomes `\u00xx`, and all remaining bytes (UTF-8
/// sequences included) are copied verbatim.
void AppendString(std::string* out, std::string_view s);
/// Appends `v` in decimal.
void AppendU64(std::string* out, uint64_t v);
/// Appends `[v0,v1,...]` with no spaces.
void AppendU64Array(std::string* out, std::span<const uint64_t> vs);

/// Strict reader over one JSON text. Every error is InvalidArgument naming
/// the byte offset. Rejected beyond plain syntax errors: bytes after the
/// document (ExpectEnd), numbers that are signed, fractional, zero-padded
/// or above UINT64_MAX, raw control bytes inside strings, and escapes other
/// than the eight JSON short escapes and \u00XX below 0x80.
class Reader {
 public:
  /// `in` must outlive the reader.
  explicit Reader(std::string_view in) : in_(in) {}

  Status ReadString(std::string* out);
  Status ReadU64(uint64_t* out);
  /// Replaces `out` with the array's elements.
  Status ReadU64Array(std::vector<uint64_t>* out);
  /// Reads `{"key": value, ...}`. `member(key)` runs with the reader at the
  /// value and must consume it, or fail.
  Status ReadObject(
      const std::function<Status(const std::string& key)>& member);
  /// Reads `[element, ...]`. `element()` runs once per element and must
  /// consume it, or fail.
  Status ReadArray(const std::function<Status()>& element);
  /// OK when nothing but whitespace is left.
  Status ExpectEnd();

  /// InvalidArgument "json: <msg> at offset <current position>".
  Status Error(const std::string& msg) const;

 private:
  void SkipWs();
  /// Skips whitespace, then consumes `c` if it comes next.
  bool Consume(char c);
  Status Expect(char c);

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace json
}  // namespace xdb

#endif  // XDB_COMMON_JSON_H_
