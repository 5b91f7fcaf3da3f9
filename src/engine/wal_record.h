// WalRecord: the payload of every WAL record type, encoded and decoded in
// one place. A client write encodes its record here before the engine
// appends it; replay, replica apply and scrub decode it here before the
// engine applies it. The byte formats are fixed: a log written by an older
// build replays unchanged (WalRecordTest.EncodedBytesArePinned).
#ifndef XDB_ENGINE_WAL_RECORD_H_
#define XDB_ENGINE_WAL_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "index/key_codec.h"
#include "storage/wal_log.h"
#include "xml/name_dictionary.h"

namespace xdb {

/// Every field of one record. A type uses the fields its layout in
/// wal_record.cc lists and leaves the rest default; a decoded record's
/// slices point into the payload it was decoded from.
struct WalRecord {
  WalRecordType type = WalRecordType::kInsertDocument;
  Slice collection = {};  // named by a write, an index or collection DDL
  uint64_t doc_id = 0;
  /// The updated text node, the inserted subtree's parent, or the deleted
  /// subtree's root.
  Slice node_id = {};
  Slice after_id = {};  // the sibling an inserted subtree follows ("": none)
  /// The unframed tail: an insert's tokens, the new text, a compiled
  /// schema, or kDefineName's name (interned at `name_id`).
  Slice body = {};
  NameId name_id = 0;
  bool mvcc = false;  // kCreateCollection's options, and `schema` is also
  Slice schema = {};  // the one kRegisterSchema registers
  Slice index_name = {};
  /// A value index's path, key type and string-key bound, or a structural
  /// index's element name (in `index_path`).
  Slice index_path = {};
  ValueType value_type = ValueType::kString;
  uint32_t max_string_len = 0;
};

/// The payload of `rec` in its type's format.
std::string EncodeWalRecord(const WalRecord& rec);

/// Decodes a payload of `type`. Corruption, saying which field, when a
/// field does not decode or `type` is one the writer never emits (kCommit,
/// kAbort, kCheckpoint, or none at all).
Result<WalRecord> DecodeWalRecord(WalRecordType type, Slice payload);

}  // namespace xdb

#endif  // XDB_ENGINE_WAL_RECORD_H_
