#include "engine/wal_record.h"

#include <iterator>

#include "common/coding.h"

namespace xdb {

namespace {

/// Each record type's payload, indexed by WalRecordType: one character
/// per field, in order, then the unframed tail, `body`. Empty for a type
/// the writer never emits.
constexpr const char* kLayouts[] = {
    "",      // 0
    "cd",    // kInsertDocument
    "cd",    // kDeleteDocument
    "cdn",   // kUpdateNode
    "",      // kCommit
    "",      // kAbort
    "",      // kCheckpoint
    "cdna",  // kInsertSubtree
    "cdN",   // kDeleteSubtree
    "#",     // kDefineName
    "cms",   // kCreateCollection
    "c",     // kDropCollection
    "cipt",  // kCreateValueIndex
    "ci",    // kDropValueIndex
    "s",     // kRegisterSchema
    "cip",   // kCreateStructuralIndex
    "ci",    // kDropStructuralIndex
};
const char* Layout(WalRecordType type) {
  const size_t t = static_cast<size_t>(type);
  return t < std::size(kLayouts) ? kLayouts[t] : "";
}

/// A layout character's field: its name, and for a varint-length-prefixed
/// field, its member. The others are d (fixed 64-bit), # (fixed 32-bit),
/// m (one byte), t (the type byte, then the fixed 32-bit bound), and N
/// (node_id as the unframed tail, in place of `body`).
struct Field {
  char code;
  const char* name;
  Slice WalRecord::*prefixed;
};
constexpr Field kFields[] = {
    {'c', "collection", &WalRecord::collection},
    {'i', "index name", &WalRecord::index_name},
    {'p', "index path", &WalRecord::index_path},
    {'s', "schema", &WalRecord::schema},
    {'n', "node id", &WalRecord::node_id},
    {'a', "after-sibling id", &WalRecord::after_id},
    {'d', "doc id", nullptr},
    {'#', "name id", nullptr},
    {'m', "mvcc flag", nullptr},
    {'t', "value type", nullptr},
    {'N', "node id", nullptr},
};
const Field& FieldOf(char code) {
  for (const Field& f : kFields)
    if (f.code == code) return f;
  return kFields[0];
}

/// Consumes the next `n` bytes of `in` into *p; false when fewer remain.
bool Take(Slice* in, size_t n, const char** p) {
  if (in->size() < n) return false;
  *p = in->data();
  in->RemovePrefix(n);
  return true;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& rec) {
  std::string out;
  for (const char* f = Layout(rec.type); *f != 0; f++) {
    switch (*f) {
      case 'd':
        PutFixed64(&out, rec.doc_id);
        break;
      case '#':
        PutFixed32(&out, rec.name_id);
        break;
      case 'm':
        out.push_back(rec.mvcc ? 1 : 0);
        break;
      case 't':
        out.push_back(static_cast<char>(rec.value_type));
        PutFixed32(&out, rec.max_string_len);
        break;
      case 'N':
        out.append(rec.node_id.data(), rec.node_id.size());
        break;
      default:
        PutLengthPrefixed(&out, rec.*FieldOf(*f).prefixed);
    }
  }
  out.append(rec.body.data(), rec.body.size());
  return out;
}

Result<WalRecord> DecodeWalRecord(WalRecordType type, Slice payload) {
  const char* layout = Layout(type);
  if (*layout == 0)
    return Status::Corruption("a record type the writer never emits");
  WalRecord rec;
  rec.type = type;
  for (const char* f = layout; *f != 0; f++) {
    const char* p = nullptr;
    bool ok = true;
    switch (*f) {
      case 'd':
        ok = Take(&payload, 8, &p);
        if (ok) rec.doc_id = DecodeFixed64(p);
        break;
      case '#':
        ok = Take(&payload, 4, &p);
        if (ok) rec.name_id = DecodeFixed32(p);
        break;
      case 'm':
        ok = Take(&payload, 1, &p);
        if (ok) rec.mvcc = *p != 0;
        break;
      case 't':
        ok = Take(&payload, 5, &p) && IsValueType(static_cast<uint8_t>(*p));
        if (ok) {
          rec.value_type = static_cast<ValueType>(*p);
          rec.max_string_len = DecodeFixed32(p + 1);
        }
        break;
      case 'N':
        rec.node_id = payload;
        payload = Slice();
        break;
      default:
        ok = GetLengthPrefixed(&payload, &(rec.*FieldOf(*f).prefixed));
    }
    if (!ok) return Status::Corruption(std::string("bad ") + FieldOf(*f).name);
  }
  rec.body = payload;
  return rec;
}

}  // namespace xdb
