// Forges the files older engines left in a database directory, for the
// tests that open them: a V4/V5 catalog (no CRCs, no statistics section),
// the stats.xdb side file those engines wrote their statistics to, and a V6
// catalog (the current layout, whose value indexes held RIDs).
#ifndef XDB_TESTS_LEGACY_CATALOG_H_
#define XDB_TESTS_LEGACY_CATALOG_H_

#include <fstream>
#include <map>
#include <string>

#include "common/coding.h"
#include "engine/catalog.h"

namespace xdb {

inline constexpr uint32_t kCatalogMagicV4 = 0x58444246;  // "XDBF"
inline constexpr uint32_t kCatalogMagicV5 = 0x58444247;  // "XDBG"
inline constexpr uint32_t kCatalogMagicV6 = 0x58444248;  // "XDBH"

inline bool WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return f.good();
}

/// Rewrites the catalog at `path` in the layout V4 and V5 share, under
/// `magic`: the replica base, then per collection its roots, counters, a
/// stats epoch (0 here; the current decoder reads past it), its value and
/// structural indexes; then the schemas and the dictionary. A V4 catalog's
/// structural roots name (pre, post)-keyed trees, which open ignores.
inline bool RewriteAsLegacyCatalog(const std::string& path, uint32_t magic) {
  auto loaded = LoadCatalog(path);
  if (!loaded.ok()) return false;
  const CatalogData& cat = loaded.value();
  std::string out;
  PutFixed32(&out, magic);
  PutFixed64(&out, cat.replica_wal_base);
  PutVarint64(&out, cat.collections.size());
  for (const auto& [name, meta] : cat.collections) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, meta.space_file);
    PutFixed32(&out, meta.docid_index_root);
    PutFixed32(&out, meta.nodeid_index_root);
    PutFixed32(&out, meta.versioned_index_root);
    PutFixed64(&out, meta.next_doc_id);
    PutFixed64(&out, meta.last_version);
    PutFixed64(&out, 0);  // stats epoch
    out.push_back(meta.mvcc_enabled ? 1 : 0);
    PutLengthPrefixed(&out, meta.schema_name);
    PutVarint64(&out, meta.value_indexes.size());
    for (const ValueIndexMeta& vi : meta.value_indexes) {
      PutLengthPrefixed(&out, vi.def.name);
      PutLengthPrefixed(&out, vi.def.path);
      out.push_back(static_cast<char>(vi.def.type));
      PutVarint32(&out, vi.def.max_string_len);
      PutFixed32(&out, vi.root);
    }
    PutVarint64(&out, meta.structural_indexes.size());
    for (const StructuralIndexMeta& si : meta.structural_indexes) {
      PutLengthPrefixed(&out, si.def.name);
      PutLengthPrefixed(&out, si.def.element_name);
      PutFixed32(&out, si.root);
    }
  }
  PutVarint64(&out, cat.schemas.size());
  for (const auto& [name, binary] : cat.schemas) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, binary);
  }
  PutLengthPrefixed(&out, cat.dictionary);
  return WriteBytes(path, out);
}

/// Rewrites the catalog at `path` under the V6 magic. V6 and V7 share their
/// layout; a V6 catalog's value-index roots name trees of (DocID, RID,
/// NodeID) postings, which open ignores.
inline bool RewriteAsV6Catalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < 4) return false;
  std::string magic;
  PutFixed32(&magic, kCatalogMagicV6);
  return WriteBytes(path, bytes.replace(0, 4, magic));
}

/// Writes a stats.xdb: magic "XDBS", a CRC-32 of the payload, then a count
/// and length-prefixed (collection, CollectionStats blob) pairs.
inline bool WriteLegacyStatsFile(
    const std::string& path, const std::map<std::string, std::string>& blobs) {
  std::string payload;
  PutVarint64(&payload, blobs.size());
  for (const auto& [name, blob] : blobs) {
    PutLengthPrefixed(&payload, name);
    PutLengthPrefixed(&payload, blob);
  }
  std::string out;
  PutFixed32(&out, 0x58444253);
  PutFixed32(&out, Crc32(payload.data(), payload.size()));
  return WriteBytes(path, out + payload);
}

}  // namespace xdb

#endif  // XDB_TESTS_LEGACY_CATALOG_H_
