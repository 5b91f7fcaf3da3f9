// Forges the files older engines left in a database directory, for the
// tests that open them: a V4/V5 catalog (no CRCs, no statistics section),
// the stats.xdb side file those engines wrote their statistics to, V6/V7
// catalogs (the current layout plus a DocID tree root per collection; a V6
// catalog's value indexes held RIDs), and the DocID tree itself.
#ifndef XDB_TESTS_LEGACY_CATALOG_H_
#define XDB_TESTS_LEGACY_CATALOG_H_

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/coding.h"
#include "engine/catalog.h"
#include "engine/collection.h"

namespace xdb {

inline constexpr uint32_t kCatalogMagicV4 = 0x58444246;  // "XDBF"
inline constexpr uint32_t kCatalogMagicV5 = 0x58444247;  // "XDBG"
inline constexpr uint32_t kCatalogMagicV6 = 0x58444248;  // "XDBH"
inline constexpr uint32_t kCatalogMagicV7 = 0x58444250;  // "XDBP"

/// Each collection's DocID tree root, by name. A collection without one is
/// written with kInvalidPageId, which names no tree: open reconciles
/// nothing for it.
using LegacyDocIdRoots = std::map<std::string, PageId>;

/// Builds the DocID tree older engines kept beside the NodeID index, listing
/// `docs`, in `coll`'s table space (the next checkpoint writes it out), and
/// returns its root; kInvalidPageId if it could not.
inline PageId WriteLegacyDocIdTree(Collection* coll,
                                   const std::vector<uint64_t>& docs) {
  auto tree = BTree::Create(coll->buffer_manager());
  if (!tree.ok()) return kInvalidPageId;
  for (uint64_t doc : docs) {
    std::string key;
    PutBig64(&key, doc);
    if (!tree.value()->Insert(key, Slice()).ok()) return kInvalidPageId;
  }
  return tree.value()->root();
}

inline bool WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return f.good();
}

/// The body V1-V7 catalogs share: the replica base, then per collection
/// its DocID tree root (from `roots`), its other roots, counters, a stats
/// epoch before V6 (0 here; the current decoder reads past it), its value
/// and structural indexes; then the schemas and the dictionary.
inline std::string LegacyCatalogBody(const CatalogData& cat, bool epoch,
                                     const LegacyDocIdRoots& roots) {
  std::string out;
  PutFixed64(&out, cat.replica_wal_base);
  PutVarint64(&out, cat.collections.size());
  for (const auto& [name, meta] : cat.collections) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, meta.space_file);
    const auto root = roots.find(name);
    PutFixed32(&out, root == roots.end() ? kInvalidPageId : root->second);
    PutFixed32(&out, meta.nodeid_index_root);
    PutFixed32(&out, meta.versioned_index_root);
    PutFixed64(&out, meta.next_doc_id);
    PutFixed64(&out, meta.last_version);
    if (epoch) PutFixed64(&out, 0);
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
  return out;
}

/// Rewrites the catalog at `path` in the layout V4 and V5 share, under
/// `magic`: the body alone, with a stats epoch per collection. A V4
/// catalog's structural roots name (pre, post)-keyed trees, which open
/// ignores.
inline bool RewriteAsLegacyCatalog(const std::string& path, uint32_t magic,
                                   const LegacyDocIdRoots& roots = {}) {
  auto loaded = LoadCatalog(path);
  if (!loaded.ok()) return false;
  std::string out;
  PutFixed32(&out, magic);
  return WriteBytes(path, out + LegacyCatalogBody(loaded.value(), true, roots));
}

/// Rewrites the catalog at `path` in the layout V6 and V7 share, under
/// `magic`: the current layout plus a DocID tree root per collection. A V6
/// catalog's value-index roots name trees of (DocID, RID, NodeID)
/// postings, which open ignores.
inline bool RewriteAsCrcCatalog(const std::string& path, uint32_t magic,
                                const LegacyDocIdRoots& roots = {}) {
  auto loaded = LoadCatalog(path);
  if (!loaded.ok()) return false;
  const CatalogData& cat = loaded.value();
  const std::string body = LegacyCatalogBody(cat, false, roots);
  std::string section;
  PutVarint64(&section, cat.stats.size());
  for (const auto& [name, blob] : cat.stats) {
    PutLengthPrefixed(&section, name);
    PutLengthPrefixed(&section, blob);
  }
  std::string out;
  PutFixed32(&out, magic);
  PutFixed32(&out, Crc32(body.data(), body.size()));
  PutFixed32(&out, static_cast<uint32_t>(body.size()));
  out += body;
  PutFixed32(&out, Crc32(section.data(), section.size()));
  return WriteBytes(path, out + section);
}

inline bool RewriteAsV6Catalog(const std::string& path,
                               const LegacyDocIdRoots& roots = {}) {
  return RewriteAsCrcCatalog(path, kCatalogMagicV6, roots);
}
inline bool RewriteAsV7Catalog(const std::string& path,
                               const LegacyDocIdRoots& roots = {}) {
  return RewriteAsCrcCatalog(path, kCatalogMagicV7, roots);
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
