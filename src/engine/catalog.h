// Catalog: persistent metadata — collections, index roots, registered
// (compiled) schemas, and the database-wide name dictionary. The paper's
// "catalog and directory" infrastructure component, reused with XML
// additions (schema binaries, XPath index definitions).
#ifndef XDB_ENGINE_CATALOG_H_
#define XDB_ENGINE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/structural_index.h"
#include "index/value_index.h"
#include "storage/page.h"

namespace xdb {

struct ValueIndexMeta {
  ValueIndexDef def;
  PageId root = kInvalidPageId;
};

struct StructuralIndexMeta {
  StructuralIndexDef def;
  PageId root = kInvalidPageId;
};

struct CollectionMeta {
  std::string name;
  std::string space_file;  // file name within the engine directory
  PageId nodeid_index_root = kInvalidPageId;
  PageId versioned_index_root = kInvalidPageId;  // MVCC collections only
  /// A V1-V7 catalog's DocID tree, which open reconciles the NodeID index
  /// with once (Collection::ReconcileLegacyDocList); never written.
  PageId legacy_docid_root = kInvalidPageId;
  std::vector<ValueIndexMeta> value_indexes;
  std::vector<StructuralIndexMeta> structural_indexes;
  uint64_t next_doc_id = 1;
  uint64_t last_version = 0;  // persisted MVCC version counter
  bool mvcc_enabled = false;
  std::string schema_name;  // validate-on-insert when non-empty
};

struct CatalogData {
  std::map<std::string, CollectionMeta> collections;
  std::map<std::string, std::string> schemas;  // name -> compiled binary
  std::string dictionary;                      // serialized NameDictionary
  /// Replica only: the replication-stream CSN at byte 0 of the replica's
  /// local WAL. The replica's applied position is always this base plus the
  /// intact bytes in its local WAL, which makes crash accounting exact: the
  /// base changes only when the WAL resets (checkpoint), and the checkpoint
  /// saves the catalog on both sides of the reset, so every crash window
  /// yields either the correct position or an undercount (safe: the replica
  /// re-requests bytes it already has and re-applies them idempotently),
  /// never an overcount that would skip real segments. Stored in the catalog
  /// (not a side file) so base and checkpointed image commit atomically via
  /// the catalog's temp+rename. Zero (and ignored) on a primary.
  uint64_t replica_wal_base = 0;
  /// Statistics section: collection name -> CollectionStats blob
  /// (query/stats.h), committed by the same atomic write as the roots the
  /// statistics describe. A collection without a blob re-derives its
  /// statistics from its stored data at open; `stats_status` says why a
  /// loaded catalog has none (NotFound: the catalog predates the section,
  /// or is a V6 one whose value indexes must be refilled; Corruption: the
  /// section failed its CRC).
  std::map<std::string, std::string> stats;
  Status stats_status;

  /// V8 layout (V7's, without a DocID tree root per collection): magic,
  /// CRC-32 of the body, body length, the body, then the statistics section
  /// (its own CRC-32, then length-prefixed name/blob pairs). A body that
  /// fails its CRC is Corruption; a damaged statistics section only empties
  /// `stats`.
  void Serialize(std::string* out) const;
  static Result<CatalogData> Deserialize(Slice data);
};

/// Saves atomically and durably: writes a temp file, fsyncs it, renames it
/// over `path` and fsyncs the directory, so a caller may drop the WAL the
/// catalog supersedes once this returns.
Status SaveCatalog(const CatalogData& data, const std::string& path);
Result<CatalogData> LoadCatalog(const std::string& path);

}  // namespace xdb

#endif  // XDB_ENGINE_CATALOG_H_
