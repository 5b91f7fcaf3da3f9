#include "engine/catalog.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "common/coding.h"

namespace xdb {

namespace {
constexpr uint32_t kCatalogMagic = 0x58444243;    // "XDBC" (v1, no stats)
constexpr uint32_t kCatalogMagicV2 = 0x58444244;  // "XDBD" (adds stats_epoch)
constexpr uint32_t kCatalogMagicV3 = 0x58444245;  // "XDBE" (replica CSN)
constexpr uint32_t kCatalogMagicV4 = 0x58444246;  // "XDBF" (structural ix)
constexpr uint32_t kCatalogMagicV5 = 0x58444247;  // "XDBG" (node-ID keys)
constexpr uint32_t kCatalogMagicV6 = 0x58444248;  // "XDBH" (CRCs, stats)
// "XDBP" (postings without RIDs) and "XDBY" (no DocID tree root): each 2+
// bits from every magic before it, so no one-bit flip of the current magic
// opens as an older catalog.
constexpr uint32_t kCatalogMagicV7 = 0x58444250;
constexpr uint32_t kCatalogMagicV8 = 0x58444259;

void PutString(std::string* out, const std::string& s) {
  PutLengthPrefixed(out, s);
}
bool GetString(Slice* in, std::string* s) {
  Slice v;
  if (!GetLengthPrefixed(in, &v)) return false;
  *s = v.ToString();
  return true;
}

/// The statistics section after a V6 body: its CRC-32, then a count and
/// length-prefixed (collection, blob) pairs.
Status ParseStatsSection(Slice data, std::map<std::string, std::string>* out) {
  if (data.size() < 4) return Status::Corruption("truncated catalog stats");
  const uint32_t crc = DecodeFixed32(data.data());
  data.RemovePrefix(4);
  if (Crc32(data.data(), data.size()) != crc)
    return Status::Corruption("catalog stats checksum mismatch");
  uint64_t n;
  size_t vn = GetVarint64(data.data(), data.data() + data.size(), &n);
  if (vn == 0) return Status::Corruption("bad catalog stats count");
  data.RemovePrefix(vn);
  for (uint64_t i = 0; i < n; i++) {
    Slice name, blob;
    if (!GetLengthPrefixed(&data, &name) || !GetLengthPrefixed(&data, &blob))
      return Status::Corruption("truncated catalog stats entry");
    out->emplace(name.ToString(), blob.ToString());
  }
  return Status::OK();
}

Status SyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Status::IOError("cannot open " + path);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok ? Status::OK() : Status::IOError("fsync failed: " + path);
}
}  // namespace

void CatalogData::Serialize(std::string* out) const {
  std::string body;
  PutFixed64(&body, replica_wal_base);
  PutVarint64(&body, collections.size());
  for (const auto& [name, meta] : collections) {
    PutString(&body, name);
    PutString(&body, meta.space_file);
    PutFixed32(&body, meta.nodeid_index_root);
    PutFixed32(&body, meta.versioned_index_root);
    PutFixed64(&body, meta.next_doc_id);
    PutFixed64(&body, meta.last_version);
    body.push_back(meta.mvcc_enabled ? 1 : 0);
    PutString(&body, meta.schema_name);
    PutVarint64(&body, meta.value_indexes.size());
    for (const auto& vi : meta.value_indexes) {
      PutString(&body, vi.def.name);
      PutString(&body, vi.def.path);
      body.push_back(static_cast<char>(vi.def.type));
      PutVarint32(&body, vi.def.max_string_len);
      PutFixed32(&body, vi.root);
    }
    PutVarint64(&body, meta.structural_indexes.size());
    for (const auto& si : meta.structural_indexes) {
      PutString(&body, si.def.name);
      PutString(&body, si.def.element_name);
      PutFixed32(&body, si.root);
    }
  }
  PutVarint64(&body, schemas.size());
  for (const auto& [name, binary] : schemas) {
    PutString(&body, name);
    PutString(&body, binary);
  }
  PutString(&body, dictionary);

  std::string section;
  PutVarint64(&section, stats.size());
  for (const auto& [name, blob] : stats) {
    PutLengthPrefixed(&section, name);
    PutLengthPrefixed(&section, blob);
  }
  PutFixed32(out, kCatalogMagicV8);
  PutFixed32(out, Crc32(body.data(), body.size()));
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  out->append(body);
  PutFixed32(out, Crc32(section.data(), section.size()));
  out->append(section);
}

Result<CatalogData> CatalogData::Deserialize(Slice data) {
  CatalogData cat;
  if (data.size() < 4) return Status::Corruption("bad catalog magic");
  const uint32_t magic = DecodeFixed32(data.data());
  data.RemovePrefix(4);
  // V1-V7 catalogs still load. V1-V5 carry no statistics, so every
  // collection re-derives its own at open; their stats_epoch (V2-V5) is
  // read past. A V1-V7 DocID tree root is kept for the one reconcile at
  // open, after which its pages stay unreferenced. A V1-V6 value index holds (DocID, NodeID, RID) postings: its root is
  // dropped (its pages stay unreferenced, as after a drop), the index opens
  // empty, and the statistics are re-derived, which refills it.
  const bool v8 = magic == kCatalogMagicV8;
  const bool v7 = v8 || magic == kCatalogMagicV7;
  const bool v6 = v7 || magic == kCatalogMagicV6;
  const bool v5 = v6 || magic == kCatalogMagicV5;
  const bool v4 = v5 || magic == kCatalogMagicV4;
  const bool v3 = v4 || magic == kCatalogMagicV3;
  const bool v2 = v3 || magic == kCatalogMagicV2;
  if (!v2 && magic != kCatalogMagic)
    return Status::Corruption("bad catalog magic");
  Slice stats_section;
  if (v6) {
    if (data.size() < 8) return Status::Corruption("truncated catalog header");
    const uint32_t crc = DecodeFixed32(data.data());
    const uint32_t len = DecodeFixed32(data.data() + 4);
    data.RemovePrefix(8);
    if (data.size() < len) return Status::Corruption("truncated catalog");
    if (Crc32(data.data(), len) != crc)
      return Status::Corruption("catalog checksum mismatch");
    stats_section = Slice(data.data() + len, data.size() - len);
    data = Slice(data.data(), len);
  }
  if (v3) {
    if (data.size() < 8) return Status::Corruption("truncated catalog header");
    cat.replica_wal_base = DecodeFixed64(data.data());
    data.RemovePrefix(8);
  }
  auto read_var = [&](uint64_t* v) -> bool {
    size_t n = GetVarint64(data.data(), data.data() + data.size(), v);
    if (n == 0) return false;
    data.RemovePrefix(n);
    return true;
  };
  uint64_t ncoll;
  if (!read_var(&ncoll)) return Status::Corruption("bad collection count");
  for (uint64_t i = 0; i < ncoll; i++) {
    std::string name;
    CollectionMeta meta;
    if (!GetString(&data, &name) || !GetString(&data, &meta.space_file))
      return Status::Corruption("bad collection meta");
    const size_t docid_root_bytes = v8 ? 0 : 4;
    const size_t epoch_bytes = v2 && !v6 ? 8 : 0;
    const size_t fixed = docid_root_bytes + 4 * 2 + 8 * 2 + epoch_bytes + 1;
    if (data.size() < fixed)
      return Status::Corruption("truncated collection meta");
    meta.name = name;
    if (!v8) meta.legacy_docid_root = DecodeFixed32(data.data());
    const char* p = data.data() + docid_root_bytes;
    meta.nodeid_index_root = DecodeFixed32(p);
    meta.versioned_index_root = DecodeFixed32(p + 4);
    meta.next_doc_id = DecodeFixed64(p + 8);
    meta.last_version = DecodeFixed64(p + 16);
    meta.mvcc_enabled = data[fixed - 1] != 0;
    data.RemovePrefix(fixed);
    if (!GetString(&data, &meta.schema_name))
      return Status::Corruption("bad collection schema name");
    uint64_t nvi;
    if (!read_var(&nvi)) return Status::Corruption("bad index count");
    for (uint64_t k = 0; k < nvi; k++) {
      ValueIndexMeta vi;
      if (!GetString(&data, &vi.def.name) || !GetString(&data, &vi.def.path))
        return Status::Corruption("bad index meta");
      if (data.empty()) return Status::Corruption("truncated index meta");
      if (!IsValueType(static_cast<uint8_t>(data[0])))
        return Status::Corruption("bad index value type");
      vi.def.type = static_cast<ValueType>(data[0]);
      data.RemovePrefix(1);
      uint32_t maxlen;
      size_t n = GetVarint32(data.data(), data.data() + data.size(), &maxlen);
      if (n == 0) return Status::Corruption("bad index meta");
      data.RemovePrefix(n);
      vi.def.max_string_len = maxlen;
      if (data.size() < 4) return Status::Corruption("truncated index meta");
      vi.root = v7 ? DecodeFixed32(data.data()) : kInvalidPageId;
      data.RemovePrefix(4);
      meta.value_indexes.push_back(std::move(vi));
    }
    if (v4) {
      // Pre-v4 catalogs have no structural section; they load with none.
      uint64_t nsi;
      if (!read_var(&nsi))
        return Status::Corruption("bad structural index count");
      for (uint64_t k = 0; k < nsi; k++) {
        StructuralIndexMeta si;
        if (!GetString(&data, &si.def.name) ||
            !GetString(&data, &si.def.element_name))
          return Status::Corruption("bad structural index meta");
        if (data.size() < 4)
          return Status::Corruption("truncated structural index meta");
        // A V4 tree's entries are (pre, post)-keyed: drop its root (its pages
        // stay unreferenced, as after a drop); the index opens empty and the
        // re-derivation of the collection's statistics fills it.
        si.root = v5 ? DecodeFixed32(data.data()) : kInvalidPageId;
        data.RemovePrefix(4);
        meta.structural_indexes.push_back(std::move(si));
      }
    }
    cat.collections.emplace(name, std::move(meta));
  }
  uint64_t nschema;
  if (!read_var(&nschema)) return Status::Corruption("bad schema count");
  for (uint64_t i = 0; i < nschema; i++) {
    std::string name, binary;
    if (!GetString(&data, &name) || !GetString(&data, &binary))
      return Status::Corruption("bad schema entry");
    cat.schemas.emplace(std::move(name), std::move(binary));
  }
  if (!GetString(&data, &cat.dictionary))
    return Status::Corruption("bad dictionary");
  if (!v6) {
    cat.stats_status =
        Status::NotFound("catalog predates its statistics section");
  } else if (!data.empty()) {
    return Status::Corruption("trailing bytes in catalog body");
  } else {
    cat.stats_status = ParseStatsSection(stats_section, &cat.stats);
    if (cat.stats_status.ok() && !v7)
      cat.stats_status = Status::NotFound("catalog predates RID-free postings");
    if (!cat.stats_status.ok()) cat.stats.clear();
  }
  return cat;
}

Status SaveCatalog(const CatalogData& data, const std::string& path) {
  std::string bytes;
  data.Serialize(&bytes);
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IOError("short catalog write");
  }
  // The temp file's bytes reach the medium before the rename makes them the
  // catalog, and the rename itself before the caller truncates the WAL.
  XDB_RETURN_NOT_OK(SyncPath(tmp, O_RDONLY));
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::IOError("cannot rename catalog into place");
  const size_t slash = path.find_last_of('/');
  return SyncPath(slash == std::string::npos ? "." : path.substr(0, slash),
                  O_RDONLY | O_DIRECTORY);
}

Result<CatalogData> LoadCatalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no catalog at " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return CatalogData::Deserialize(bytes);
}

}  // namespace xdb
