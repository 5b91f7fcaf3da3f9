#include "engine/catalog.h"

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

void PutString(std::string* out, const std::string& s) {
  PutLengthPrefixed(out, s);
}
bool GetString(Slice* in, std::string* s) {
  Slice v;
  if (!GetLengthPrefixed(in, &v)) return false;
  *s = v.ToString();
  return true;
}
}  // namespace

void CatalogData::Serialize(std::string* out) const {
  PutFixed32(out, kCatalogMagicV5);
  PutFixed64(out, replica_wal_base);
  PutVarint64(out, collections.size());
  for (const auto& [name, meta] : collections) {
    PutString(out, name);
    PutString(out, meta.space_file);
    PutFixed32(out, meta.docid_index_root);
    PutFixed32(out, meta.nodeid_index_root);
    PutFixed32(out, meta.versioned_index_root);
    PutFixed64(out, meta.next_doc_id);
    PutFixed64(out, meta.last_version);
    PutFixed64(out, meta.stats_epoch);
    out->push_back(meta.mvcc_enabled ? 1 : 0);
    PutString(out, meta.schema_name);
    PutVarint64(out, meta.value_indexes.size());
    for (const auto& vi : meta.value_indexes) {
      PutString(out, vi.def.name);
      PutString(out, vi.def.path);
      out->push_back(static_cast<char>(vi.def.type));
      PutVarint32(out, vi.def.max_string_len);
      PutFixed32(out, vi.root);
    }
    PutVarint64(out, meta.structural_indexes.size());
    for (const auto& si : meta.structural_indexes) {
      PutString(out, si.def.name);
      PutString(out, si.def.element_name);
      PutFixed32(out, si.root);
    }
  }
  PutVarint64(out, schemas.size());
  for (const auto& [name, binary] : schemas) {
    PutString(out, name);
    PutString(out, binary);
  }
  PutString(out, dictionary);
}

Result<CatalogData> CatalogData::Deserialize(Slice data) {
  CatalogData cat;
  if (data.size() < 4) return Status::Corruption("bad catalog magic");
  const uint32_t magic = DecodeFixed32(data.data());
  // Old-format (v1) catalogs still load: stats_epoch defaults to 0 ("no
  // stats saved yet"). Engine::Open treats epoch 0 as valid-empty only for
  // collections with no checkpointed documents; otherwise it degrades them
  // to heuristic planning (their documents are not reflected in any stats).
  const bool v5 = magic == kCatalogMagicV5;
  const bool v4 = v5 || magic == kCatalogMagicV4;
  const bool v3 = v4 || magic == kCatalogMagicV3;
  const bool v2 = v3 || magic == kCatalogMagicV2;
  if (!v2 && magic != kCatalogMagic)
    return Status::Corruption("bad catalog magic");
  data.RemovePrefix(4);
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
    const size_t fixed = 4 * 3 + 8 * 2 + (v2 ? 8 : 0) + 1;
    if (data.size() < fixed)
      return Status::Corruption("truncated collection meta");
    meta.name = name;
    meta.docid_index_root = DecodeFixed32(data.data());
    meta.nodeid_index_root = DecodeFixed32(data.data() + 4);
    meta.versioned_index_root = DecodeFixed32(data.data() + 8);
    meta.next_doc_id = DecodeFixed64(data.data() + 12);
    meta.last_version = DecodeFixed64(data.data() + 20);
    if (v2) meta.stats_epoch = DecodeFixed64(data.data() + 28);
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
      vi.def.type = static_cast<ValueType>(data[0]);
      data.RemovePrefix(1);
      uint32_t maxlen;
      size_t n = GetVarint32(data.data(), data.data() + data.size(), &maxlen);
      if (n == 0) return Status::Corruption("bad index meta");
      data.RemovePrefix(n);
      vi.def.max_string_len = maxlen;
      if (data.size() < 4) return Status::Corruption("truncated index meta");
      vi.root = DecodeFixed32(data.data());
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
        // stay unreferenced, as after a drop); open rebuilds the index.
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
    if (!out) return Status::IOError("short catalog write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::IOError("cannot rename catalog into place");
  return Status::OK();
}

Result<CatalogData> LoadCatalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no catalog at " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return CatalogData::Deserialize(bytes);
}

}  // namespace xdb
