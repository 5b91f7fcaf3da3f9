// Shared fixtures for the benchmark harness: in-memory storage stacks and
// pre-generated workloads, so each bench measures the paper's claim and not
// setup noise.
#ifndef XDB_BENCH_BENCH_UTIL_H_
#define XDB_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>

#include "btree/btree.h"
#include "common/random.h"
#include "index/nodeid_index.h"
#include "obs/metrics.h"
#include "pack/record_builder.h"
#include "pack/shredded_store.h"
#include "pack/tree_cursor.h"
#include "storage/buffer_manager.h"
#include "storage/record_manager.h"
#include "storage/tablespace.h"
#include "util/workload.h"
#include "xml/name_dictionary.h"
#include "xml/parser.h"

namespace xdb {
namespace bench {

/// An in-memory storage stack (table space + buffer manager + record
/// manager + a NodeID B+tree) shared by packed and shredded stores.
struct StorageStack {
  explicit StorageStack(size_t buffer_pages = 4096) {
    TableSpaceOptions opts;
    opts.in_memory = true;
    space = TableSpace::Create("", opts).MoveValue();
    bm = std::make_unique<BufferManager>(space.get(), buffer_pages);
    records = std::make_unique<RecordManager>(bm.get());
    tree = BTree::Create(bm.get(), &descents).MoveValue();
    index = std::make_unique<NodeIdIndex>(tree.get());
  }

  std::unique_ptr<TableSpace> space;
  std::unique_ptr<BufferManager> bm;
  std::unique_ptr<RecordManager> records;
  obs::Counter descents;  // root-to-leaf walks of `tree`
  std::unique_ptr<BTree> tree;
  std::unique_ptr<NodeIdIndex> index;
};

/// Parses `xml` and stores it tree-packed under `doc_id`; returns the number
/// of records created.
inline uint64_t StorePacked(StorageStack* st, NameDictionary* dict,
                            uint64_t doc_id, const std::string& xml,
                            size_t budget) {
  Parser parser(dict);
  TokenWriter tokens;
  Status s = parser.Parse(xml, &tokens);
  if (!s.ok()) std::abort();
  RecordBuilderOptions opts;
  opts.record_budget = budget;
  RecordBuilder builder(opts);
  uint64_t count = 0;
  s = builder.Build(tokens.data(), [&](PackedRecordOut&& rec) -> Status {
    XDB_ASSIGN_OR_RETURN(Rid rid, st->records->Insert(rec.bytes));
    XDB_RETURN_NOT_OK(st->index->AddRecord(doc_id, rec.bytes, rid));
    count++;
    return Status::OK();
  });
  if (!s.ok()) std::abort();
  return count;
}

inline std::string ParseToTokens(NameDictionary* dict,
                                 const std::string& xml) {
  Parser parser(dict);
  TokenWriter tokens;
  if (!parser.Parse(xml, &tokens).ok()) std::abort();
  return tokens.buffer();
}

}  // namespace bench
}  // namespace xdb

#endif  // XDB_BENCH_BENCH_UTIL_H_
