#include "engine/collection.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "engine/engine.h"
#include "obs/slow_query_log.h"
#include "obs/wait_state.h"
#include "query/executor.h"
#include "runtime/iterators.h"
#include "xml/node_id.h"
#include "xml/serializer.h"
#include "xpath/parser.h"
#include "xpath/quickxscan.h"

namespace xdb {

namespace {

/// Runs an operation inside the caller's transaction, or wraps it in an
/// autocommit transaction when none is given.
class AutoTxn {
 public:
  AutoTxn(Engine* engine, Transaction* txn, IsolationMode mode)
      : engine_(engine) {
    if (txn == nullptr) {
      own_ = engine->Begin(mode);
      own_.autocommit = true;
      txn_ = &own_;
      owned_ = true;
    } else {
      txn_ = txn;
    }
  }
  ~AutoTxn() {
    if (owned_ && !own_.committed && !own_.aborted)
      (void)engine_->Abort(&own_);
  }

  Transaction* get() { return txn_; }

  Status Finish(Status st) {
    if (!owned_) return st;
    if (st.ok()) return engine_->Commit(&own_);
    (void)engine_->Abort(&own_);
    return st;
  }

 private:
  Engine* engine_;
  Transaction own_;
  Transaction* txn_ = nullptr;
  bool owned_ = false;
};

/// The evaluation stage's one fan-out: runs eval(begin, end, out) over
/// contiguous ranges that cover the (doc, node)-sorted candidate list and
/// never split a document (query::PartitionByDocument), appending to
/// `result` in candidate order. A list it leaves unsplit runs serially on
/// this thread as one range. Otherwise each range is one pool task writing
/// its own QueryResult, and the chunks merge in chunk order, which
/// reproduces the serial output and counters exactly; the lowest-index
/// chunk's error wins, like a serial loop stopping at its first failure.
/// Doc locks must already be held: the transaction's lock table is not safe
/// for concurrent mutation.
Status FanOut(util::ThreadPool* pool, size_t parallelism,
              const std::vector<Posting>& anchors, QueryResult* result,
              const std::function<Status(size_t, size_t, QueryResult*)>& eval) {
  std::vector<query::WorkRange> ranges =
      query::PartitionByDocument(anchors, parallelism);
  if (ranges.empty()) return eval(0, anchors.size(), result);
  // A full scan fans out once per batch, so the profile counts the pool
  // tasks of every call (1, its default, for a serial query); the always-on
  // query.parallel_executions counter reads chunks afterwards.
  result->profile.parallelism = static_cast<int>(parallelism);
  result->profile.chunks =
      (result->profile.chunks > 1 ? result->profile.chunks : 0) + ranges.size();
  std::vector<QueryResult> chunks(ranges.size());
  std::vector<Status> chunk_status(ranges.size());
  // Pool threads have no wait scope of their own; re-install this query's
  // so per-chunk latch/buffer waits attribute to it (WaitStats is atomic,
  // safe for concurrent Add from every chunk).
  obs::WaitStats* query_waits = obs::QueryWaitScope::current();
  pool->ParallelFor(ranges.size(), parallelism, [&](size_t c) {
    obs::QueryWaitScope chunk_scope(query_waits);
    chunk_status[c] = eval(ranges[c].begin, ranges[c].end, &chunks[c]);
  });
  for (const Status& st : chunk_status) XDB_RETURN_NOT_OK(st);
  for (QueryResult& c : chunks) {
    result->stats.Add(c.stats);
    for (ResultNode& r : c.nodes) result->nodes.push_back(std::move(r));
  }
  return Status::OK();
}

/// A full scan's batch: it lists the documents whose NodeID entries come to
/// this many, and holds their entries while it evaluates them.
constexpr size_t kScanBatchEntries = 4096;

/// A document-level candidate: the anchor at `doc_id`'s document node.
Posting DocAnchor(uint64_t doc_id) {
  Posting p;
  p.doc_id = doc_id;
  return p;
}

/// The start (or end) event of one chain element of an edit region.
XmlEvent ChainEvent(const StoredPathStep& step, bool start) {
  XmlEvent ev;
  ev.type =
      start ? XmlEvent::Type::kStartElement : XmlEvent::Type::kEndElement;
  ev.local = step.local;
  ev.ns_uri = step.ns_uri;
  ev.node_id = Slice(step.node_id);
  return ev;
}

}  // namespace

Collection::ReadView Collection::OpenReadView(Transaction* txn) {
  ReadView view;
  view.index = node_index_.get();
  if (txn->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled) {
    view.snapshot.emplace(versions_.get(),
                          engine_->txns()->Snapshot(txn, versions_.get()));
    view.lock_docs = false;  // snapshot readers never lock
  }
  return view;
}

Result<uint64_t> Collection::InsertDocument(Transaction* txn, Slice xml) {
  Parser parser = engine_->MakeParser();
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
  if (!meta_.schema_name.empty()) {
    XDB_ASSIGN_OR_RETURN(const schema::CompiledSchema* cs,
                         engine_->FindSchema(meta_.schema_name));
    TokenWriter validated;
    schema::ValidatorVm vm(cs, engine_->dict());
    XDB_RETURN_NOT_OK(vm.Validate(tokens.data(), &validated));
    return InsertTokens(txn, validated.data());
  }
  return InsertTokens(txn, tokens.data());
}

Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  uint64_t doc_id;
  {
    MutexLock lock(docid_mu_);
    doc_id = meta_.next_doc_id++;
  }
  const WalRecord rec{.type = WalRecordType::kInsertDocument,
                      .collection = meta_.name, .doc_id = doc_id,
                      .body = tokens};
  Status st = ApplyInsert(at.get(), doc_id, tokens, &rec);
  // The failed insert is undone (or its collection quarantined); a logged
  // delete keeps a later replay from redoing it. (DocIDs are never reused,
  // so one logged for an insert that failed before its record is a no-op.)
  if (!st.ok())
    (void)engine_->LogRecord({.type = WalRecordType::kDeleteDocument,
                              .collection = meta_.name, .doc_id = doc_id});
  XDB_RETURN_NOT_OK(at.Finish(st));
  return doc_id;
}

Status Collection::ApplyInsert(Transaction* txn, uint64_t doc_id,
                               Slice tokens, const WalRecord* rec) {
  {
    MutexLock lock(docid_mu_);
    if (doc_id >= meta_.next_doc_id) meta_.next_doc_id = doc_id + 1;
  }
  XDB_RETURN_NOT_OK(engine_->locks()->LockDocument(txn->id, lock_space_,
                                                   doc_id, LockMode::kX));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  uint64_t version = 0;
  if (meta_.mvcc_enabled) {
    XDB_ASSIGN_OR_RETURN(version,
                         engine_->txns()->WriteVersion(txn, versions_.get()));
  }
  RecordBuilderOptions rb_options;
  rb_options.record_budget = record_budget_;
  RecordBuilder builder(rb_options);
  std::vector<Rid> stored;
  Status st = builder.Build(tokens, [&](PackedRecordOut&& rec) -> Status {
    XDB_ASSIGN_OR_RETURN(Rid rid, records_->Insert(rec.bytes));
    stored.push_back(rid);
    XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, rec.bytes, rid));
    if (meta_.mvcc_enabled) {
      XDB_RETURN_NOT_OK(
          versions_->AddRecord(doc_id, version, rec.bytes, rid));
    }
    return Status::OK();
  });
  // Index maintenance stays under the exclusive latch: dropping it here
  // would let concurrent queries scan an index while this document's
  // entries are half-written. It reads the document's own tokens, so it
  // reads no record back.
  const bool built = st.ok();
  if (built) st = IndexDocument(doc_id, {}, /*remove=*/false, nullptr, tokens);
  if (!st.ok()) {
    // A failed build drops the records, versions and NodeID entries it
    // stored, so the document is never listed; its own failure is the one
    // reported. Postings cannot be undone with certainty: a B+tree write
    // that fails after a split leaves the upper half linked from its left
    // sibling but not from the parent, where a walk finds its entries and
    // a seek does not. So a failure in index maintenance, or in the undo,
    // quarantines the collection until Scrub rebuilds it.
    NodeIdEntries entries;
    Status undo =
        built ? st : node_index_->ListDocEntries(doc_id, Slice(), &entries);
    if (undo.ok()) undo = DeleteDocumentLocked(doc_id, entries, stored);
    if (!undo.ok() && !needs_repair_) {
      repair_reason_ = "failed insert of document " + std::to_string(doc_id) +
                       " not undone: " + undo.ToString();
      needs_repair_ = true;
    }
    return st;
  }
  // Statistics last, so a failed insert never counts. Every insert path —
  // client writes, WAL replay, scrub salvage — runs this body, which is
  // what keeps the incremental counters in step with the data.
  stats_.NoteDocumentInserted(builder.stat_nodes());
  return Status::OK();
}

Result<const xpath::QueryTree*> Collection::IndexPathTree(
    OwnedValueIndex* owned) {
  const size_t dict_size = engine_->dict()->size();
  if (owned->path_tree == nullptr || owned->path_dict_size != dict_size) {
    XDB_ASSIGN_OR_RETURN(xpath::Path path,
                         xpath::ParsePath(owned->index->def().path));
    XDB_ASSIGN_OR_RETURN(
        std::unique_ptr<xpath::QueryTree> tree,
        xpath::QueryTree::Compile(path, *engine_->dict(),
                                  /*want_result_values=*/true));
    owned->path_tree = std::move(tree);
    owned->path_dict_size = dict_size;
  }
  return owned->path_tree.get();
}

Status Collection::IndexDocument(uint64_t doc_id, const EditRegion& region,
                                 bool remove, NodeLocator* locator,
                                 Slice fresh_tokens, IndexScope scope) {
  // "Index keys for the node ID index and XPath value indexes are generated
  // per record" in the paper; here one streaming pass over the region
  // generates the keys of every index, and a posting names its node, not
  // the node's record. Only a fresh insert may read its token stream: a
  // token round trip of a stored document renumbers Between()-allocated IDs
  // canonically, naming nodes the document does not have.
  std::vector<ValueIndex*> value;
  std::vector<xpath::QuickXScan> scans;
  scans.reserve(value_indexes_.size());
  for (auto& owned : value_indexes_) {
    if (!scope.all() && owned.index.get() != scope.value) continue;
    XDB_ASSIGN_OR_RETURN(const xpath::QueryTree* tree, IndexPathTree(&owned));
    value.push_back(owned.index.get());
    scans.emplace_back(tree, doc_id);
  }
  // A chain element keeps its structural entry (its node ID is stable);
  // only its span moves, by the subtree's element count.
  std::vector<StructuralIndex*> structural;
  if (region.subtree) {
    for (auto& owned : structural_indexes_) {
      if (scope.all() || owned.index.get() == scope.structural)
        structural.push_back(owned.index.get());
    }
  }
  if (scans.empty() && structural.empty()) return Status::OK();
  if (locator == nullptr) locator = node_index_.get();
  StoredTreeNavigator nav(records_.get(), locator, doc_id);
  std::vector<StoredPathStep> chain;
  XDB_RETURN_NOT_OK(nav.Path(Slice(region.node_id), &chain));
  if (!chain.empty() &&
      (region.subtree || chain.back().kind != NodeKind::kElement))
    chain.pop_back();  // keep the element ancestors(-or-self)

  // The region's events: a start event per chain element (root first), the
  // subtree's events, then the chain's end events. Linear, predicate-free
  // index paths match on them exactly as on the whole document; only the
  // chain's string values are partial.
  for (xpath::QuickXScan& scan : scans) scan.Begin();
  auto feed = [&](const XmlEvent& ev) -> Status {
    for (xpath::QuickXScan& scan : scans) XDB_RETURN_NOT_OK(scan.Feed(ev));
    return Status::OK();
  };
  for (const StoredPathStep& step : chain)
    XDB_RETURN_NOT_OK(feed(ChainEvent(step, /*start=*/true)));
  StructuralDeriver deriver;
  if (region.subtree) {
    std::unique_ptr<XmlEventSource> source;
    if (!fresh_tokens.empty()) {
      source = std::make_unique<TokenStreamSource>(fresh_tokens);
    } else {
      source = std::make_unique<StoredDocSource>(records_.get(), locator,
                                                 doc_id, region.node_id);
    }
    XmlEvent ev;
    for (;;) {
      XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
      if (!more) break;
      XDB_RETURN_NOT_OK(feed(ev));
      if (!structural.empty()) XDB_RETURN_NOT_OK(deriver.Feed(ev));
    }
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it)
    XDB_RETURN_NOT_OK(feed(ChainEvent(*it, /*start=*/false)));

  for (size_t i = 0; i < scans.size(); i++) {
    NodeSequence hits;
    XDB_RETURN_NOT_OK(scans[i].Finish(&hits));
    for (ResultNode& hit : hits) {
      Slice node_id(hit.node_id);
      // A chain element's scanned value misses the text outside the region.
      if (!region.subtree || !node_id.StartsWith(Slice(region.node_id))) {
        XDB_ASSIGN_OR_RETURN(hit.string_value, nav.StringValue(node_id));
      }
      Slice key(hit.string_value);
      XDB_RETURN_NOT_OK(remove ? value[i]->Remove(key, doc_id, node_id)
                               : value[i]->Add(key, doc_id, node_id));
    }
  }
  if (structural.empty()) return Status::OK();
  std::vector<StructuralEntry> entries;
  XDB_RETURN_NOT_OK(deriver.Finish(&entries));
  std::vector<NameId> ancestors;
  for (const StoredPathStep& step : chain) ancestors.push_back(step.local);
  for (StructuralIndex* index : structural)
    XDB_RETURN_NOT_OK(
        index->Apply(*engine_->dict(), doc_id, entries, ancestors, remove));
  return Status::OK();
}

Status Collection::Backfill(IndexScope scope) {
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> docs, node_index_->ListDocIds());
  for (uint64_t doc_id : docs) {
    XDB_RETURN_NOT_OK(
        IndexDocument(doc_id, {}, /*remove=*/false, nullptr, {}, scope));
  }
  return Status::OK();
}

Result<std::string> Collection::GetDocumentText(Transaction* txn,
                                                uint64_t doc_id) {
  return SerializeSubtree(txn, doc_id, Slice());
}

Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  const WalRecord rec{.type = WalRecordType::kDeleteDocument,
                      .collection = meta_.name, .doc_id = doc_id};
  return at.Finish(ApplyDelete(at.get(), doc_id, &rec));
}

Status Collection::ApplyDelete(Transaction* txn, uint64_t doc_id,
                               const WalRecord* rec) {
  XDB_RETURN_NOT_OK(engine_->locks()->LockDocument(txn->id, lock_space_,
                                                   doc_id, LockMode::kX));
  // The X doc lock pins existence. WAL append happens outside the latch
  // (replay holds the WAL lock while taking collection latches, so the
  // reverse nesting would be an inversion).
  XDB_RETURN_NOT_OK(CheckExists(doc_id));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  // Index-entry removal and record deletion happen under one exclusive
  // latch section so queries never observe postings pointing at freed
  // records. One listing of the document's NodeID entries serves all
  // three: the stored walk, the records to free and the entries.
  WriterMutexLock latch(latch_);
  NodeIdEntries entries;
  XDB_RETURN_NOT_OK(node_index_->ListDocEntries(doc_id, Slice(), &entries));
  DocEntriesLocator locator(doc_id, &entries);
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {}, /*remove=*/true, &locator));
  XDB_RETURN_NOT_OK(DeleteDocumentLocked(doc_id, entries));
  stats_.NoteDocumentDeleted();
  return Status::OK();
}

Status Collection::CheckExists(uint64_t doc_id) {
  ReaderMutexLock latch(latch_);
  return node_index_->Lookup(doc_id, Slice()).status();
}

Result<bool> Collection::ReconcileLegacyDocList() {
  if (meta_.legacy_docid_root == kInvalidPageId) return true;
  WriterMutexLock latch(latch_);
  XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                       BTree::Open(buffer_.get(), meta_.legacy_docid_root));
  meta_.legacy_docid_root = kInvalidPageId;
  // Its 8-byte DocID keys read as the NodeID keys of document nodes.
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> listed,
                       NodeIdIndex(tree.get()).ListDocIds());
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> docs, node_index_->ListDocIds());
  for (uint64_t doc_id : docs) {
    if (std::binary_search(listed.begin(), listed.end(), doc_id)) continue;
    NodeIdEntries entries;
    XDB_RETURN_NOT_OK(node_index_->ListDocEntries(doc_id, Slice(), &entries));
    XDB_RETURN_NOT_OK(DeleteDocumentLocked(doc_id, entries));
  }
  return docs == listed;
}

Status Collection::DeleteDocumentLocked(uint64_t doc_id,
                                        const NodeIdEntries& entries,
                                        const std::vector<Rid>& records) {
  std::set<uint64_t> rids;
  for (Rid rid : records) rids.insert(rid.Pack());
  for (const auto& [upper, rid] : entries) rids.insert(rid.Pack());
  if (meta_.mvcc_enabled) {
    std::vector<Rid> freed;
    XDB_RETURN_NOT_OK(versions_->PurgeVersionsBefore(
        doc_id, std::numeric_limits<uint64_t>::max(), &freed));
    for (Rid r : freed) rids.insert(r.Pack());
  }
  XDB_RETURN_NOT_OK(node_index_->RemoveDocEntries(doc_id, entries));
  for (uint64_t packed : rids) {
    XDB_RETURN_NOT_OK(records_->Delete(Rid::Unpack(packed)));
  }
  return Status::OK();
}

Status Collection::UpdateTextNode(Transaction* txn, uint64_t doc_id,
                                  Slice node_id, Slice new_text) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  const WalRecord rec{.type = WalRecordType::kUpdateNode,
                      .collection = meta_.name, .doc_id = doc_id,
                      .node_id = node_id, .body = new_text};
  return at.Finish(ApplyTextUpdate(at.get(), doc_id, node_id, new_text, &rec));
}

Status Collection::ApplyTextUpdate(Transaction* txn, uint64_t doc_id,
                                   Slice node_id, Slice new_text,
                                   const WalRecord* rec) {
  // Subdocument protocol: X on the updated subtree, which a document S or
  // X of another transaction excludes by the prefix rule.
  XDB_RETURN_NOT_OK(engine_->locks()->LockNode(txn->id, lock_space_, doc_id,
                                               node_id, LockMode::kX));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));

  WriterMutexLock latch(latch_);
  XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, node_id));
  std::string old_record;
  XDB_RETURN_NOT_OK(records_->Get(rid, &old_record));
  XDB_ASSIGN_OR_RETURN(std::string new_record,
                       ReplaceTextValue(old_record, node_id, new_text));

  // The update changes the string values of the text node's ancestors
  // only, in place or by copy-on-write: postings name nodes, which keep
  // their IDs when their record moves.
  const EditRegion region{node_id.ToString(), /*subtree=*/false};
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, region, /*remove=*/true));
  if (!meta_.mvcc_enabled) {
    XDB_RETURN_NOT_OK(records_->Update(rid, new_record));
    XDB_RETURN_NOT_OK(IndexDocument(doc_id, region, /*remove=*/false));
    stats_.NoteDocumentMutated();
    return Status::OK();
  }

  // MVCC: copy-on-write of the changed record under a new version.
  XDB_ASSIGN_OR_RETURN(uint64_t version,
                       engine_->txns()->WriteVersion(txn, versions_.get()));
  XDB_ASSIGN_OR_RETURN(Rid new_rid, records_->Insert(new_record));
  // New version's entries: previous effective entries, with the changed
  // record's entries re-pointed at the new RID.
  XDB_ASSIGN_OR_RETURN(
      uint64_t prev_ver,
      versions_->EffectiveVersion(doc_id,
                                  std::numeric_limits<uint64_t>::max() - 1));
  std::vector<std::pair<std::string, Rid>> entries;
  XDB_RETURN_NOT_OK(versions_->ListVersionEntries(doc_id, prev_ver, &entries));
  for (auto& [upper, entry_rid] : entries) {
    Rid target = (entry_rid == rid) ? new_rid : entry_rid;
    XDB_RETURN_NOT_OK(versions_->AddEntry(doc_id, version, upper, target));
  }
  // The unversioned NodeID index tracks the newest version.
  XDB_RETURN_NOT_OK(node_index_->RemoveRecord(doc_id, old_record, rid));
  XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, new_record, new_rid));
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, region, /*remove=*/false));
  stats_.NoteDocumentMutated();
  return Status::OK();
}

Status Collection::EditRecord(uint64_t doc_id, Rid rid,
                              const RecordEdit& edit) {
  std::string old_record;
  XDB_RETURN_NOT_OK(records_->Get(rid, &old_record));
  bool now_empty = false;
  XDB_ASSIGN_OR_RETURN(std::string new_record, edit(old_record, &now_empty));
  XDB_RETURN_NOT_OK(node_index_->RemoveRecord(doc_id, old_record, rid));
  if (now_empty) return records_->Delete(rid);
  XDB_RETURN_NOT_OK(records_->Update(rid, new_record));
  return node_index_->AddRecord(doc_id, new_record, rid);
}

Result<std::string> Collection::InsertSubtree(Transaction* txn,
                                              uint64_t doc_id,
                                              Slice parent_id,
                                              Slice after_sibling_id,
                                              Slice fragment) {
  XDB_RETURN_NOT_OK(GuardWrite());
  if (meta_.mvcc_enabled)
    return Status::NotSupported(
        "subtree operations on MVCC collections are future work");
  if (parent_id.empty())
    return Status::InvalidArgument(
        "subtrees are inserted under an element, not the document node");
  Parser parser = engine_->MakeParser();
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(parser.Parse(fragment, &tokens));

  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  const WalRecord rec{.type = WalRecordType::kInsertSubtree,
                      .collection = meta_.name, .doc_id = doc_id,
                      .node_id = parent_id, .after_id = after_sibling_id,
                      .body = tokens.data()};
  Result<std::string> new_id = ApplySubtreeInsert(
      at.get(), doc_id, parent_id, after_sibling_id, tokens.data(), &rec);
  XDB_RETURN_NOT_OK(at.Finish(new_id.status()));
  return new_id;
}

Result<std::string> Collection::ApplySubtreeInsert(
    Transaction* txn, uint64_t doc_id, Slice parent_id,
    Slice after_sibling_id, Slice fragment_tokens, const WalRecord* rec) {
  XDB_RETURN_NOT_OK(engine_->locks()->LockNode(txn->id, lock_space_, doc_id,
                                               parent_id, LockMode::kX));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  // Direct children of the parent (inline entries and proxies) in order.
  StoredTreeNavigator nav(records_.get(), node_index_.get(), doc_id);
  std::vector<std::string> child_ids;
  XDB_RETURN_NOT_OK(nav.ChildIds(parent_id, &child_ids));

  // Choose the new relative ID with Between(): the new child goes after
  // child pos - 1 and before child pos.
  size_t pos = child_ids.size();
  if (!after_sibling_id.empty()) {
    auto it = std::find(child_ids.begin(), child_ids.end(), after_sibling_id);
    if (it == child_ids.end())
      return Status::NotFound("after-sibling is not a child of the parent");
    pos = static_cast<size_t>(it - child_ids.begin()) + 1;
  }
  auto rel = [&](size_t i) {
    return i < child_ids.size() ? child_ids[i].substr(parent_id.size())
                                : std::string();
  };
  std::string new_rel;
  XDB_RETURN_NOT_OK(
      nodeid::Between(pos > 0 ? rel(pos - 1) : "", rel(pos), &new_rel));
  std::string new_abs = parent_id.ToString() + new_rel;

  // Placement. Q holds the parent's child list; H will hold the new
  // subtree. A record R != Q holding the previous sibling whose interval
  // also reaches past the new ID holds the parent's children on both sides
  // of it: the subtree is spliced into R, which keeps every record's
  // resident nodes contiguous between its proxies. Otherwise it gets a
  // record of its own. Either way Q gains its proxy.
  XDB_ASSIGN_OR_RETURN(Rid q_rid, node_index_->Lookup(doc_id, parent_id));
  std::optional<Rid> splice_rid;
  if (pos > 0) {
    XDB_ASSIGN_OR_RETURN(Rid prev_rid,
                         node_index_->Lookup(doc_id, child_ids[pos - 1]));
    Result<Rid> next_rid = node_index_->Lookup(doc_id, new_abs);
    if (!next_rid.ok() && !next_rid.status().IsNotFound())
      return next_rid.status();
    if (next_rid.ok() && next_rid.value() == prev_rid && prev_rid != q_rid)
      splice_rid = prev_rid;
  }

  // Pack the fragment before anything changes, so a bad one fails here.
  SubtreeContext context;
  context.parent_id = parent_id.ToString();
  context.root_rel = new_rel;
  {
    std::string q_record;
    XDB_RETURN_NOT_OK(records_->Get(q_rid, &q_record));
    RecordHeader q_header;
    Slice payload;
    XDB_RETURN_NOT_OK(ParseRecordHeader(q_record, &q_header, &payload));
    context.namespaces = q_header.namespaces;
    std::vector<StoredPathStep> parent_path;
    XDB_RETURN_NOT_OK(nav.Path(parent_id, &parent_path));
    for (const StoredPathStep& step : parent_path)
      context.root_path.push_back({step.local, step.ns_uri});
  }
  std::vector<PackedRecordOut> inner;
  RecordBuilder builder(RecordBuilderOptions{record_budget_});
  XDB_ASSIGN_OR_RETURN(PackedRecordOut top,
                       builder.BuildSubtree(fragment_tokens, context,
                                            [&](PackedRecordOut&& rec) {
                                              inner.push_back(std::move(rec));
                                              return Status::OK();
                                            }));

  // The parent's chain loses its old string-value postings; the new subtree
  // and the chain's new values are posted once the records hold them.
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {parent_id.ToString(), false},
                                  /*remove=*/true));
  for (const PackedRecordOut& rec : inner) {
    XDB_ASSIGN_OR_RETURN(Rid rid, records_->Insert(rec.bytes));
    XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, rec.bytes, rid));
  }
  if (splice_rid.has_value()) {
    RecordHeader top_header;
    Slice top_entry;
    XDB_RETURN_NOT_OK(ParseRecordHeader(top.bytes, &top_header, &top_entry));
    XDB_RETURN_NOT_OK(EditRecord(doc_id, *splice_rid, [&](Slice rec, bool*) {
      return InsertEntry(rec, parent_id, top_entry);
    }));
  } else {
    XDB_ASSIGN_OR_RETURN(Rid h_rid, records_->Insert(top.bytes));
    XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, top.bytes, h_rid));
  }
  std::string proxy;
  packfmt::AppendProxy(&proxy, new_rel);
  XDB_RETURN_NOT_OK(EditRecord(doc_id, q_rid, [&](Slice rec, bool*) {
    return InsertEntry(rec, parent_id, proxy);
  }));

  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {new_abs, true}, /*remove=*/false));
  stats_.NoteDocumentMutated();
  return new_abs;
}

Status Collection::DeleteSubtree(Transaction* txn, uint64_t doc_id,
                                 Slice node_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  if (meta_.mvcc_enabled)
    return Status::NotSupported(
        "subtree operations on MVCC collections are future work");
  if (node_id.empty())
    return Status::InvalidArgument("cannot delete the document node");
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  const WalRecord rec{.type = WalRecordType::kDeleteSubtree,
                      .collection = meta_.name, .doc_id = doc_id,
                      .node_id = node_id};
  return at.Finish(ApplySubtreeDelete(at.get(), doc_id, node_id, &rec));
}

Status Collection::ApplySubtreeDelete(Transaction* txn, uint64_t doc_id,
                                      Slice node_id, const WalRecord* rec) {
  // Refused before the record is logged: replay would refuse it again.
  XDB_ASSIGN_OR_RETURN(Slice parent_id, nodeid::Parent(node_id));
  if (parent_id.empty())
    return Status::InvalidArgument("cannot delete the root element");
  XDB_RETURN_NOT_OK(engine_->locks()->LockNode(txn->id, lock_space_, doc_id,
                                               node_id, LockMode::kX));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  // The subtree's entries go, and so do the postings of the parent's chain,
  // whose string values lose the subtree's text; the chain is re-posted
  // once the records no longer hold the subtree.
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {node_id.ToString(), true},
                                  /*remove=*/true));

  // H holds the subtree's root and Q the parent's child list. H != Q when
  // the root was packed into a record of its own or with its siblings; Q
  // then holds its proxy. The records wholly inside the subtree are those
  // with an interval ending under it, H aside.
  XDB_ASSIGN_OR_RETURN(Rid h_rid, node_index_->Lookup(doc_id, node_id));
  XDB_ASSIGN_OR_RETURN(Rid q_rid, node_index_->Lookup(doc_id, parent_id));
  std::vector<Rid> inner;
  XDB_RETURN_NOT_OK(node_index_->ListDocRecords(doc_id, node_id, &inner));
  auto remove = [&](Slice rec, bool* now_empty) {
    return RemoveEntry(rec, node_id, now_empty);
  };
  XDB_RETURN_NOT_OK(EditRecord(doc_id, h_rid, remove));
  if (h_rid != q_rid) XDB_RETURN_NOT_OK(EditRecord(doc_id, q_rid, remove));
  for (Rid rid : inner) {
    if (rid == h_rid) continue;
    std::string bytes;
    XDB_RETURN_NOT_OK(records_->Get(rid, &bytes));
    XDB_RETURN_NOT_OK(node_index_->RemoveRecord(doc_id, bytes, rid));
    XDB_RETURN_NOT_OK(records_->Delete(rid));
  }
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {parent_id.ToString(), false},
                                  /*remove=*/false));
  stats_.NoteDocumentMutated();
  return Status::OK();
}

Status Collection::CreateValueIndex(const ValueIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  // ddl_mu_ spans the mutation AND its WAL record: a concurrent drop of the
  // same index cannot slip its record into the log between them, so the log
  // order always matches the application order (replay/replica convergence
  // depends on it).
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateValueIndex(def));
  return engine_->LogRecord(
      {.type = WalRecordType::kCreateValueIndex, .collection = meta_.name,
       .index_name = def.name, .index_path = def.path, .value_type = def.type,
       .max_string_len = def.max_string_len});
}

Status Collection::ApplyCreateValueIndex(const ValueIndexDef& def) {
  if (!IsValueType(static_cast<uint8_t>(def.type)))
    return Status::InvalidArgument("unknown value index type");
  XDB_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(def.path));
  if (!xpath::IsIndexablePath(path))
    return Status::InvalidArgument(
        "value index paths must be linear, predicate-free, and end in an "
        "element or attribute");
  {
    WriterMutexLock latch(latch_);
    for (auto& owned : value_indexes_) {
      if (owned.index->def().name == def.name)
        return Status::InvalidArgument("index '" + def.name + "' exists");
    }
    XDB_ASSIGN_OR_RETURN(
        std::unique_ptr<BTree> tree,
        BTree::Create(buffer_.get(), engine_->btree_descents()));
    auto index = std::make_unique<ValueIndex>(def, tree.get());
    ValueIndex* raw = index.get();
    // Stats listener first, so the backfill below is counted too. This bumps
    // the stats epoch, invalidating every cached plan priced without the
    // index.
    raw->set_stats_listener(stats_.NoteIndexCreated(def.name));
    meta_.value_indexes.push_back(ValueIndexMeta{def, tree->root()});
    value_indexes_.push_back(
        OwnedValueIndex{std::move(tree), std::move(index), nullptr, 0});

    // Backfill from existing documents, still under the exclusive latch so a
    // concurrent query never plans against a half-backfilled index.
    XDB_RETURN_NOT_OK(Backfill({.value = raw}));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.Invalidate("index created");
  }
  return Status::OK();
}

Status Collection::DropValueIndex(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
  // Same atomicity as CreateValueIndex: mutation + WAL record under ddl_mu_.
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropValueIndex(name));
  return engine_->LogRecord({.type = WalRecordType::kDropValueIndex,
                             .collection = meta_.name, .index_name = name});
}

Status Collection::ApplyDropValueIndex(const std::string& name) {
  {
    WriterMutexLock latch(latch_);
    size_t pos = value_indexes_.size();
    for (size_t i = 0; i < value_indexes_.size(); i++) {
      if (value_indexes_[i].index->def().name == name) {
        pos = i;
        break;
      }
    }
    if (pos == value_indexes_.size())
      return Status::NotFound("no value index '" + name + "'");
    // Version bump + cache clear BEFORE the ValueIndex is destroyed: any plan
    // compiled against the old index set fails the structure-version gate
    // under this same latch, so its dangling pointer is never dereferenced.
    index_version_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.Invalidate("index dropped");
    stats_.NoteIndexDropped(name);
    value_indexes_.erase(value_indexes_.begin() + static_cast<long>(pos));
    for (auto it = meta_.value_indexes.begin();
         it != meta_.value_indexes.end(); ++it) {
      if (it->def.name == name) {
        meta_.value_indexes.erase(it);
        break;
      }
    }
  }
  return Status::OK();
}

ValueIndex* Collection::FindValueIndex(const std::string& name) {
  for (auto& owned : value_indexes_) {
    if (owned.index->def().name == name) return owned.index.get();
  }
  return nullptr;
}

Status Collection::CreateStructuralIndex(const StructuralIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  // Same DDL atomicity as CreateValueIndex: mutation + WAL record under
  // ddl_mu_ so log order always matches application order.
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateStructuralIndex(def));
  return engine_->LogRecord(
      {.type = WalRecordType::kCreateStructuralIndex, .collection = meta_.name,
       .index_name = def.name, .index_path = def.element_name});
}

Status Collection::ApplyCreateStructuralIndex(const StructuralIndexDef& def) {
  if (def.name.empty())
    return Status::InvalidArgument("structural index needs a name");
  {
    WriterMutexLock latch(latch_);
    for (auto& owned : structural_indexes_) {
      if (owned.index->def().name == def.name)
        return Status::InvalidArgument("structural index '" + def.name +
                                       "' exists");
    }
    XDB_ASSIGN_OR_RETURN(
        std::unique_ptr<BTree> tree,
        BTree::Create(buffer_.get(), engine_->btree_descents()));
    auto index = std::make_unique<StructuralIndex>(def, tree.get());
    StructuralIndex* raw = index.get();
    // Stats listener first, so the backfill below is counted too. Bumps the
    // stats epoch, invalidating every cached plan priced without the index.
    raw->set_stats_listener(stats_.NoteStructuralIndexCreated(def.name));
    meta_.structural_indexes.push_back(StructuralIndexMeta{def, tree->root()});
    structural_indexes_.push_back(
        OwnedStructuralIndex{std::move(tree), std::move(index)});

    // Backfill from existing documents under the exclusive latch.
    XDB_RETURN_NOT_OK(Backfill({.structural = raw}));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.Invalidate("structural index created");
  }
  return Status::OK();
}

Status Collection::DropStructuralIndex(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropStructuralIndex(name));
  return engine_->LogRecord({.type = WalRecordType::kDropStructuralIndex,
                             .collection = meta_.name, .index_name = name});
}

Status Collection::ApplyDropStructuralIndex(const std::string& name) {
  {
    WriterMutexLock latch(latch_);
    size_t pos = structural_indexes_.size();
    for (size_t i = 0; i < structural_indexes_.size(); i++) {
      if (structural_indexes_[i].index->def().name == name) {
        pos = i;
        break;
      }
    }
    if (pos == structural_indexes_.size())
      return Status::NotFound("no structural index '" + name + "'");
    // Version bump + cache clear BEFORE the StructuralIndex is destroyed:
    // any plan compiled against the old index set fails the
    // structure-version gate under this same latch.
    index_version_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.Invalidate("structural index dropped");
    stats_.NoteStructuralIndexDropped(name);
    structural_indexes_.erase(structural_indexes_.begin() +
                              static_cast<long>(pos));
    for (auto it = meta_.structural_indexes.begin();
         it != meta_.structural_indexes.end(); ++it) {
      if (it->def.name == name) {
        meta_.structural_indexes.erase(it);
        break;
      }
    }
  }
  return Status::OK();
}

StructuralIndex* Collection::FindStructuralIndex(const std::string& name) {
  for (auto& owned : structural_indexes_) {
    if (owned.index->def().name == name) return owned.index.get();
  }
  return nullptr;
}

Result<std::vector<uint64_t>> Collection::ListDocIds() {
  XDB_RETURN_NOT_OK(GuardRepair());
  ReaderMutexLock latch(latch_);
  return node_index_->ListDocIds();
}

Result<uint64_t> Collection::DocCount() {
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, ListDocIds());
  return static_cast<uint64_t>(ids.size());
}

Status Collection::VacuumVersions(uint64_t doc_id,
                                  uint64_t oldest_live_snapshot) {
  XDB_RETURN_NOT_OK(GuardRepair());
  if (!meta_.mvcc_enabled) return Status::OK();
  WriterMutexLock latch(latch_);
  auto keep = versions_->EffectiveVersion(doc_id, oldest_live_snapshot);
  if (keep.status().IsNotFound()) return Status::OK();  // nothing visible
  XDB_RETURN_NOT_OK(keep.status());
  // The records no surviving version references.
  std::vector<Rid> freed;
  XDB_RETURN_NOT_OK(
      versions_->PurgeVersionsBefore(doc_id, keep.value(), &freed));
  for (Rid rid : freed) {
    Status st = records_->Delete(rid);
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return Status::OK();
}

Result<std::string> Collection::SerializeSubtree(Transaction* txn,
                                                 uint64_t doc_id,
                                                 Slice node_id) {
  XDB_RETURN_NOT_OK(GuardRepair());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  std::string out;
  Status st = [&]() -> Status {
    ReadView view = OpenReadView(at.get());
    if (view.lock_docs)
      XDB_RETURN_NOT_OK(engine_->locks()->LockDocument(
          at.get()->id, lock_space_, doc_id, LockMode::kS));
    ReaderMutexLock latch(latch_);
    StoredDocSource source(records_.get(), view.locator(), doc_id,
                           node_id.ToString());
    TokenWriter tokens;
    XDB_RETURN_NOT_OK(EventsToTokens(&source, &tokens));
    return SerializeTokens(tokens.data(), *engine_->dict(), {}, &out);
  }();
  XDB_RETURN_NOT_OK(at.Finish(st));
  return out;
}

Result<QueryResult> Collection::Query(Transaction* txn, Slice xpath,
                                      const QueryOptions& options) {
  XDB_RETURN_NOT_OK(GuardRepair());
  if (options.min_csn > 0)
    XDB_RETURN_NOT_OK(
        engine_->WaitForFreshness(options.min_csn, options.freshness_timeout_us));
  const bool cacheable = plan_cache_.enabled();
  const std::string text = xpath.ToString();
  // Bounded replan loop: a compiled plan can go stale when an index drop or
  // storage rebuild races execution. Staleness is reported via *plan_stale —
  // NOT inferred from the status code, because kBusy is also how the buffer
  // pool reports pinned frames, and those must not trigger a replan.
  Status last = Status::OK();
  for (int attempt = 0; attempt < 3; attempt++) {
    std::shared_ptr<const query::CompiledPlan> cp;
    const char* cache_state = cacheable ? "miss" : "off";
    uint64_t plan_wall_us = 0;
    if (cacheable) {
      cp = plan_cache_.Lookup(text, options.force, options.want_values,
                              stats_.epoch());
      if (cp != nullptr) cache_state = "hit";
    }
    if (cp == nullptr) {
      const auto plan_start = std::chrono::steady_clock::now();
      XDB_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(text));
      XDB_ASSIGN_OR_RETURN(cp, CompileForExecution(std::move(path), options));
      plan_wall_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - plan_start)
              .count());
      // Keyed by the epoch the plan was priced at: if the stats moved while
      // we compiled, the entry simply never matches a future lookup.
      if (cacheable)
        plan_cache_.Insert(text, options.force, options.want_values,
                           cp->stats_epoch, cp);
    }
    bool plan_stale = false;
    Result<QueryResult> res = ExecuteCompiled(
        txn, *cp, options, cache_state, plan_wall_us, &plan_stale);
    if (res.ok() || !plan_stale) return res;
    last = res.status();
    // The plan probes an index that no longer exists; everything else
    // compiled at the old structure version is equally dead.
    if (cacheable) plan_cache_.Invalidate("stale plan replanned");
  }
  return last;
}

Result<std::shared_ptr<const query::CompiledPlan>>
Collection::CompileForExecution(xpath::Path&& path,
                                const QueryOptions& options) {
  auto cp = std::make_shared<query::CompiledPlan>();
  {
    // Planning dereferences the ValueIndex objects (def() for matching,
    // EncodeKey for probe bounds, def().name for the EXPLAIN probe lines),
    // so the shared latch is held across ChoosePlan and the probe-line
    // rendering — not just the pointer copy. A concurrent DropValueIndex or
    // RebuildStorage takes the exclusive latch and destroys the ValueIndex,
    // so releasing earlier would leave planning on freed memory; the
    // index_version_ check in ExecuteCompiled only protects the later probe
    // phase. Planning is pure computation on the index definitions (no page
    // I/O), so the hold stays brief.
    ReaderMutexLock latch(latch_);
    query::PlannerContext ctx;
    for (auto& owned : value_indexes_)
      ctx.indexes.push_back(owned.index.get());
    for (auto& owned : structural_indexes_)
      ctx.structural_indexes.push_back(owned.index.get());
    cp->index_version = index_version_.load(std::memory_order_acquire);
    // Collected statistics drive the cost model. stats_'s mutex is a leaf
    // acquired after latch_ (see the member comment), so snapshotting here
    // is safe; every insert and delete path keeps its doc count exact.
    ctx.stats = stats_.Snapshot();
    const uint64_t docs = ctx.stats.doc_count;
    // Cheap cardinality statistic (no index walk): stored records per doc.
    uint64_t live = records_->stats().live_records;
    ctx.avg_records_per_doc =
        docs == 0 ? 1.0
                  : static_cast<double>(std::max<uint64_t>(live, docs)) /
                        static_cast<double>(docs);
    XDB_ASSIGN_OR_RETURN(cp->plan,
                         query::ChoosePlan(path, ctx, options.force));
    cp->avg_records_per_doc = ctx.avg_records_per_doc;
    cp->stats_epoch = ctx.stats.epoch;
    cp->doc_count = docs;
    cp->nodes_per_doc = ctx.stats.avg_nodes_per_doc();
    for (const query::PlannedProbe& p : cp->plan.probes)
      cp->probe_lines.push_back(
          p.pred.full_path.ToString() + " " + xpath::CompOpName(p.pred.op) +
          " ... index '" + p.index->def().name + "' (" +
          (p.match == xpath::IndexMatch::kExact ? "exact" : "filtering") +
          ")");
    if (cp->plan.structural_index != nullptr) {
      cp->probe_lines.push_back(
          "structural element '" + cp->plan.structural_name +
          "' ... index '" + cp->plan.structural_index->def().name +
          "' (interval" +
          (cp->plan.structural_anchor ? ", anchor join)" : ")"));
      // Lookup, not Intern: planning a query must never mutate the
      // dictionary. An absent name means an empty scan at execution.
      cp->structural_name_id =
          engine_->dict()->Lookup(Slice(cp->plan.structural_name));
    }
  }

  // One evaluation tree: the full query over each candidate document, or
  // for node-level plans the residual over each anchor's subtree.
  const xpath::Path* eval_path = &path;
  xpath::Path residual;
  if (query::IsNodeLevel(cp->plan.method)) {
    const size_t anchor_step = cp->plan.anchor_step;
    // Residual relative path evaluated on each anchor's subtree:
    //   self-context [anchor predicates] / remaining steps...
    residual.absolute = false;
    {
      xpath::Step self;
      self.axis = xpath::Axis::kSelf;
      self.test = xpath::NodeTest::kAnyKind;
      // Anchor predicates are re-evaluated; index exactness already pruned
      // most of the work, and this also covers predicates no index served.
      for (const auto& pred : path.steps[anchor_step].predicates)
        self.predicates.push_back(xpath::CloneExpr(*pred));
      residual.steps.push_back(std::move(self));
    }
    for (size_t i = anchor_step + 1; i < path.steps.size(); i++)
      residual.steps.push_back(xpath::CloneStep(path.steps[i]));

    // Anchor names/structure above the anchor step are verified against the
    // main-path prefix via the stream's descent to each anchor.
    cp->prefix = xpath::PathPattern::Compile(
        xpath::AnchorPrefix(path, anchor_step), *engine_->dict());
    eval_path = &residual;
  }
  XDB_ASSIGN_OR_RETURN(std::unique_ptr<xpath::QueryTree> tree,
                       xpath::QueryTree::Compile(*eval_path, *engine_->dict(),
                                                 options.want_values));
  cp->tree = std::move(tree);
  cp->path = std::move(path);
  return std::shared_ptr<const query::CompiledPlan>(std::move(cp));
}

Result<QueryResult> Collection::ExecuteCompiled(
    Transaction* txn, const query::CompiledPlan& cp,
    const QueryOptions& options, const char* cache_state,
    uint64_t plan_wall_us, bool* plan_stale) {
  *plan_stale = false;
  XDB_RETURN_NOT_OK(GuardRepair());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  // Always-on wait attribution: every WaitSpan crossed while this scope is
  // installed (lock-manager waits, buffer-miss I/O, latch acquisitions,
  // index probes, WAL commits) adds to `waits`, on this thread and — via
  // the per-chunk re-install in FanOut — on pool threads working for this
  // query. Cost when nothing blocks: a TLS store here and two clock reads
  // per span actually crossed.
  obs::WaitStats waits;
  obs::QueryWaitScope wait_scope(&waits);
  QueryResult result;
  const query::QueryPlan& plan = cp.plan;
  // Per-query profile, populated only on request (a default QueryProfile is
  // cheap). The always-on cost of a query is just the engine query counter
  // and latency histogram at the bottom of this function.
  obs::QueryProfile& prof = result.profile;
  if (options.explain || options.trace) {
    prof.enabled = true;
    prof.trace = options.trace;
    prof.collection = meta_.name;
    prof.query = cp.path.ToString();
    prof.access_method = query::AccessMethodName(plan.method);
    prof.reason = plan.reason;
    prof.probes = cp.probe_lines;
    prof.disjunctive = plan.disjunctive;
    prof.need_recheck = plan.need_recheck;
    prof.anchor_step = plan.anchor_step;
    prof.doc_count = cp.doc_count;
    prof.avg_records_per_doc = cp.avg_records_per_doc;
    prof.nodes_per_doc = cp.nodes_per_doc;
    prof.stats_epoch = cp.stats_epoch;
    prof.cost_based = plan.cost_based;
    prof.plan_cache = cache_state;
    // Planning time attributed by the caller: parse+plan+compile on a miss,
    // 0 on a cache hit (the hit path skips all three).
    prof.AddPhase("plan", plan_wall_us, 0);
  }
  uint64_t pages_before = 0;
  if (prof.enabled) {
    // Attributed as a before/after delta of the pool counters; approximate
    // under concurrent load (documented in query_trace.h).
    BufferManagerStats bs = buffer_->stats();
    pages_before = bs.hits + bs.misses;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  Status st = [&]() -> Status {
    result.stats.method = plan.method;

    ReadView view = OpenReadView(at.get());

    // Stage 1: "use indexes to quickly identify a small subset of
    // candidates" — one (doc, anchor) list, documents anchored at their
    // document node. A full scan's candidates are every document, which it
    // lists in stage 2.
    std::vector<Posting> anchors;
    const bool full_scan = plan.method == query::AccessMethod::kFullScan;
    const bool node_level = query::IsNodeLevel(plan.method);
    if (!full_scan) {
      XDB_RETURN_NOT_OK(FindCandidates(cp, &anchors, &result, plan_stale));
      (node_level ? result.stats.candidate_anchors
                  : result.stats.candidate_docs) = anchors.size();
    }

    // Stage 2: "then perform further processing on them" — the plan's tree
    // over each candidate's subtree.
    {
      obs::PhaseTimer timer(&prof, node_level ? "recheck" : "eval");
      NodeLocator* locator = view.locator();
      // A full scan lists, locks and evaluates the documents a batch at a
      // time from DocID `next` (0 once the listing reaches the end). Its
      // one walk over the NodeID leaves keeps each document's entries, and
      // evaluation reads them instead of seeking, so each leaf is read
      // once; a snapshot's entries are in the version index instead.
      uint64_t next = 0;
      do {
        std::vector<NodeIdEntries> listed;  // one per anchor
        uint64_t writes = 0;
        if (full_scan) {
          ReaderMutexLock latch(latch_);
          writes = nodeid_tree_->writes();
          std::vector<uint64_t> docs;
          XDB_RETURN_NOT_OK(node_index_->ListDocs(
              next, kScanBatchEntries, &docs,
              view.snapshot.has_value() ? nullptr : &listed, &next));
          anchors.clear();
          for (uint64_t doc_id : docs) anchors.push_back(DocAnchor(doc_id));
          result.stats.candidate_docs += anchors.size();
        }
        // Doc locks first, all on this thread: they can block, and the
        // transaction's lock table is not safe for concurrent mutation.
        // Locks are held until commit either way, so taking them before any
        // evaluation is equivalent to taking each as its document is
        // reached.
        if (view.lock_docs) {
          for (uint64_t doc_id : query::DistinctDocIds(anchors))
            XDB_RETURN_NOT_OK(engine_->locks()->LockDocument(
                at.get()->id, lock_space_, doc_id, LockMode::kS));
        }
        // A NodeID write between the listing and the locks may have changed
        // a listed document's entries; under the locks they hold still.
        if (!listed.empty()) {
          ReaderMutexLock latch(latch_);
          if (nodeid_tree_->writes() != writes) {
            for (size_t i = 0; i < anchors.size(); i++)
              XDB_RETURN_NOT_OK(node_index_->ListDocEntries(
                  anchors[i].doc_id, Slice(), &listed[i]));
          }
        }
        XDB_RETURN_NOT_OK(FanOut(
            engine_->query_pool(),
            static_cast<size_t>(EffectiveParallelism(options)), anchors,
            &result, [&](size_t begin, size_t end, QueryResult* out) {
              // One document run at a time.
              while (begin < end) {
                size_t run_end = begin + 1;
                while (run_end < end &&
                       anchors[run_end].doc_id == anchors[begin].doc_id)
                  run_end++;
                DocEntriesLocator entries(
                    anchors[begin].doc_id,
                    listed.empty() ? nullptr : &listed[begin]);
                XDB_RETURN_NOT_OK(EvalRun(
                    anchors.data() + begin, anchors.data() + run_end, cp,
                    listed.empty() ? locator : &entries, out));
                begin = run_end;
              }
              return Status::OK();
            }));
      } while (next != 0);
    }
    NormalizeSequence(&result.nodes);
    return Status::OK();
  }();
  // Always-on query accounting: one histogram observe and one or two counter
  // adds per query (the hot-path budget measured in EXPERIMENTS.md).
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  if (engine_ != nullptr) {
    const Engine::QueryMetrics& qm = engine_->query_metrics();
    if (qm.executions != nullptr) qm.executions->Add(1);
    if (qm.parallel_executions != nullptr && prof.chunks > 1)
      qm.parallel_executions->Add(1);
    if (qm.latency_us != nullptr) qm.latency_us->Observe(wall_us);
  }
  if (prof.enabled) {
    BufferManagerStats bs = buffer_->stats();
    prof.pages_fetched = bs.hits + bs.misses - pages_before;
    // "total" covers plan + execution, so the per-phase lines (plan, probe,
    // merge, eval/recheck) sum to it up to untimed glue between phases.
    prof.AddPhase("total", plan_wall_us + wall_us, 0);
    for (size_t s = 0; s < obs::kWaitStateCount; s++) {
      const obs::WaitState ws = static_cast<obs::WaitState>(s);
      const uint64_t c = waits.Count(ws);
      if (c == 0) continue;
      prof.waits.push_back(obs::QueryProfile::WaitLine{
          obs::WaitStateName(ws), waits.TotalUs(ws), c});
    }
    prof.wait_total_us = waits.GrandTotalUs();
  }
  // Slow-query capture (always-on; one comparison when under the
  // threshold). Strings are built only for queries actually captured.
  const uint64_t slow_threshold_us =
      engine_ != nullptr ? engine_->slow_query_threshold_us() : 0;
  if (slow_threshold_us > 0 && plan_wall_us + wall_us >= slow_threshold_us) {
    obs::SlowQueryRecord rec;
    rec.timestamp_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    rec.wall_us = plan_wall_us + wall_us;
    rec.results = result.nodes.size();
    rec.parallelism =
        prof.chunks > 1 ? static_cast<uint64_t>(prof.parallelism) : 1;
    rec.collection = meta_.name;
    rec.query = cp.path.ToString();
    rec.access_method = query::AccessMethodName(plan.method);
    for (size_t s = 0; s < obs::kWaitStateCount; s++) {
      const obs::WaitState ws = static_cast<obs::WaitState>(s);
      rec.wait_us[s] = waits.TotalUs(ws);
      rec.wait_count[s] = waits.Count(ws);
    }
    engine_->slow_queries()->Record(rec);
  }
  XDB_RETURN_NOT_OK(at.Finish(st));
  return result;
}

Status Collection::FindCandidates(const query::CompiledPlan& cp,
                                  std::vector<Posting>* anchors,
                                  QueryResult* result, bool* plan_stale) {
  const query::QueryPlan& plan = cp.plan;
  obs::QueryProfile& prof = result->profile;
  // Probe the indexes under the shared latch (no doc locks held yet, so
  // this cannot invert the doc-lock-before-latch order).
  std::vector<std::vector<Posting>> postings_per_probe;
  std::vector<Posting> structural_postings;
  {
    obs::PhaseTimer timer(&prof, "probe");
    obs::WaitSpan latch_span(engine_->wait_sink(), obs::WaitState::kLatch);
    ReaderMutexLock latch(latch_);
    latch_span.Finish();
    // Structure-version gate: the plan's ValueIndex pointers are only safe
    // to dereference while the index set is the one it was compiled
    // against. A mismatch (index dropped, storage rebuilt) makes the plan
    // stale — the caller replans; it is never served.
    if (index_version_.load(std::memory_order_acquire) != cp.index_version) {
      *plan_stale = true;
      return Status::Busy("plan compiled against a changed index set");
    }
    for (size_t pi = 0; pi < plan.probes.size(); pi++) {
      const query::PlannedProbe& probe = plan.probes[pi];
      std::optional<KeyBound> lo, hi;
      bool not_equal = false;
      XDB_RETURN_NOT_OK(
          query::ProbeBounds(*probe.index, probe.pred, &lo, &hi, &not_equal));
      std::vector<Posting> postings;
      obs::WaitSpan probe_span(engine_->wait_sink(),
                               obs::WaitState::kIndexProbe);
      XDB_RETURN_NOT_OK(probe.index->Scan(lo, hi, &postings));
      probe_span.Finish();
      result->stats.index_postings += postings.size();
      if (prof.trace)
        prof.trace_lines.push_back(
            "probe " + std::to_string(pi) + " index '" +
            probe.index->def().name + "' -> " +
            std::to_string(postings.size()) + " postings");
      postings_per_probe.push_back(std::move(postings));
    }
    // Structural range scan, under the same latch + version gate as the
    // value probes (the plan's StructuralIndex pointer has the same
    // lifetime contract). A never-interned name scans nothing.
    if (plan.structural_index != nullptr &&
        cp.structural_name_id != NameDictionary::kInvalidNameId) {
      obs::WaitSpan probe_span(engine_->wait_sink(),
                               obs::WaitState::kIndexProbe);
      XDB_RETURN_NOT_OK(plan.structural_index->Scan(cp.structural_name_id,
                                                    &structural_postings));
      probe_span.Finish();
      result->stats.index_postings += structural_postings.size();
      if (prof.trace)
        prof.trace_lines.push_back(
            "structural scan index '" + plan.structural_index->def().name +
            "' element '" + plan.structural_name + "' -> " +
            std::to_string(structural_postings.size()) + " entries");
    }
  }

  const char* combine = plan.disjunctive ? "union" : "intersection";
  if (plan.method == query::AccessMethod::kStructuralScan) {
    // The scan IS the anchor list: entries arrive ordered by (doc,
    // document position), which is exactly the (doc, node-ID byte) order
    // the recheck pipeline expects. The prefix pattern plus residual
    // validate the full path around each instance.
    *anchors = std::move(structural_postings);
    if (prof.trace)
      prof.trace_lines.push_back("structural anchors -> " +
                                 std::to_string(anchors->size()) +
                                 " candidates");
  } else {
    // DocID methods anchor each posting at its document node, NodeID
    // methods at the predicate step; one merge combines either kind.
    const bool node_level = query::IsNodeLevel(plan.method);
    {
      obs::PhaseTimer timer(&prof, "merge");
      std::vector<std::vector<Posting>> anchored;
      for (size_t i = 0; i < postings_per_probe.size(); i++) {
        std::vector<Posting> a;
        if (!node_level) {
          a.reserve(postings_per_probe[i].size());
          for (const Posting& p : postings_per_probe[i])
            a.push_back(DocAnchor(p.doc_id));
        } else if (plan.structural_anchor &&
                   plan.probes[i].pred.strip_levels < 0) {
          // Descendant branch: the value node's anchor ancestors come from
          // the structural anchor join instead of level-stripping.
          XDB_RETURN_NOT_OK(query::StructuralAnchorJoin(
              postings_per_probe[i], structural_postings, &a));
        } else {
          XDB_RETURN_NOT_OK(query::AnchorPostings(
              postings_per_probe[i], plan.probes[i].pred.strip_levels, &a));
        }
        anchored.push_back(std::move(a));
      }
      *anchors = plan.disjunctive
                     ? query::UnionPostings(std::move(anchored))
                     : query::IntersectPostings(std::move(anchored));
    }
    if (prof.trace)
      prof.trace_lines.push_back(
          std::string(combine) +
          (node_level ? " of anchored postings -> " : " of doc lists -> ") +
          std::to_string(anchors->size()) +
          (node_level ? " candidate anchors" : " candidate docs"));
  }
  return Status::OK();
}

Status Collection::EvalRun(const Posting* begin, const Posting* end,
                           const query::CompiledPlan& cp, NodeLocator* locator,
                           QueryResult* result) {
  obs::WaitSpan latch_span(engine_->wait_sink(), obs::WaitState::kLatch);
  ReaderMutexLock latch(latch_);
  latch_span.Finish();
  // One NodeID listing, one source and one scan serve the run (a lone
  // anchor's span is its own subtree).
  StoredDocSource source(records_.get(), locator, begin->doc_id);
  SubtreeSpan span(begin->node_id);
  for (const Posting* a = begin + 1; a != end; ++a) span.Extend(a->node_id);
  XDB_RETURN_NOT_OK(source.ListSpan(span));
  xpath::QuickXScan scan(cp.tree.get(), begin->doc_id);
  for (const Posting* a = begin; a != end; ++a)
    XDB_RETURN_NOT_OK(EvalAnchor(*a, cp, &source, &scan, result));
  return Status::OK();
}

Status Collection::EvalAnchor(const Posting& anchor,
                              const query::CompiledPlan& cp,
                              StoredDocSource* source,
                              xpath::QuickXScan* scan, QueryResult* result) {
  // One walk per anchor: the stream's own descent to its root names the
  // anchor's ancestors-or-self, which must match the main-path prefix
  // before its events reach the scan. Only kNotFound is a benign miss (the
  // anchor is invisible at this snapshot, or its posting is stale); any
  // other failure — a damaged page above all — is returned, never read as
  // "no match". On any failure, or a prefix mismatch, nothing is appended
  // or counted.
  const bool doc_anchor = anchor.node_id.empty();
  source->Open(anchor.node_id);
  const uint64_t fetched_before = source->records_fetched();
  scan->Reset(anchor.doc_id);
  NodeSequence hits;  // Finish normalizes the whole vector it is given
  bool matched = false;
  Status st = [&]() -> Status {
    XmlEvent ev;
    XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
    if (!more) return Status::OK();  // the anchor is not in its record
    if (!doc_anchor) {
      std::vector<xpath::NamedStep> path;
      path.reserve(source->root_path().size());
      for (const StoredPathStep& node : source->root_path()) {
        if (node.kind == NodeKind::kElement ||
            node.kind == NodeKind::kAttribute)
          path.push_back({node.local, node.kind == NodeKind::kAttribute});
      }
      if (!cp.prefix.Matches(path)) return Status::OK();
    }
    matched = true;
    scan->Begin();
    while (more) {
      XDB_RETURN_NOT_OK(scan->Feed(ev));
      // Read only what can change the answer: an element nothing inside of
      // which can match is jumped by its stored length.
      if (ev.type == XmlEvent::Type::kStartElement &&
          scan->ChildrenIrrelevant())
        source->SkipChildren();
      XDB_ASSIGN_OR_RETURN(more, source->Next(&ev));
    }
    return scan->Finish(&hits);
  }();
  if (st.IsNotFound()) return Status::OK();
  XDB_RETURN_NOT_OK(st);
  if (!matched) return Status::OK();
  const xpath::QuickXScanStats& ss = scan->stats();
  QueryStats& stats = result->stats;
  stats.records_fetched += source->records_fetched() - fetched_before;
  stats.scan_events += ss.events;
  stats.scan_instances += ss.instances_created;
  stats.scan_peak_live = std::max(stats.scan_peak_live, ss.peak_live_instances);
  stats.docs_evaluated += doc_anchor ? 1 : 0;
  for (ResultNode& r : hits) result->nodes.push_back(std::move(r));
  return Status::OK();
}

int Collection::EffectiveParallelism(const QueryOptions& options) const {
  if (engine_ == nullptr || engine_->query_pool() == nullptr) return 1;
  int p = options.parallelism > 0 ? options.parallelism
                                  : engine_->options().num_query_threads;
  int cap = static_cast<int>(engine_->query_pool()->size()) + 1;
  return std::max(1, std::min(p, cap));
}

Status Collection::GuardRepair() const {
  if (!needs_repair_) return Status::OK();
  return Status::Corruption("collection '" + meta_.name +
                            "' is quarantined pending repair: " +
                            repair_reason_);
}

Status Collection::GuardWrite() const {
  XDB_RETURN_NOT_OK(GuardRepair());
  return engine_->GuardWritable();
}

Result<std::string> Collection::ReadDocTokensForScrub(uint64_t doc_id) {
  ReaderMutexLock latch(latch_);
  StoredDocSource source(records_.get(), node_index_.get(), doc_id);
  TokenWriter tokens;
  XDB_RETURN_NOT_OK(EventsToTokens(&source, &tokens));
  if (tokens.data().size() == 0)
    return Status::Corruption("document " + std::to_string(doc_id) +
                              " reads back empty");
  return tokens.data().ToString();
}

Status Collection::BuildStorage(bool create) {
  buffer_ = std::make_unique<BufferManager>(space_.get(), buffer_pages_);
  buffer_->set_event_log(engine_->events());
  buffer_->set_wait_sink(engine_->wait_sink());
  Engine* eng = engine_;
  buffer_->set_lsn_source(
      [eng] { return eng->wal_ != nullptr ? eng->wal_->size() : 0; });
  records_ = std::make_unique<RecordManager>(buffer_.get());
  if (!create) XDB_RETURN_NOT_OK(records_->Recover());

  // Opens the tree at *root (a new one when creating or when no root was
  // ever recorded) and records its root back into meta_.
  auto open_tree = [&](PageId* root) -> Result<std::unique_ptr<BTree>> {
    obs::Counter* descents = engine_->btree_descents();
    auto tree = create || *root == kInvalidPageId
                    ? BTree::Create(buffer_.get(), descents)
                    : BTree::Open(buffer_.get(), *root, descents);
    if (tree.ok()) *root = tree.value()->root();
    return tree;
  };
  XDB_ASSIGN_OR_RETURN(nodeid_tree_, open_tree(&meta_.nodeid_index_root));
  node_index_ = std::make_unique<NodeIdIndex>(nodeid_tree_.get());
  if (meta_.mvcc_enabled) {
    XDB_ASSIGN_OR_RETURN(versioned_tree_,
                         open_tree(&meta_.versioned_index_root));
    versions_ = std::make_unique<VersionManager>(versioned_tree_.get());
    versions_->InitCounters(meta_.last_version);
  }
  // ListenerFor / StructuralListenerFor, not the Note*Created pair: wiring
  // indexes the stats epoch already accounts for must not bump it.
  for (ValueIndexMeta& vi : meta_.value_indexes) {
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree, open_tree(&vi.root));
    auto index = std::make_unique<ValueIndex>(vi.def, tree.get());
    index->set_stats_listener(stats_.ListenerFor(vi.def.name));
    value_indexes_.push_back(
        OwnedValueIndex{std::move(tree), std::move(index), nullptr, 0});
  }
  for (StructuralIndexMeta& si : meta_.structural_indexes) {
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree, open_tree(&si.root));
    auto index = std::make_unique<StructuralIndex>(si.def, tree.get());
    index->set_stats_listener(stats_.StructuralListenerFor(si.def.name));
    structural_indexes_.push_back(
        OwnedStructuralIndex{std::move(tree), std::move(index)});
  }
  return Status::OK();
}

Status Collection::DeriveStats() {
  WriterMutexLock latch(latch_);
  stats_.ResetEmpty();
  XDB_RETURN_NOT_OK(Backfill({}));
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> docs, node_index_->ListDocIds());
  for (uint64_t doc_id : docs) {
    StoredDocSource source(records_.get(), node_index_.get(), doc_id);
    uint64_t nodes = 0;
    XmlEvent ev;
    for (;;) {
      XDB_ASSIGN_OR_RETURN(bool more, source.Next(&ev));
      if (!more) break;
      nodes += ev.type == XmlEvent::Type::kStartElement ||
               ev.type == XmlEvent::Type::kAttribute ||
               ev.type == XmlEvent::Type::kText;
    }
    stats_.NoteDocumentInserted(nodes);
  }
  return Status::OK();
}

Status Collection::RebuildStorage() {
  WriterMutexLock latch(latch_);
  // Tear down top-down so nothing flushes into the space after it is reset.
  value_indexes_.clear();
  structural_indexes_.clear();
  node_index_.reset();
  versions_.reset();
  nodeid_tree_.reset();
  versioned_tree_.reset();
  records_.reset();
  buffer_.reset();

  if (space_ != nullptr) {
    XDB_RETURN_NOT_OK(space_->Reset());
  } else {
    // The space header itself was unreadable: recreate the file from scratch
    // (Create truncates).
    TableSpaceOptions ts;
    ts.in_memory = engine_->options_.in_memory;
    XDB_ASSIGN_OR_RETURN(space_, TableSpace::Create(space_path_, ts));
    space_->set_event_log(engine_->events());
  }

  XDB_RETURN_NOT_OK(BuildStorage(/*create=*/true));
  // Empty storage, empty statistics.
  stats_.ResetEmpty();
  index_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Invalidate("storage rebuilt");
  return Status::OK();
}

Status Collection::ScrubAndRepair(CollectionScrubReport* report,
                                  std::set<uint64_t>* salvaged_ids,
                                  std::set<uint64_t>* lost_ids) {
  report->collection = meta_.name;
  bool structural = needs_repair_;
  uint64_t corrupt_pages = 0;

  if (space_ != nullptr) {
    // Make the sweep see current state, then read raw below the buffer pool
    // so quarantined pages are inspected too. Flush failures themselves are
    // damage worth repairing, not a reason to abort the scrub.
    if (buffer_ != nullptr) {
      Status fs = buffer_->FlushAll();
      if (!fs.ok()) {
        structural = true;
        report->notes.push_back("flush before scrub: " + fs.ToString());
      }
    }
    const uint32_t psize = space_->page_size();
    std::vector<char> buf(psize);
    for (PageId id = 1; id < space_->page_count(); id++) {
      report->pages_scanned++;
      Status rs = space_->ReadPage(id, buf.data());
      if (!rs.ok()) {
        corrupt_pages++;
        report->checksum_failures++;  // unreadable counts as corrupt
        report->notes.push_back("page " + std::to_string(id) + ": " +
                                rs.ToString());
        continue;
      }
      if (space_->format_version() >= kTableSpaceFormatV2) {
        Status vs = VerifyPageChecksum(buf.data(), psize, id);
        if (!vs.ok()) {
          corrupt_pages++;
          report->checksum_failures++;
          report->notes.push_back(vs.ToString());
          continue;
        }
        if (PageFlags(buf.data()) & kPageFlagFree) continue;
      }
      const char* payload = buf.data() + space_->data_offset();
      if (static_cast<uint8_t>(payload[0]) == kDataPage) {
        Status es =
            RecordManager::VerifyDataPage(payload, space_->usable_page_size());
        if (!es.ok()) {
          corrupt_pages++;
          report->envelope_failures++;
          report->notes.push_back("page " + std::to_string(id) + ": " +
                                  es.ToString());
        }
      }
    }
  }

  bool any_damage = structural || corrupt_pages > 0;
  if (!any_damage && buffer_ != nullptr)
    any_damage = !buffer_->quarantined_pages().empty();
  if (!any_damage) return Status::OK();

  // Salvage every document that still reads back intact, as a serialized
  // token stream (independent of the storage about to be rebuilt). Each
  // allocated DocID is probed, as a walk over the NodeID leaves would stop
  // at a damaged one; a failed probe counts the ID lost, even one deleted
  // before the damage. The IDs lost the same way share one note. Structural
  // damage leaves nothing to probe: every allocated ID counts lost, and
  // the post-replay accounting takes out those the WAL brings back.
  std::vector<std::pair<uint64_t, std::string>> salvage;
  uint64_t next_doc_id;
  {
    MutexLock lock(docid_mu_);
    next_doc_id = meta_.next_doc_id;
  }
  if (!structural) {
    std::map<std::string, std::vector<uint64_t>> lost;  // by failure
    for (uint64_t doc = 1; doc < next_doc_id; doc++) {
      Status exists = CheckExists(doc);
      if (exists.IsNotFound()) continue;  // deleted, or never stored
      Result<std::string> tok =
          exists.ok() ? ReadDocTokensForScrub(doc) : exists;
      if (tok.ok()) {
        salvage.emplace_back(doc, tok.MoveValue());
      } else {
        lost_ids->insert(doc);
        lost[tok.status().ToString()].push_back(doc);
      }
    }
    for (const auto& [why, docs] : lost) {
      report->notes.push_back(std::to_string(docs.size()) + " doc(s) " +
                              std::to_string(docs.front()) + ".." +
                              std::to_string(docs.back()) +
                              " unreadable: " + why);
    }
  } else {
    for (uint64_t doc = 1; doc < next_doc_id; doc++) lost_ids->insert(doc);
    report->notes.push_back("structural corruption (" + repair_reason_ +
                            "); salvage limited to WAL replay");
  }

  XDB_RETURN_NOT_OK(RebuildStorage());
  report->rebuilt = true;
  needs_repair_ = false;
  repair_reason_.clear();

  for (auto& [doc, tokens] : salvage) {
    AutoTxn at(engine_, nullptr, IsolationMode::kLocking);
    Status st = at.Finish(ApplyInsert(at.get(), doc, Slice(tokens), nullptr));
    if (st.ok()) {
      salvaged_ids->insert(doc);
      report->docs_salvaged++;
    } else {
      lost_ids->insert(doc);
      report->notes.push_back("doc " + std::to_string(doc) +
                              " lost during re-insert: " + st.ToString());
    }
  }
  return Status::OK();
}

}  // namespace xdb
