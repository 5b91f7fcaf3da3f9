#include "engine/collection.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <set>

#include "common/coding.h"
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

std::string DocKey(uint64_t doc_id) {
  std::string key;
  PutBig64(&key, doc_id);
  return key;
}

/// Nodes one document contributes to the collection's node-count statistic
/// (elements, attributes, text). One cheap pass over the token buffer; a
/// parse error just under-counts (the estimate self-corrects on churn).
uint64_t CountStatNodes(Slice tokens) {
  TokenReader reader(tokens);
  Token t;
  uint64_t n = 0;
  for (;;) {
    auto more = reader.Next(&t);
    if (!more.ok() || !more.value()) break;
    if (t.kind == TokenKind::kStartElement || t.kind == TokenKind::kAttribute ||
        t.kind == TokenKind::kText)
      n++;
  }
  return n;
}

/// The evaluation stage's one fan-out: runs eval(i, out) for every
/// candidate i in [0, n) and appends to `result` in candidate order. Lists
/// query::PartitionForParallelism leaves unsplit run serially on this
/// thread. Otherwise each contiguous chunk is one pool task writing its own
/// QueryResult, and the chunks merge in chunk order, which reproduces the
/// serial output exactly; the lowest-index chunk's error wins, like a
/// serial loop stopping at its first failure. Doc locks must already be
/// held: the transaction's lock table is not safe for concurrent mutation.
Status FanOut(util::ThreadPool* pool, size_t parallelism, size_t n,
              QueryResult* result,
              const std::function<Status(size_t, QueryResult*)>& eval) {
  std::vector<query::WorkRange> ranges =
      query::PartitionForParallelism(n, parallelism);
  // Unconditional: two plain stores, and the always-on
  // query.parallel_executions counter reads chunks afterwards.
  result->profile.parallelism =
      ranges.empty() ? 1 : static_cast<int>(parallelism);
  result->profile.chunks = ranges.empty() ? 1 : ranges.size();
  if (ranges.empty()) {
    for (size_t i = 0; i < n; i++) XDB_RETURN_NOT_OK(eval(i, result));
    return Status::OK();
  }
  std::vector<QueryResult> chunks(ranges.size());
  std::vector<Status> chunk_status(ranges.size());
  // Pool threads have no wait scope of their own; re-install this query's
  // so per-chunk latch/buffer waits attribute to it (WaitStats is atomic,
  // safe for concurrent Add from every chunk).
  obs::WaitStats* query_waits = obs::QueryWaitScope::current();
  pool->ParallelFor(ranges.size(), parallelism, [&](size_t c) {
    obs::QueryWaitScope chunk_scope(query_waits);
    for (size_t i = ranges[c].begin;
         i < ranges[c].end && chunk_status[c].ok(); i++)
      chunk_status[c] = eval(i, &chunks[c]);
  });
  for (const Status& st : chunk_status) XDB_RETURN_NOT_OK(st);
  for (QueryResult& c : chunks) {
    result->stats.Add(c.stats);
    for (ResultNode& r : c.nodes) result->nodes.push_back(std::move(r));
  }
  return Status::OK();
}

/// Runs one QuickXScan of `tree` over `source` and appends its hits and
/// work counters to `result`. On any failure, kNotFound included, nothing
/// is appended.
Status ScanInto(const xpath::QueryTree* tree, uint64_t doc_id,
                StoredDocSource* source, QueryResult* result) {
  xpath::QuickXScan scan(tree, doc_id);
  NodeSequence hits;
  XDB_RETURN_NOT_OK(scan.Run(source, &hits));
  const xpath::QuickXScanStats& ss = scan.stats();
  result->stats.records_fetched += source->records_fetched();
  result->stats.scan_events += ss.events;
  result->stats.scan_instances += ss.instances_created;
  result->stats.scan_peak_live =
      std::max(result->stats.scan_peak_live, ss.peak_live_instances);
  for (ResultNode& r : hits) result->nodes.push_back(std::move(r));
  return Status::OK();
}

/// The context stream of an edit region: a start event per chain element
/// (root first), then `inner`'s events (the subtree; null without one),
/// then the chain's end events. Linear, predicate-free index paths match
/// on it exactly as on the whole document; only the chain's string values
/// are partial.
class ContextStreamSource : public XmlEventSource {
 public:
  ContextStreamSource(const std::vector<StoredPathStep>* chain,
                      std::unique_ptr<XmlEventSource> inner)
      : chain_(chain), inner_(std::move(inner)) {}

  Result<bool> Next(XmlEvent* event) override {
    const size_t n = chain_->size();
    if (started_ < n) return Chain(started_++, true, event);
    if (inner_ != nullptr) {
      XDB_ASSIGN_OR_RETURN(bool more, inner_->Next(event));
      if (more) return true;
      inner_ = nullptr;
    }
    return ended_ < n && Chain(n - ++ended_, false, event);
  }

 private:
  bool Chain(size_t i, bool start, XmlEvent* event) {
    *event = XmlEvent();
    event->type = start ? XmlEvent::Type::kStartElement
                        : XmlEvent::Type::kEndElement;
    event->local = (*chain_)[i].local;
    event->ns_uri = (*chain_)[i].ns_uri;
    event->node_id = Slice((*chain_)[i].node_id);
    return true;
  }

  const std::vector<StoredPathStep>* chain_;
  std::unique_ptr<XmlEventSource> inner_;
  size_t started_ = 0, ended_ = 0;
};

}  // namespace

Status Collection::ReadLockDoc(Transaction* txn, uint64_t doc_id) {
  if (txn->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled)
    return Status::OK();  // snapshot readers never lock
  return engine_->locks()->LockDocument(txn->id, doc_id, LockMode::kS);
}

Status Collection::WriteLockDoc(Transaction* txn, uint64_t doc_id) {
  return engine_->locks()->LockDocument(txn->id, doc_id, LockMode::kX);
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
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(WriteLockDoc(at.get(), doc_id));
    XDB_RETURN_NOT_OK(engine_->LogInsert(meta_.name, doc_id, tokens));
    XDB_ASSIGN_OR_RETURN(uint64_t got,
                         InsertTokensLocked(at.get(), tokens, doc_id));
    (void)got;
    return Status::OK();
  }();
  XDB_RETURN_NOT_OK(at.Finish(st));
  return doc_id;
}

Result<uint64_t> Collection::InsertTokensLocked(Transaction* txn, Slice tokens,
                                                uint64_t doc_id) {
  WriterMutexLock latch(latch_);
  uint64_t version = 0;
  if (meta_.mvcc_enabled) {
    XDB_ASSIGN_OR_RETURN(version,
                         engine_->txns()->WriteVersion(txn, versions_.get()));
  }
  RecordBuilderOptions rb_options;
  rb_options.record_budget = record_budget_;
  RecordBuilder builder(rb_options);
  Status st = builder.Build(tokens, [&](PackedRecordOut&& rec) -> Status {
    XDB_ASSIGN_OR_RETURN(Rid rid, records_->Insert(rec.bytes));
    XDB_RETURN_NOT_OK(node_index_->AddRecord(doc_id, rec.bytes, rid));
    if (meta_.mvcc_enabled) {
      XDB_RETURN_NOT_OK(
          versions_->AddRecord(doc_id, version, rec.bytes, rid));
    }
    return Status::OK();
  });
  XDB_RETURN_NOT_OK(st);
  XDB_RETURN_NOT_OK(docid_tree_->Insert(DocKey(doc_id), Slice()));
  // Index maintenance stays under the exclusive latch: dropping it here
  // would let concurrent queries scan an index while this document's
  // entries are half-written.
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {}, /*remove=*/false, tokens));
  // Statistics last, so a failed insert never counts. Runs for every insert
  // path — client writes, WAL replay, scrub salvage — which is what keeps
  // the incremental counters in step with the data.
  stats_.NoteDocumentInserted(CountStatNodes(tokens));
  return doc_id;
}

Status Collection::IndexDocument(uint64_t doc_id, const EditRegion& region,
                                 bool remove, Slice fresh_tokens,
                                 IndexScope scope) {
  // "Index keys for the node ID index and XPath value indexes are generated
  // per record" in the paper; here keys are generated in one streaming pass
  // per value index over the region, then mapped to record RIDs through
  // the NodeID index. Only a fresh insert may read its token stream: a
  // token round trip of a stored document renumbers Between()-allocated IDs
  // canonically, naming nodes the document does not have.
  if (value_indexes_.empty() && structural_indexes_.empty())
    return Status::OK();
  StoredTreeNavigator nav(records_.get(), node_index_.get(), doc_id);
  std::vector<StoredPathStep> chain;
  XDB_RETURN_NOT_OK(nav.Path(Slice(region.node_id), &chain));
  if (!chain.empty() &&
      (region.subtree || chain.back().kind != NodeKind::kElement))
    chain.pop_back();  // keep the element ancestors(-or-self)
  auto open_subtree = [&]() -> std::unique_ptr<XmlEventSource> {
    if (!region.subtree) return nullptr;
    if (!fresh_tokens.empty())
      return std::make_unique<TokenStreamSource>(fresh_tokens);
    return std::make_unique<StoredDocSource>(records_.get(), node_index_.get(),
                                             doc_id, region.node_id);
  };
  for (auto& owned : value_indexes_) {
    ValueIndex* index = owned.index.get();
    if (!scope.all() && index != scope.value) continue;
    ContextStreamSource source(&chain, open_subtree());
    XDB_ASSIGN_OR_RETURN(
        NodeSequence hits,
        xpath::EvaluateXPath(index->def().path, *engine_->dict(), &source,
                             doc_id, /*want_values=*/true));
    for (ResultNode& hit : hits) {
      Slice node_id(hit.node_id);
      // A chain element's scanned value misses the text outside the region.
      if (!region.subtree || !node_id.StartsWith(Slice(region.node_id))) {
        XDB_ASSIGN_OR_RETURN(hit.string_value, nav.StringValue(node_id));
      }
      XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, node_id));
      Slice key(hit.string_value);
      XDB_RETURN_NOT_OK(remove ? index->Remove(key, doc_id, node_id, rid)
                               : index->Add(key, doc_id, node_id, rid));
    }
  }
  // One derivation pass over the subtree serves every structural index. A
  // chain element keeps its entry (its node ID is stable); only its span
  // moves, by the subtree's element count.
  std::vector<StructuralIndex*> structural;
  for (auto& owned : structural_indexes_) {
    if (scope.all() || owned.index.get() == scope.structural)
      structural.push_back(owned.index.get());
  }
  if (structural.empty() || !region.subtree) return Status::OK();
  std::unique_ptr<XmlEventSource> source = open_subtree();
  std::vector<StructuralEntry> entries;
  XDB_RETURN_NOT_OK(DeriveStructuralEntries(source.get(), &entries));
  std::vector<NameId> ancestors;
  for (const StoredPathStep& step : chain) ancestors.push_back(step.local);
  for (StructuralIndex* index : structural)
    XDB_RETURN_NOT_OK(
        index->Apply(*engine_->dict(), doc_id, entries, ancestors, remove));
  return Status::OK();
}

Status Collection::Backfill(IndexScope scope) {
  XDB_ASSIGN_OR_RETURN(std::vector<uint64_t> docs, ListDocIdsUnlocked());
  for (uint64_t doc_id : docs)
    XDB_RETURN_NOT_OK(IndexDocument(doc_id, {}, /*remove=*/false, {}, scope));
  return Status::OK();
}

Result<std::string> Collection::GetDocumentText(Transaction* txn,
                                                uint64_t doc_id) {
  XDB_RETURN_NOT_OK(GuardRepair());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  std::string out;
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(ReadLockDoc(at.get(), doc_id));
    ReaderMutexLock latch(latch_);
    NodeLocator* locator = node_index_.get();
    SnapshotLocator snap(versions_.get(), 0);
    if (at.get()->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled) {
      snap = SnapshotLocator(
          versions_.get(),
          engine_->txns()->Snapshot(at.get(), versions_.get()));
      locator = &snap;
    } else {
      XDB_ASSIGN_OR_RETURN(bool exists, docid_tree_->Contains(DocKey(doc_id)));
      if (!exists) return Status::NotFound("no such document");
    }
    StoredDocSource source(records_.get(), locator, doc_id);
    TokenWriter tokens;
    XDB_RETURN_NOT_OK(EventsToTokens(&source, &tokens));
    return SerializeTokens(tokens.data(), *engine_->dict(), {}, &out);
  }();
  XDB_RETURN_NOT_OK(at.Finish(st));
  return out;
}

Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(WriteLockDoc(at.get(), doc_id));
    {
      // The X doc lock pins existence; the latch only protects the B-tree
      // probe itself. WAL append happens outside the latch (replay holds
      // the WAL lock while taking collection latches, so the reverse
      // nesting would be an inversion).
      ReaderMutexLock latch(latch_);
      XDB_ASSIGN_OR_RETURN(bool exists, docid_tree_->Contains(DocKey(doc_id)));
      if (!exists) return Status::NotFound("no such document");
    }
    XDB_RETURN_NOT_OK(engine_->LogDelete(meta_.name, doc_id));
    // Index-entry removal and record deletion happen under one exclusive
    // latch section so queries never observe postings pointing at freed
    // records.
    WriterMutexLock latch(latch_);
    XDB_RETURN_NOT_OK(IndexDocument(doc_id, {}, /*remove=*/true));
    return DeleteDocumentLocked(doc_id);
  }();
  return at.Finish(st);
}

Status Collection::DeleteDocumentLocked(uint64_t doc_id) {
  std::set<uint64_t> rids;
  std::vector<Rid> current;
  XDB_RETURN_NOT_OK(node_index_->ListDocRecords(doc_id, &current));
  for (Rid r : current) rids.insert(r.Pack());
  if (meta_.mvcc_enabled) {
    std::vector<Rid> freed;
    XDB_RETURN_NOT_OK(versions_->PurgeVersionsBefore(
        doc_id, std::numeric_limits<uint64_t>::max(), &freed));
    for (Rid r : freed) rids.insert(r.Pack());
  }
  XDB_RETURN_NOT_OK(node_index_->RemoveDocEntries(doc_id));
  for (uint64_t packed : rids) {
    XDB_RETURN_NOT_OK(records_->Delete(Rid::Unpack(packed)));
  }
  XDB_RETURN_NOT_OK(docid_tree_->Delete(DocKey(doc_id), Slice()));
  stats_.NoteDocumentDeleted();
  return Status::OK();
}

Status Collection::UpdateTextNode(Transaction* txn, uint64_t doc_id,
                                  Slice node_id, Slice new_text) {
  XDB_RETURN_NOT_OK(GuardWrite());
  AutoTxn at(engine_, txn, IsolationMode::kLocking);
  Status st = [&]() -> Status {
    // Subdocument protocol: IX on the document, X on the updated subtree.
    XDB_RETURN_NOT_OK(
        engine_->locks()->LockDocument(at.get()->id, doc_id, LockMode::kIX));
    XDB_RETURN_NOT_OK(engine_->locks()->LockNode(at.get()->id, doc_id,
                                                 node_id, LockMode::kX));
    XDB_RETURN_NOT_OK(
        engine_->LogUpdate(meta_.name, doc_id, node_id, new_text));

    WriterMutexLock latch(latch_);
    XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, node_id));
    std::string old_record;
    XDB_RETURN_NOT_OK(records_->Get(rid, &old_record));
    XDB_ASSIGN_OR_RETURN(std::string new_record,
                         ReplaceTextValue(old_record, node_id, new_text));

    // An in-place update changes the string values of the text node's
    // ancestors only. A copy-on-write also moves every node of the record to
    // a new RID, so there the region is the record's whole context subtree.
    EditRegion region{node_id.ToString(), /*subtree=*/false};
    if (meta_.mvcc_enabled) {
      RecordHeader header;
      Slice payload;
      XDB_RETURN_NOT_OK(ParseRecordHeader(old_record, &header, &payload));
      region = EditRegion{header.context_node_id.ToString(), true};
    }
    XDB_RETURN_NOT_OK(IndexDocument(doc_id, region, /*remove=*/true));
    if (!meta_.mvcc_enabled) {
      XDB_RETURN_NOT_OK(records_->Update(rid, new_record));
      XDB_RETURN_NOT_OK(IndexDocument(doc_id, region, /*remove=*/false));
      stats_.NoteDocumentMutated();
      return Status::OK();
    }

    // MVCC: copy-on-write of the changed record under a new version.
    XDB_ASSIGN_OR_RETURN(
        uint64_t version,
        engine_->txns()->WriteVersion(at.get(), versions_.get()));
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
  }();
  return at.Finish(st);
}

Status Collection::CollectSubtreeRecords(uint64_t doc_id, Slice node_id,
                                         Slice record,
                                         std::vector<Rid>* out) {
  // Proxies inside the subtree name evicted records; those records' context
  // node is inside the subtree, so their entire content (and their own
  // proxies, recursively) belongs to it.
  std::vector<std::string> worklist;
  {
    RecordWalker walker(record);
    XDB_RETURN_NOT_OK(walker.Init());
    for (;;) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) break;
      if (ev.type != RecordWalker::EventType::kStart) continue;
      Slice abs(ev.entry.abs_id);
      if (ev.entry.kind == NodeKind::kProxy) {
        if (abs == node_id || nodeid::IsAncestor(node_id, abs))
          worklist.push_back(ev.entry.abs_id);
      } else if (ev.entry.kind == NodeKind::kElement && abs != node_id &&
                 !nodeid::IsAncestor(abs, node_id) &&
                 !nodeid::IsAncestor(node_id, abs)) {
        walker.SkipChildren();  // disjoint sibling: nothing to find inside
      }
    }
  }
  while (!worklist.empty()) {
    std::string proxy_abs = std::move(worklist.back());
    worklist.pop_back();
    XDB_ASSIGN_OR_RETURN(Rid rid, node_index_->Lookup(doc_id, proxy_abs));
    if (std::find(out->begin(), out->end(), rid) != out->end()) continue;
    out->push_back(rid);
    std::string bytes;
    XDB_RETURN_NOT_OK(records_->Get(rid, &bytes));
    RecordWalker walker((Slice(bytes)));
    XDB_RETURN_NOT_OK(walker.Init());
    for (;;) {
      RecordWalker::Event ev;
      XDB_RETURN_NOT_OK(walker.Next(&ev));
      if (ev.type == RecordWalker::EventType::kDone) break;
      if (ev.type == RecordWalker::EventType::kStart &&
          ev.entry.kind == NodeKind::kProxy)
        worklist.push_back(ev.entry.abs_id);
    }
  }
  return Status::OK();
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
  std::string new_id;
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(
        engine_->locks()->LockDocument(at.get()->id, doc_id, LockMode::kIX));
    XDB_RETURN_NOT_OK(engine_->locks()->LockNode(at.get()->id, doc_id,
                                                 parent_id, LockMode::kX));
    XDB_RETURN_NOT_OK(engine_->LogInsertSubtree(
        meta_.name, doc_id, parent_id, after_sibling_id, tokens.data()));
    WriterMutexLock latch(latch_);
    XDB_ASSIGN_OR_RETURN(new_id, InsertSubtreeLocked(doc_id, parent_id,
                                                     after_sibling_id,
                                                     tokens.data()));
    return Status::OK();
  }();
  XDB_RETURN_NOT_OK(at.Finish(st));
  return new_id;
}

Result<std::string> Collection::InsertSubtreeLocked(uint64_t doc_id,
                                                    Slice parent_id,
                                                    Slice after_sibling_id,
                                                    Slice fragment_tokens) {
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

  // Build the subtree's record, with the parent as its context node.
  uint64_t node_count = 0;
  XDB_ASSIGN_OR_RETURN(std::string entry,
                       BuildSubtreeEntry(fragment_tokens, new_rel,
                                         &node_count));
  // The parent's chain loses its old string-value postings; the new subtree
  // and the chain's new values are posted once the records hold them.
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {parent_id.ToString(), false},
                                  /*remove=*/true));
  XDB_ASSIGN_OR_RETURN(Rid parent_rid,
                       node_index_->Lookup(doc_id, parent_id));
  std::string parent_record;
  XDB_RETURN_NOT_OK(records_->Get(parent_rid, &parent_record));
  RecordHeader parent_header;
  Slice parent_payload;
  XDB_RETURN_NOT_OK(
      ParseRecordHeader(parent_record, &parent_header, &parent_payload));
  RecordHeader header;
  header.context_node_id = parent_id;
  header.namespaces = parent_header.namespaces;
  header.subtree_count = 1;
  // Root path = the element names from the root down to the parent.
  std::vector<StoredPathStep> parent_path;
  XDB_RETURN_NOT_OK(nav.Path(parent_id, &parent_path));
  for (const StoredPathStep& step : parent_path)
    header.root_path.push_back({step.local, step.ns_uri});
  std::string new_record;
  AppendRecordHeader(header, &new_record);
  new_record += entry;
  XDB_ASSIGN_OR_RETURN(Rid new_record_rid, records_->Insert(new_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_record, new_record_rid));

  // Splice a proxy into the parent's child list.
  XDB_ASSIGN_OR_RETURN(std::string new_parent_record,
                       InsertProxyEntry(parent_record, parent_id, new_rel));
  XDB_RETURN_NOT_OK(
      node_index_->RemoveRecord(doc_id, parent_record, parent_rid));
  XDB_RETURN_NOT_OK(records_->Update(parent_rid, new_parent_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_parent_record, parent_rid));

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
  Status st = [&]() -> Status {
    XDB_RETURN_NOT_OK(
        engine_->locks()->LockDocument(at.get()->id, doc_id, LockMode::kIX));
    XDB_RETURN_NOT_OK(engine_->locks()->LockNode(at.get()->id, doc_id,
                                                 node_id, LockMode::kX));
    XDB_RETURN_NOT_OK(
        engine_->LogDeleteSubtree(meta_.name, doc_id, node_id));
    WriterMutexLock latch(latch_);
    return DeleteSubtreeLocked(doc_id, node_id);
  }();
  return at.Finish(st);
}

Status Collection::DeleteSubtreeLocked(uint64_t doc_id, Slice node_id) {
  XDB_ASSIGN_OR_RETURN(Slice parent_id, nodeid::Parent(node_id));
  if (parent_id.empty())
    return Status::InvalidArgument("cannot delete the root element");
  // The subtree's entries go, and so do the postings of the parent's chain,
  // whose string values lose the subtree's text; the chain is re-posted
  // once the records no longer hold the subtree.
  XDB_RETURN_NOT_OK(IndexDocument(doc_id, {node_id.ToString(), true},
                                  /*remove=*/true));

  // The record holding the parent's child list holds either the subtree
  // inline or a proxy for it.
  XDB_ASSIGN_OR_RETURN(Rid parent_rid,
                       node_index_->Lookup(doc_id, parent_id));
  std::string parent_record;
  XDB_RETURN_NOT_OK(records_->Get(parent_rid, &parent_record));

  // Records fully inside the subtree (reachable through proxies).
  std::vector<Rid> doomed;
  XDB_RETURN_NOT_OK(
      CollectSubtreeRecords(doc_id, node_id, parent_record, &doomed));

  bool now_empty = false;
  XDB_ASSIGN_OR_RETURN(std::string new_parent_record,
                       RemoveEntry(parent_record, node_id, &now_empty));
  XDB_RETURN_NOT_OK(
      node_index_->RemoveRecord(doc_id, parent_record, parent_rid));
  XDB_RETURN_NOT_OK(records_->Update(parent_rid, new_parent_record));
  XDB_RETURN_NOT_OK(
      node_index_->AddRecord(doc_id, new_parent_record, parent_rid));

  for (Rid rid : doomed) {
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
  // ddl_mu_ spans the mutation AND its WAL record: a concurrent drop of the
  // same index cannot slip its record into the log between them, so the log
  // order always matches the application order (replay/replica convergence
  // depends on it).
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateValueIndex(def));
  return engine_->LogCreateIndex(meta_.name, def);
}

Status Collection::ApplyCreateValueIndex(const ValueIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
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
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                         BTree::Create(buffer_.get()));
    auto index = std::make_unique<ValueIndex>(def, tree.get());
    ValueIndex* raw = index.get();
    // Stats listener first, so the backfill below is counted too. This bumps
    // the stats epoch, invalidating every cached plan priced without the
    // index.
    raw->set_stats_listener(stats_.NoteIndexCreated(def.name));
    meta_.value_indexes.push_back(ValueIndexMeta{def, tree->root()});
    value_indexes_.push_back(
        OwnedValueIndex{std::move(tree), std::move(index)});

    // Backfill from existing documents, still under the exclusive latch so a
    // concurrent query never plans against a half-backfilled index.
    XDB_RETURN_NOT_OK(Backfill({.value = raw}));
    index_version_.fetch_add(1, std::memory_order_acq_rel);
    plan_cache_.Invalidate("index created");
  }
  // No WAL append here: the logging wrapper (CreateValueIndex) does it,
  // outside the latch — replay holds the WAL lock while taking collection
  // latches, so appending under the latch would deadlock.
  return Status::OK();
}

Status Collection::DropValueIndex(const std::string& name) {
  // Same atomicity as CreateValueIndex: mutation + WAL record under ddl_mu_.
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropValueIndex(name));
  return engine_->LogDropIndex(meta_.name, name);
}

Status Collection::ApplyDropValueIndex(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
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
  // Same DDL atomicity as CreateValueIndex: mutation + WAL record under
  // ddl_mu_ so log order always matches application order.
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateStructuralIndex(def));
  return engine_->LogCreateStructuralIndex(meta_.name, def);
}

Status Collection::ApplyCreateStructuralIndex(const StructuralIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  if (def.name.empty())
    return Status::InvalidArgument("structural index needs a name");
  {
    WriterMutexLock latch(latch_);
    for (auto& owned : structural_indexes_) {
      if (owned.index->def().name == def.name)
        return Status::InvalidArgument("structural index '" + def.name +
                                       "' exists");
    }
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                         BTree::Create(buffer_.get()));
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
  // No WAL append here: the logging wrapper does it outside the latch (see
  // ApplyCreateValueIndex).
  return Status::OK();
}

Status Collection::DropStructuralIndex(const std::string& name) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropStructuralIndex(name));
  return engine_->LogDropStructuralIndex(meta_.name, name);
}

Status Collection::ApplyDropStructuralIndex(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());
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
  return ListDocIdsUnlocked();
}

Result<std::vector<uint64_t>> Collection::ListDocIdsUnlocked() {
  std::vector<uint64_t> out;
  XDB_ASSIGN_OR_RETURN(BTree::Iterator it, docid_tree_->SeekToFirst());
  while (it.Valid()) {
    if (it.key().size() == 8) out.push_back(DecodeBig64(it.key().data()));
    XDB_RETURN_NOT_OK(it.Next());
  }
  return out;
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
  std::vector<Rid> freed;
  XDB_RETURN_NOT_OK(
      versions_->PurgeVersionsBefore(doc_id, keep.value(), &freed));
  // Free records no surviving version references.
  std::set<uint64_t> live;
  // Collect every rid still referenced by any remaining version.
  {
    BTree* tree = versions_->tree();
    std::string start;
    PutBig64(&start, doc_id);
    XDB_ASSIGN_OR_RETURN(BTree::Iterator it, tree->Seek(start));
    while (it.Valid()) {
      if (it.key().size() < 8 || DecodeBig64(it.key().data()) != doc_id) break;
      live.insert(DecodeFixed64(it.value().data()));
      XDB_RETURN_NOT_OK(it.Next());
    }
  }
  for (Rid rid : freed) {
    if (live.count(rid.Pack()) != 0) continue;
    // The unversioned index may still reference it (newest version).
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
    XDB_RETURN_NOT_OK(ReadLockDoc(at.get(), doc_id));
    ReaderMutexLock latch(latch_);
    NodeLocator* locator = node_index_.get();
    SnapshotLocator snap(versions_.get(), 0);
    if (at.get()->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled) {
      snap = SnapshotLocator(
          versions_.get(),
          engine_->txns()->Snapshot(at.get(), versions_.get()));
      locator = &snap;
    }
    StoredDocSource source(records_.get(), locator, doc_id,
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
  const bool cacheable =
      plan_cache_.enabled() && !options.use_heuristic_planner;
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
  XDB_ASSIGN_OR_RETURN(uint64_t docs, DocCount());
  query::CollectionStatsSnapshot snap;
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
    ctx.doc_count = docs;
    // Cheap cardinality statistic (no index walk): stored records per doc.
    uint64_t live = records_->stats().live_records;
    ctx.avg_records_per_doc =
        docs == 0 ? 1.0
                  : static_cast<double>(std::max<uint64_t>(live, docs)) /
                        static_cast<double>(docs);
    // Collected statistics drive the cost model; when they are unavailable
    // (degraded at open) or explicitly bypassed, ChoosePlan falls back to
    // the Section 4.3 heuristic rules. stats_'s mutex is a leaf acquired
    // after latch_ (see the member comment), so snapshotting here is safe.
    snap = stats_.Snapshot();
    if (!options.use_heuristic_planner) ctx.stats = &snap;
    XDB_ASSIGN_OR_RETURN(cp->plan,
                         query::ChoosePlan(path, ctx, options.force));
    cp->avg_records_per_doc = ctx.avg_records_per_doc;
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
  cp->stats_epoch = snap.epoch;
  cp->doc_count = docs;
  cp->nodes_per_doc = snap.valid ? snap.avg_nodes_per_doc() : 0.0;

  // Compile the full query once for scans and per-document evaluation.
  XDB_ASSIGN_OR_RETURN(
      std::unique_ptr<xpath::QueryTree> tree,
      xpath::QueryTree::Compile(path, *engine_->dict(), options.want_values));
  cp->tree = std::move(tree);

  if (query::IsNodeLevel(cp->plan.method)) {
    const size_t anchor_step = cp->plan.anchor_step;
    // Residual relative path evaluated on each anchor's subtree:
    //   self-context [anchor predicates] / remaining steps...
    xpath::Path residual;
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
    // main-path prefix via the record header's root path when the index was
    // only a filter; exact plans skip this.
    xpath::Path prefix_pattern;
    prefix_pattern.absolute = true;
    if (!path.absolute) {
      // Relative queries evaluate with the root element as their implicit
      // context; model that context as a wildcard first step so the
      // prefix check accepts anchors the evaluators actually reach
      // (without it a relative "c" compiles to /c and rejects every
      // non-root anchor).
      xpath::Step ctx;
      ctx.axis = xpath::Axis::kChild;
      ctx.test = xpath::NodeTest::kAnyName;
      prefix_pattern.steps.push_back(std::move(ctx));
    }
    for (size_t i = 0; i <= anchor_step; i++)
      prefix_pattern.steps.push_back(xpath::CloneStep(path.steps[i]));
    for (auto& s : prefix_pattern.steps) s.predicates.clear();

    XDB_ASSIGN_OR_RETURN(
        std::unique_ptr<xpath::QueryTree> residual_tree,
        xpath::QueryTree::Compile(residual, *engine_->dict(),
                                  options.want_values));
    cp->residual_tree = std::move(residual_tree);
    cp->prefix_pattern = std::move(prefix_pattern);
  }
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
    prof.stats_valid = plan.cost_based;
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
    result.stats.explain = plan.explain;

    // Snapshot vs locking read machinery.
    NodeLocator* locator = node_index_.get();
    SnapshotLocator snap(versions_.get(), 0);
    const bool snapshot_read =
        at.get()->mode == IsolationMode::kSnapshot && meta_.mvcc_enabled;
    if (snapshot_read) {
      snap = SnapshotLocator(
          versions_.get(),
          engine_->txns()->Snapshot(at.get(), versions_.get()));
      locator = &snap;
    }

    // Stage 1: "use indexes to quickly identify a small subset of
    // candidates" — a DocID list or an anchor list.
    std::vector<uint64_t> docs;
    std::vector<Posting> anchors;
    XDB_RETURN_NOT_OK(
        FindCandidates(cp, &docs, &anchors, &result, plan_stale));
    result.stats.candidate_docs = docs.size();
    result.stats.candidate_anchors = anchors.size();

    // Stage 2: "then perform further processing on them" — the full query
    // over each candidate document, or the residual over each anchor.
    const bool node_level = query::IsNodeLevel(plan.method);
    {
      obs::PhaseTimer timer(&prof, node_level ? "recheck" : "eval");
      // Doc locks first, all on this thread: they can block, and the
      // transaction's lock table is not safe for concurrent mutation. Locks
      // are held until commit either way, so taking them before any
      // evaluation is equivalent to taking each as its document is reached.
      if (!snapshot_read) {
        for (uint64_t doc_id : docs)
          XDB_RETURN_NOT_OK(ReadLockDoc(at.get(), doc_id));
        for (uint64_t doc_id : query::DistinctDocIds(anchors))
          XDB_RETURN_NOT_OK(ReadLockDoc(at.get(), doc_id));
      }
      const size_t parallelism =
          static_cast<size_t>(EffectiveParallelism(options));
      if (node_level) {
        XDB_RETURN_NOT_OK(FanOut(
            engine_->query_pool(), parallelism, anchors.size(), &result,
            [&](size_t i, QueryResult* out) {
              return EvalAnchor(anchors[i], cp.residual_tree.get(),
                                cp.prefix_pattern, locator, out);
            }));
      } else {
        XDB_RETURN_NOT_OK(FanOut(
            engine_->query_pool(), parallelism, docs.size(), &result,
            [&](size_t i, QueryResult* out) {
              return EvalDoc(docs[i], cp.tree.get(), locator, out);
            }));
      }
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
                                  std::vector<uint64_t>* docs,
                                  std::vector<Posting>* anchors,
                                  QueryResult* result, bool* plan_stale) {
  const query::QueryPlan& plan = cp.plan;
  obs::QueryProfile& prof = result->profile;
  if (plan.method == query::AccessMethod::kFullScan) {
    XDB_ASSIGN_OR_RETURN(*docs, ListDocIds());
    return Status::OK();
  }

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
  } else if (!query::IsNodeLevel(plan.method)) {
    // DocID list / ANDing / ORing.
    {
      obs::PhaseTimer timer(&prof, "merge");
      *docs = query::MergeCandidateDocIds(postings_per_probe, plan.disjunctive);
    }
    if (prof.trace)
      prof.trace_lines.push_back(std::string(combine) + " of doc lists -> " +
                                 std::to_string(docs->size()) +
                                 " candidate docs");
  } else {
    // NodeID-level: anchor each posting at the predicate step.
    {
      obs::PhaseTimer timer(&prof, "merge");
      std::vector<std::vector<Posting>> anchored;
      for (size_t i = 0; i < postings_per_probe.size(); i++) {
        std::vector<Posting> a;
        if (plan.structural_anchor && plan.probes[i].pred.strip_levels < 0) {
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
      prof.trace_lines.push_back(std::string(combine) +
                                 " of anchored postings -> " +
                                 std::to_string(anchors->size()) +
                                 " candidate anchors");
  }
  return Status::OK();
}

Status Collection::EvalAnchor(const Posting& anchor,
                              const xpath::QueryTree* residual,
                              const xpath::Path& prefix_pattern,
                              NodeLocator* locator, QueryResult* result) {
  obs::WaitSpan latch_span(engine_->wait_sink(), obs::WaitState::kLatch);
  ReaderMutexLock latch(latch_);
  latch_span.Finish();
  // Verify the anchor's own path against the main-path prefix. Only
  // kNotFound is a benign miss (the anchor is invisible at this snapshot,
  // or its posting is stale); any other failure — a damaged page above all
  // — is returned, never read as "no match".
  {
    StoredTreeNavigator nav(records_.get(), locator, anchor.doc_id);
    std::vector<StoredPathStep> steps;
    Status st = nav.Path(Slice(anchor.node_id), &steps);
    if (st.IsNotFound()) return Status::OK();
    XDB_RETURN_NOT_OK(st);
    xpath::Path concrete;
    concrete.absolute = true;
    for (const StoredPathStep& node : steps) {
      if (node.kind != NodeKind::kElement && node.kind != NodeKind::kAttribute)
        continue;
      xpath::Step step;
      step.axis = node.kind == NodeKind::kAttribute ? xpath::Axis::kAttribute
                                                    : xpath::Axis::kChild;
      step.test = xpath::NodeTest::kName;
      XDB_ASSIGN_OR_RETURN(step.name, engine_->dict()->Name(node.local));
      concrete.steps.push_back(std::move(step));
    }
    if (!xpath::PathContains(prefix_pattern, concrete)) return Status::OK();
  }

  // Evaluate the residual on the anchor subtree.
  StoredDocSource source(records_.get(), locator, anchor.doc_id,
                         anchor.node_id);
  Status st = ScanInto(residual, anchor.doc_id, &source, result);
  return st.IsNotFound() ? Status::OK() : st;
}

int Collection::EffectiveParallelism(const QueryOptions& options) const {
  if (engine_ == nullptr || engine_->query_pool() == nullptr) return 1;
  int p = options.parallelism > 0 ? options.parallelism
                                  : engine_->options().num_query_threads;
  int cap = static_cast<int>(engine_->query_pool()->size()) + 1;
  return std::max(1, std::min(p, cap));
}

Status Collection::EvalDoc(uint64_t doc_id, const xpath::QueryTree* tree,
                           NodeLocator* locator, QueryResult* result) {
  obs::WaitSpan latch_span(engine_->wait_sink(), obs::WaitState::kLatch);
  ReaderMutexLock latch(latch_);
  latch_span.Finish();
  StoredDocSource source(records_.get(), locator, doc_id);
  Status st = ScanInto(tree, doc_id, &source, result);
  if (st.IsNotFound()) return Status::OK();  // invisible at snapshot
  XDB_RETURN_NOT_OK(st);
  result->stats.docs_evaluated++;
  return Status::OK();
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
  buffer_ = std::make_unique<BufferManager>(space_.get(), buffer_pages_,
                                            buffer_shards_);
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
    auto tree = create || *root == kInvalidPageId
                    ? BTree::Create(buffer_.get())
                    : BTree::Open(buffer_.get(), *root);
    if (tree.ok()) *root = tree.value()->root();
    return tree;
  };
  XDB_ASSIGN_OR_RETURN(docid_tree_, open_tree(&meta_.docid_index_root));
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
        OwnedValueIndex{std::move(tree), std::move(index)});
  }
  std::vector<const StructuralIndex*> rebuild;
  for (StructuralIndexMeta& si : meta_.structural_indexes) {
    const bool old_format = !create && si.root == kInvalidPageId;
    XDB_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree, open_tree(&si.root));
    auto index = std::make_unique<StructuralIndex>(si.def, tree.get());
    index->set_stats_listener(stats_.StructuralListenerFor(si.def.name));
    if (old_format) rebuild.push_back(index.get());
    structural_indexes_.push_back(
        OwnedStructuralIndex{std::move(tree), std::move(index)});
  }
  // Before WAL replay, which then maintains the rebuilt index like any
  // other. The listener adds do not bump the stats epoch.
  if (!rebuild.empty()) {
    WriterMutexLock latch(latch_);
    for (const StructuralIndex* index : rebuild)
      XDB_RETURN_NOT_OK(Backfill({.structural = index}));
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
  docid_tree_.reset();
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
    ts.page_size = page_size_hint_;
    XDB_ASSIGN_OR_RETURN(space_, TableSpace::Create(space_path_, ts));
    space_->set_event_log(engine_->events());
  }

  XDB_RETURN_NOT_OK(BuildStorage(/*create=*/true));
  // Empty storage, empty (but valid) statistics; the epoch stays monotonic
  // so cached-plan keys from before the rebuild can never match again.
  stats_.ResetEmpty(stats_.epoch());
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
  // token stream (independent of the storage about to be rebuilt).
  std::vector<std::pair<uint64_t, std::string>> salvage;
  if (!structural) {
    auto ids = [&]() {
      ReaderMutexLock latch(latch_);
      return ListDocIdsUnlocked();
    }();
    if (ids.ok()) {
      for (uint64_t doc : ids.value()) {
        auto tok = ReadDocTokensForScrub(doc);
        if (tok.ok()) {
          salvage.emplace_back(doc, tok.MoveValue());
        } else {
          lost_ids->insert(doc);
          report->notes.push_back("doc " + std::to_string(doc) +
                                  " unreadable: " + tok.status().ToString());
        }
      }
    } else {
      // DocID index itself is damaged — nothing enumerable; the WAL replay
      // after the rebuild is the only recovery path.
      report->notes.push_back("docid index unreadable: " +
                              ids.status().ToString());
    }
  } else {
    report->notes.push_back("structural corruption (" + repair_reason_ +
                            "); salvage limited to WAL replay");
  }

  XDB_RETURN_NOT_OK(RebuildStorage());
  report->rebuilt = true;
  needs_repair_ = false;
  repair_reason_.clear();

  for (auto& [doc, tokens] : salvage) {
    Transaction txn = engine_->Begin(IsolationMode::kLocking);
    Status st = WriteLockDoc(&txn, doc);
    if (st.ok()) {
      auto res = InsertTokensLocked(&txn, Slice(tokens), doc);
      st = res.ok() ? Status::OK() : res.status();
    }
    if (st.ok()) st = engine_->Commit(&txn);
    else (void)engine_->Abort(&txn);
    if (st.ok()) {
      salvaged_ids->insert(doc);
      report->docs_salvaged++;
    } else {
      lost_ids->insert(doc);
      report->notes.push_back("doc " + std::to_string(doc) +
                              " lost during re-insert: " + st.ToString());
    }
    {
      MutexLock lock(docid_mu_);
      if (doc >= meta_.next_doc_id) meta_.next_doc_id = doc + 1;
    }
  }
  return Status::OK();
}

}  // namespace xdb
