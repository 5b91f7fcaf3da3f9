#include "engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <set>

#include "common/coding.h"
#include "schema/schema_parser.h"

namespace xdb {

Engine::~Engine() {
  // Best-effort flush on clean shutdown; a failure here is what recovery
  // exists for. An engine whose Open failed saves nothing: its catalog and
  // WAL may be all that is left of a database it could not read.
  if (!options_.in_memory && opened_) (void)Checkpoint();
}

Result<std::unique_ptr<Engine>> Engine::Open(const EngineOptions& options) {
  auto engine = std::unique_ptr<Engine>(new Engine());
  engine->options_ = options;
  if (options.replica && !options.in_memory) {
    if (!options.enable_wal)
      return Status::InvalidArgument(
          "a replica requires the WAL: its durability is its own local log");
    engine->replica_.store(true, std::memory_order_release);
  }
  // Observability wiring comes first so every component opened below can
  // already emit events and so the always-on query counters exist before the
  // first query. The collector callback runs under the registry mutex with
  // `engine` guaranteed alive: metrics_ is an Engine member.
  engine->wait_sink_.Register(&engine->metrics_);
  engine->locks_.set_event_log(&engine->events_);
  engine->locks_.set_wait_sink(&engine->wait_sink_);
  engine->query_metrics_.executions =
      engine->metrics_.AddCounter("query.executions");
  engine->query_metrics_.parallel_executions =
      engine->metrics_.AddCounter("query.parallel_executions");
  engine->query_metrics_.latency_us = engine->metrics_.AddHistogram(
      "query.latency_us", obs::Histogram::LatencyBoundsUs());
  engine->btree_descents_ = engine->metrics_.AddCounter("btree.descents");
  engine->plan_cache_counters_.hits =
      engine->metrics_.AddCounter("query.plan_cache.hits");
  engine->plan_cache_counters_.misses =
      engine->metrics_.AddCounter("query.plan_cache.misses");
  engine->plan_cache_counters_.evictions =
      engine->metrics_.AddCounter("query.plan_cache.evictions");
  engine->plan_cache_counters_.invalidations =
      engine->metrics_.AddCounter("query.plan_cache.invalidations");
  {
    Engine* raw = engine.get();
    engine->metrics_.AddCollector([raw](std::vector<obs::Metric>* out) {
      raw->CollectComponentMetrics(out);
    });
  }
  engine->txns_ = std::make_unique<TransactionManager>(&engine->locks_);
  if (options.num_query_threads > 1) {
    // The querying thread is one of the num_query_threads executors, so the
    // shared pool only needs the helpers.
    engine->query_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<size_t>(options.num_query_threads - 1));
  }

  if (options.in_memory) return engine;

  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Status::IOError("cannot create directory " + options.dir);

  // Load the catalog if one exists.
  {
    MutexLock lock(engine->mu_);
    auto cat = LoadCatalog(options.dir + "/catalog.xdb");
    if (cat.ok()) {
      engine->catalog_ = cat.MoveValue();
      XDB_RETURN_NOT_OK(engine->dict_.Load(engine->catalog_.dictionary));
      for (const auto& [name, binary] : engine->catalog_.schemas) {
        XDB_ASSIGN_OR_RETURN(schema::CompiledSchema cs,
                             schema::CompiledSchema::Deserialize(binary));
        engine->schemas_.emplace(name, std::move(cs));
      }
      for (const auto& [name, meta] : engine->catalog_.collections) {
        CollectionOptions copts;
        copts.mvcc = meta.mvcc_enabled;
        copts.schema = meta.schema_name;
        XDB_ASSIGN_OR_RETURN(
            std::unique_ptr<Collection> coll,
            engine->OpenCollection(meta, /*create=*/false, copts));
        engine->collections_.emplace(name, std::move(coll));
      }
      engine->catalog_.stats.clear();  // restored; the next save refills it
    } else if (cat.status().code() != Status::Code::kNotFound) {
      return cat.status();
    }
  }

  if (options.enable_wal) {
    XDB_ASSIGN_OR_RETURN(engine->wal_, WalLog::Open(options.dir + "/wal.log"));
    engine->wal_->set_event_log(&engine->events_);
    engine->wal_->set_wait_sink(&engine->wait_sink_);
    // Group-commit batches are small integers: powers of two 1..256.
    engine->wal_->set_batch_size_histogram(engine->metrics_.AddHistogram(
        "wal.group_commit.batch_size", obs::Histogram::ExponentialBounds(1, 9)));
    engine->events_.Emit(obs::EventKind::kRecoveryBegin, 0, 0, "wal replay");
    XDB_RETURN_NOT_OK(engine->ReplayWal({}, &engine->recovery_.wal));
    engine->events_.Emit(obs::EventKind::kRecoveryEnd,
                         engine->recovery_.wal.records_replayed,
                         engine->recovery_.wal.corrupt_records_skipped,
                         "wal replay done");
    if (engine->recovery_.wal.torn_tail)
      engine->events_.Emit(obs::EventKind::kWalTornTail,
                           engine->recovery_.wal.bytes_skipped, 0,
                           "truncated mid-record tail dropped");
    if (engine->recovery_.wal.corrupt_records_skipped > 0)
      engine->events_.Emit(obs::EventKind::kWalCorruptRecords,
                           engine->recovery_.wal.corrupt_records_skipped,
                           engine->recovery_.wal.bytes_skipped,
                           "corrupt mid-log records skipped");
    if (engine->is_replica()) {
      // Restore the applied watermark: stream base (catalog) plus the intact
      // bytes the local WAL held. A torn tail (crash mid-AppendRaw) is cut
      // off so the next shipped segment lands on an intact record boundary —
      // the torn record was never applied, never acknowledged, and will be
      // re-shipped. Corrupt records *inside* the log (local media damage)
      // cap the watermark the same way: replay skipped them, so counting
      // them as applied would acknowledge stream bytes whose updates this
      // replica silently lost. Truncating at the first damaged record makes
      // the resync path re-ship everything from there; re-applying the
      // records after it is idempotent, like any crash re-apply.
      MutexLock lock(engine->mu_);
      engine->replica_wal_base_ = engine->catalog_.replica_wal_base;
      uint64_t intact = engine->recovery_.wal.end_lsn;
      if (engine->recovery_.wal.corrupt_records_skipped > 0)
        intact = std::min(intact, engine->recovery_.wal.first_corrupt_lsn);
      if (engine->recovery_.wal.torn_tail || intact < engine->wal_->size())
        XDB_RETURN_NOT_OK(engine->wal_->TruncateTo(intact));
      engine->PublishAppliedCsn(engine->replica_wal_base_ + intact);
    }
  }
  // Quarantine decisions can come from open (structural damage) or from the
  // replay itself hitting a corrupt page — collect them all here.
  {
    MutexLock lock(engine->mu_);
    for (const auto& [name, coll] : engine->collections_)
      if (coll->needs_repair())
        engine->recovery_.quarantined_collections.push_back(name);
  }
  for (const std::string& name : engine->recovery_.quarantined_collections)
    engine->events_.Emit(obs::EventKind::kCollectionQuarantined, 0, 0,
                         "collection '" + name + "' quarantined at open");
  if (engine->recovery_.wal.corrupt_records_skipped > 0)
    engine->recovery_.warning +=
        "wal: skipped " +
        std::to_string(engine->recovery_.wal.corrupt_records_skipped) +
        " corrupt mid-log record(s); ";
  for (const std::string& name : engine->recovery_.quarantined_collections)
    engine->recovery_.warning +=
        "collection '" + name + "' quarantined (run Scrub to repair); ";
  // Everything in the dictionary now is recoverable: it came from the
  // catalog or was just replayed from kDefineName records still in the WAL.
  {
    MutexLock nlock(engine->wal_names_mu_);
    engine->wal_names_logged_ = engine->dict_.size();
  }
  engine->opened_ = true;
  return engine;
}

Result<std::unique_ptr<Collection>> Engine::OpenCollection(
    const CollectionMeta& meta, bool create, const CollectionOptions& options) {
  auto coll = std::unique_ptr<Collection>(new Collection());
  coll->engine_ = this;
  coll->meta_ = meta;
  coll->plan_cache_.Configure(options_.plan_cache_capacity,
                              plan_cache_counters_, &events_, meta.name);
  coll->record_budget_ = options.record_budget;
  coll->buffer_pages_ = options.buffer_pages;
  coll->lock_space_ = next_lock_space_++;

  TableSpaceOptions ts_options;
  ts_options.in_memory = options_.in_memory;
  std::string path =
      options_.in_memory ? "" : options_.dir + "/" + meta.space_file;
  coll->space_path_ = path;

  Status st = [&]() -> Status {
    if (create) {
      XDB_ASSIGN_OR_RETURN(coll->space_, TableSpace::Create(path, ts_options));
    } else {
      XDB_ASSIGN_OR_RETURN(coll->space_, TableSpace::Open(path, ts_options));
    }
    coll->space_->set_event_log(&events_);
    return coll->BuildStorage(create);
  }();
  if (st.ok() && !create) st = RestoreStats(coll.get());
  if (!st.ok()) {
    if (!create && (st.IsCorruption() || st.IsIOError())) {
      // Structural damage in an existing collection: open it as a
      // quarantined shell so the rest of the database stays available and
      // Scrub() can rebuild it, instead of failing the whole Open().
      coll->needs_repair_ = true;
      coll->repair_reason_ = st.ToString();
      return coll;
    }
    return st;
  }
  return coll;
}

Status Engine::RestoreStats(Collection* coll) {
  // Before WAL replay, which then runs the same incremental maintenance on
  // top of these counts that the replayed operations ran originally.
  const std::string& name = coll->name();
  Status cause = catalog_.stats_status;
  XDB_ASSIGN_OR_RETURN(bool agreed, coll->ReconcileLegacyDocList());
  auto blob = catalog_.stats.find(name);
  if (!agreed) {
    cause = Status::NotFound(
        "the DocID tree listed other documents than the NodeID index");
  } else if (blob != catalog_.stats.end()) {
    cause = coll->stats()->Restore(Slice(blob->second));
    if (cause.ok()) return Status::OK();
  } else if (cause.ok()) {
    cause = Status::NotFound("no statistics saved for the collection");
  }
  events_.Emit(obs::EventKind::kStatsDerived, 0, 0,
               "collection '" + name + "': statistics re-derived (" +
                   cause.ToString() + ")");
  return coll->DeriveStats();
}

Status Engine::GuardWritable() const {
  if (replica_.load(std::memory_order_acquire))
    return Status::NotSupported("replica is read-only (promote it to write)");
  return Status::OK();
}

Result<Collection*> Engine::CreateCollection(const std::string& name,
                                             const CollectionOptions& options) {
  XDB_RETURN_NOT_OK(GuardWritable());
  MutexLock lock(mu_);
  XDB_ASSIGN_OR_RETURN(Collection * raw, CreateCollectionLocked(name, options));
  XDB_RETURN_NOT_OK(LogRecord({.type = WalRecordType::kCreateCollection,
                               .collection = name, .mvcc = options.mvcc,
                               .schema = options.schema}));
  return raw;
}

Result<Collection*> Engine::CreateCollectionLocked(
    const std::string& name, const CollectionOptions& options) {
  if (collections_.find(name) != collections_.end())
    return Status::InvalidArgument("collection '" + name + "' exists");
  if (!options.schema.empty() &&
      schemas_.find(options.schema) == schemas_.end())
    return Status::InvalidArgument("schema '" + options.schema +
                                   "' is not registered");
  CollectionMeta meta;
  meta.name = name;
  meta.space_file = name + ".xts";
  meta.mvcc_enabled = options.mvcc;
  meta.schema_name = options.schema;
  XDB_ASSIGN_OR_RETURN(std::unique_ptr<Collection> coll,
                       OpenCollection(meta, /*create=*/true, options));
  Collection* raw = coll.get();
  collections_.emplace(name, std::move(coll));
  return raw;
}

Result<Collection*> Engine::GetCollection(const std::string& name) {
  MutexLock lock(mu_);
  auto it = collections_.find(name);
  if (it == collections_.end())
    return Status::NotFound("no collection '" + name + "'");
  return it->second.get();
}

Status Engine::DropCollection(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWritable());
  MutexLock lock(mu_);
  XDB_RETURN_NOT_OK(DropCollectionLocked(name));
  return LogRecord(
      {.type = WalRecordType::kDropCollection, .collection = name});
}

Status Engine::DropCollectionLocked(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end())
    return Status::NotFound("no collection '" + name + "'");
  std::string file = options_.dir + "/" + it->second->meta().space_file;
  collections_.erase(it);
  catalog_.collections.erase(name);
  if (!options_.in_memory) ::remove(file.c_str());
  return Status::OK();
}

Status Engine::RegisterSchema(const std::string& name, Slice schema_text) {
  XDB_RETURN_NOT_OK(GuardWritable());
  XDB_ASSIGN_OR_RETURN(schema::SchemaDoc doc,
                       schema::ParseSchema(schema_text));
  XDB_ASSIGN_OR_RETURN(schema::CompiledSchema cs, schema::CompileSchema(doc));
  std::string binary;
  cs.Serialize(&binary);
  MutexLock lock(mu_);
  XDB_RETURN_NOT_OK(RegisterSchemaBinaryLocked(name, binary));
  return LogRecord(
      {.type = WalRecordType::kRegisterSchema, .body = binary, .schema = name});
}

Status Engine::RegisterSchemaBinaryLocked(const std::string& name,
                                          Slice binary) {
  XDB_ASSIGN_OR_RETURN(schema::CompiledSchema cs,
                       schema::CompiledSchema::Deserialize(binary));
  schemas_[name] = std::move(cs);
  catalog_.schemas[name] = binary.ToString();
  return Status::OK();
}

Result<const schema::CompiledSchema*> Engine::FindSchema(
    const std::string& name) {
  MutexLock lock(mu_);
  auto it = schemas_.find(name);
  if (it == schemas_.end())
    return Status::NotFound("schema '" + name + "' is not registered");
  return &it->second;
}

Transaction Engine::Begin(IsolationMode mode) { return txns_->Begin(mode); }

Status Engine::Checkpoint() {
  if (options_.in_memory) return Status::OK();
  MutexLock lock(mu_);
  events_.Emit(obs::EventKind::kCheckpointBegin, collections_.size(), 0,
               "checkpoint");
  catalog_.collections.clear();
  catalog_.stats.clear();
  bool any_quarantined = false;
  for (auto& [name, coll] : collections_) {
    if (coll->needs_repair_) {
      // Leave the damaged files and the last good metadata untouched so
      // Scrub() still has everything to repair from. No statistics either:
      // a reopen before the repair re-derives them from the stored data.
      any_quarantined = true;
      catalog_.collections.emplace(name, coll->meta_);
      continue;
    }
    // The shared latch excludes concurrent document writers (who hold it
    // exclusively) while the pool flushes — FlushAll requires that no page
    // payload changes under it. Readers may proceed. The doc-id mutex
    // covers the meta_.next_doc_id read in the copy below.
    ReaderMutexLock latch(coll->latch_);
    XDB_RETURN_NOT_OK(coll->buffer_->FlushAll());
    XDB_RETURN_NOT_OK(coll->space_->Sync());
    CollectionMeta meta;
    {
      MutexLock dlock(coll->docid_mu_);
      meta = coll->meta_;
    }
    if (coll->versions_ != nullptr)
      meta.last_version = coll->versions_->BeginSnapshot();
    // Stable under the shared latch: every stats mutator runs holding it
    // exclusively, so the blob describes exactly the flushed data whose
    // roots the same catalog write commits.
    coll->stats_.Serialize(&catalog_.stats[name]);
    catalog_.collections.emplace(name, std::move(meta));
  }
  catalog_.dictionary.clear();
  // Capture the size before Save: names interned concurrently may or may not
  // make the saved snapshot, and re-logging one is harmless (replay skips
  // ids it already knows) while failing to log one loses it.
  size_t saved_names = dict_.size();
  dict_.Save(&catalog_.dictionary);
  // On a replica the saved base must describe the WAL image this catalog
  // can coexist with — which is still the *current* one; the post-reset base
  // is committed by a second save below, so a crash in between only ever
  // undercounts the applied position (safe: re-ship + idempotent re-apply).
  catalog_.replica_wal_base = replica_wal_base_;
  // SaveCatalog returns once the catalog is on the medium, so the WAL it
  // supersedes may be reset below.
  XDB_RETURN_NOT_OK(SaveCatalog(catalog_, options_.dir + "/catalog.xdb"));
  // The WAL may still be the only copy of a quarantined collection's
  // post-checkpoint history — keep it until Scrub() has repaired everything.
  // MaybeReset also refuses while an attached replication shipper still
  // needs unshipped (or unacknowledged) bytes — a truncation there would
  // silently punch a hole in the replication stream.
  if (wal_ != nullptr && !any_quarantined) {
    XDB_ASSIGN_OR_RETURN(bool reset, wal_->MaybeReset());
    if (reset) {
      {
        MutexLock nlock(wal_names_mu_);
        wal_names_logged_ = saved_names;
      }
      if (replica_.load(std::memory_order_acquire)) {
        // The local WAL just restarted at byte 0: commit the new base. A
        // crash before this save leaves the old base with an empty WAL —
        // an undercount the resync path absorbs.
        replica_wal_base_ = applied_csn_.load(std::memory_order_acquire);
        catalog_.replica_wal_base = replica_wal_base_;
        XDB_RETURN_NOT_OK(
            SaveCatalog(catalog_, options_.dir + "/catalog.xdb"));
      }
    }
  }
  events_.Emit(obs::EventKind::kCheckpointEnd, collections_.size(),
               any_quarantined ? 1 : 0, "checkpoint done");
  return Status::OK();
}

Status Engine::LogRecord(const WalRecord& rec) {
  if (wal_ == nullptr) return Status::OK();
  // A token stream names dictionary entries: the new ones are logged first.
  if (rec.type == WalRecordType::kInsertDocument ||
      rec.type == WalRecordType::kInsertSubtree) {
    MutexLock lock(wal_names_mu_);
    while (wal_names_logged_ < dict_.size()) {
      NameId id = static_cast<NameId>(wal_names_logged_);
      XDB_ASSIGN_OR_RETURN(std::string name, dict_.Name(id));
      XDB_RETURN_NOT_OK(
          wal_->Append(WalRecordType::kDefineName,
                       EncodeWalRecord({.type = WalRecordType::kDefineName,
                                        .body = name, .name_id = id}))
              .status());
      wal_names_logged_ = id + 1;
    }
  }
  XDB_RETURN_NOT_OK(wal_->Append(rec.type, EncodeWalRecord(rec)).status());
  // Group commit: under sync_commits every logged operation becomes durable
  // before it returns, but concurrent committers share one fdatasync.
  if (options_.sync_commits) return wal_->Commit();
  return Status::OK();
}

Status Engine::ReplayWal(const ReplayFilter& filter, WalReplayInfo* info) {
  // Replay is single-threaded but mutates catalog state (collections_ via
  // the visitor), so it runs under mu_. The visitor is a separate function
  // to the analysis and cannot see the lock held here, hence the opt-out.
  MutexLock lock(mu_);
  return wal_->Replay(
      [&](uint64_t lsn, WalRecordType type,
          Slice payload) XDB_NO_THREAD_SAFETY_ANALYSIS -> Status {
        return ApplyWalRecordLocked(lsn, type, payload, filter);
      },
      info);
}

Status Engine::ApplyWalRecordLocked(uint64_t lsn, WalRecordType type,
                                    Slice payload,
                                    const ReplayFilter& filter) {
  // Every field is decoded before anything applies. A record that passed
  // its CRC yet does not decode comes from a writer bug or version skew,
  // not media damage, and skipping it could drop a collection or an index
  // and everything logged after it; so it fails the replay (Open, or the
  // replica's segment apply) with Corruption naming the record.
  Result<WalRecord> decoded = DecodeWalRecord(type, payload);
  if (!decoded.ok())
    return Status::Corruption("wal record at lsn " + std::to_string(lsn) +
                              " (type " +
                              std::to_string(static_cast<int>(type)) +
                              ") does not decode: " +
                              decoded.status().message());
  const WalRecord& rec = decoded.value();
  const std::string name = rec.collection.ToString();
  // DDL records always apply (the filter is a per-document concept). Each
  // is idempotent: re-applying after a crash, or applying a re-shipped
  // segment on a replica, finds the object already in (or already out of)
  // the catalog and succeeds.
  switch (type) {
    case WalRecordType::kDefineName:
      if (rec.name_id < dict_.size()) return Status::OK();  // in the catalog
      if (rec.name_id != dict_.size())
        return Status::Corruption("wal name record out of order");
      dict_.Intern(rec.body);
      return Status::OK();
    case WalRecordType::kCreateCollection: {
      if (collections_.count(name) > 0) return Status::OK();  // redone
      CollectionOptions copts;
      copts.mvcc = rec.mvcc;
      copts.schema = rec.schema.ToString();
      return CreateCollectionLocked(name, copts).status();
    }
    case WalRecordType::kDropCollection: {
      Status st = DropCollectionLocked(name);
      return st.IsNotFound() ? Status::OK() : st;  // already gone
    }
    case WalRecordType::kRegisterSchema:
      return RegisterSchemaBinaryLocked(rec.schema.ToString(), rec.body);
    default:
      break;
  }
  // The collection the record names. A dropped one (later in the log) or a
  // quarantined one takes no records: the latter cannot take replay until
  // Scrub() has rebuilt its storage, and Scrub then re-runs the replay with
  // a filter.
  auto cit = collections_.find(name);
  if (cit == collections_.end() || cit->second->needs_repair())
    return Status::OK();
  Collection* coll = cit->second.get();
  // Index DDL runs the Apply* bodies: no ddl_mu_ (crash replay holds the WAL
  // mutex, which client DDL takes after ddl_mu_, so nesting the other way
  // would deadlock), no guard and no WAL record.
  switch (type) {
    case WalRecordType::kCreateValueIndex: {
      const ValueIndexDef def{rec.index_name.ToString(),
                              rec.index_path.ToString(), rec.value_type,
                              rec.max_string_len};
      if (coll->FindValueIndex(def.name) != nullptr) return Status::OK();
      return coll->ApplyCreateValueIndex(def);
    }
    case WalRecordType::kDropValueIndex: {
      Status st = coll->ApplyDropValueIndex(rec.index_name.ToString());
      return st.IsNotFound() ? Status::OK() : st;
    }
    case WalRecordType::kCreateStructuralIndex: {
      const StructuralIndexDef def{rec.index_name.ToString(),
                                   rec.index_path.ToString()};
      if (coll->FindStructuralIndex(def.name) != nullptr) return Status::OK();
      return coll->ApplyCreateStructuralIndex(def);
    }
    case WalRecordType::kDropStructuralIndex: {
      Status st = coll->ApplyDropStructuralIndex(rec.index_name.ToString());
      return st.IsNotFound() ? Status::OK() : st;
    }
    default:
      break;
  }
  // A document record runs the client write's body in a transaction of its
  // own: the same X lock, latch and record, index and statistics work. It
  // re-runs onto whatever image the table space holds, which need not be
  // the last checkpoint's (ROADMAP item 9), so two guesses stand in for
  // knowing what was done: an insert whose document exists is redone, and
  // an edit that finds nothing to change is already done.
  if (filter && !filter(name, rec.doc_id)) return Status::OK();
  Transaction txn = Begin(IsolationMode::kLocking);
  Status st;
  switch (type) {
    case WalRecordType::kInsertDocument:
      st = coll->CheckExists(rec.doc_id);
      if (st.IsNotFound())
        st = coll->ApplyInsert(&txn, rec.doc_id, rec.body, nullptr);
      break;
    case WalRecordType::kDeleteDocument:
      st = coll->ApplyDelete(&txn, rec.doc_id, nullptr);
      break;
    case WalRecordType::kUpdateNode:
      st = coll->ApplyTextUpdate(&txn, rec.doc_id, rec.node_id, rec.body,
                                 nullptr);
      break;
    case WalRecordType::kInsertSubtree:
      st = coll->ApplySubtreeInsert(&txn, rec.doc_id, rec.node_id,
                                    rec.after_id, rec.body, nullptr)
               .status();
      break;
    default:
      st = coll->ApplySubtreeDelete(&txn, rec.doc_id, rec.node_id, nullptr);
  }
  if (st.ok()) {
    st = Commit(&txn);
  } else {
    (void)Abort(&txn);
  }
  if (st.IsNotFound() && type != WalRecordType::kInsertDocument)
    return Status::OK();
  if (st.IsCorruption() || st.IsIOError()) {
    // Replay ran into damaged storage. Failing Open() here would take the
    // whole database down; instead quarantine the collection (skipping its
    // remaining records — the WAL survives until Scrub() repairs it).
    coll->needs_repair_ = true;
    coll->repair_reason_ = "wal replay: " + st.ToString();
    return Status::OK();
  }
  return st;
}

Status Engine::ApplyReplicatedRecords(Slice framed_records,
                                      uint64_t publish_csn,
                                      WalReplayInfo* info) {
  // The applier thread's time in here is the replica's "apply lag" cost;
  // attribute the whole call (local append + apply + publish) as kReplApply.
  obs::WaitSpan apply_span(&wait_sink_, obs::WaitState::kReplApply);
  MutexLock lock(mu_);
  if (!replica_.load(std::memory_order_acquire))
    return Status::NotSupported(
        "not a replica (stale segments cannot apply to promoted state)");
  if (wal_ == nullptr) return Status::NotSupported("replica has no WAL");
  if (framed_records.empty()) {
    PublishAppliedCsn(publish_csn);
    return Status::OK();
  }
  // Durability first: land the shipped bytes in the local log, then apply.
  // A crash after the append replays these records from the local WAL at
  // reopen; a crash during it leaves a torn tail that reopen truncates. The
  // watermark is published only over records that applied, so an
  // acknowledged CSN is always a durably *applied* CSN.
  XDB_ASSIGN_OR_RETURN(const uint64_t append_lsn,
                       wal_->AppendRaw(framed_records));
  if (options_.sync_commits) XDB_RETURN_NOT_OK(wal_->Commit());
  const uint64_t base_csn = publish_csn - framed_records.size();
  uint64_t failed_csn = base_csn;  // the record the apply stopped at
  Status s = ScanWalRecords(
      framed_records, base_csn,
      [&](uint64_t lsn, WalRecordType type,
          Slice payload) XDB_NO_THREAD_SAFETY_ANALYSIS -> Status {
        failed_csn = lsn;
        return ApplyWalRecordLocked(lsn, type, payload, {});
      },
      info);
  if (!s.ok()) {
    // A record failed to apply (e.g. a corrupt DDL payload, or a lock wait
    // behind a replica reader that timed out). The records before it did
    // apply: their bytes stay in the local log and the watermark moves to
    // the failed record, so the resync re-ships from there and no record
    // runs twice (a re-run subtree insert would add a second subtree). The
    // rest is never acknowledged and must not stay in the local log: the
    // watermark is reconstructed at reopen as base + WAL length, and
    // leaving those bytes appended would double-count the re-shipped ones.
    const uint64_t kept = failed_csn - base_csn;
    Status trunc = wal_->TruncateTo(append_lsn + kept);
    if (!trunc.ok()) {
      events_.Emit(obs::EventKind::kReplicaStalled, append_lsn + kept, 0,
                   "repl: failed-apply rollback truncate failed: " +
                       trunc.ToString());
    } else if (kept > 0) {
      PublishAppliedCsn(failed_csn);
    }
    return s;
  }
  PublishAppliedCsn(publish_csn);
  return Status::OK();
}

void Engine::PublishAppliedCsn(uint64_t csn) {
  MutexLock lock(fresh_mu_);
  applied_csn_.store(csn, std::memory_order_release);
  fresh_cv_.NotifyAll();
}

Status Engine::WaitForFreshness(uint64_t min_csn, uint64_t timeout_us) {
  if (min_csn == 0 || !replica_.load(std::memory_order_acquire))
    return Status::OK();
  if (applied_csn_.load(std::memory_order_acquire) >= min_csn)
    return Status::OK();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  // Only reached when the replica is actually behind: the span covers the
  // blocking wait (or the immediate-stale path), never the fresh fast path
  // above. fresh_mu_ is the span's own component lock (kEngineFreshness).
  obs::WaitSpan fresh_span(&wait_sink_, obs::WaitState::kFreshness);
  MutexLock lock(fresh_mu_);
  while (applied_csn_.load(std::memory_order_acquire) < min_csn) {
    if (timeout_us == 0 ||
        fresh_cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      // One last check: the publish may have raced the timeout.
      if (applied_csn_.load(std::memory_order_acquire) >= min_csn)
        return Status::OK();
      return Status::Stale(
          "replica applied csn " +
          std::to_string(applied_csn_.load(std::memory_order_acquire)) +
          " < required " + std::to_string(min_csn));
    }
  }
  return Status::OK();
}

Status Engine::Promote() {
  if (!replica_.load(std::memory_order_acquire))
    return Status::InvalidArgument("engine is not a replica");
  // Scrub is the promotion gate: a full page sweep (every checksum, every
  // record envelope), repair of anything damaged, and a checkpoint — the
  // promoted primary starts from a verified durable image rather than
  // whatever mix of pages and WAL tail the apply pipeline left behind.
  XDB_ASSIGN_OR_RETURN(ScrubReport report, Scrub());
  replica_.store(false, std::memory_order_release);
  events_.Emit(obs::EventKind::kPromoted,
               applied_csn_.load(std::memory_order_acquire),
               report.clean ? 0 : 1, "replica promoted to primary");
  return Status::OK();
}

Result<ScrubReport> Engine::Scrub() {
  ScrubReport report;
  std::vector<Collection*> colls;
  {
    MutexLock lock(mu_);
    for (auto& [name, coll] : collections_) colls.push_back(coll.get());
  }
  events_.Emit(obs::EventKind::kScrubBegin, colls.size(), 0, "scrub");

  std::map<std::string, std::set<uint64_t>> salvaged, lost;
  std::map<std::string, bool> rebuilt;
  for (Collection* coll : colls) {
    CollectionScrubReport crep;
    XDB_RETURN_NOT_OK(coll->ScrubAndRepair(&crep, &salvaged[coll->name()],
                                           &lost[coll->name()]));
    rebuilt[coll->name()] = crep.rebuilt;
    if (crep.checksum_failures + crep.envelope_failures > 0 || crep.rebuilt)
      events_.Emit(obs::EventKind::kScrubFinding, crep.checksum_failures,
                   crep.envelope_failures,
                   "collection '" + crep.collection + "'" +
                       (crep.rebuilt ? " rebuilt" : " damaged"));
    report.collections.push_back(std::move(crep));
  }

  bool any_rebuilt = false;
  for (const auto& [name, r] : rebuilt) any_rebuilt = any_rebuilt || r;
  if (any_rebuilt && wal_ != nullptr) {
    // Replay only what the salvage pass could not restore: records of
    // rebuilt collections for documents that were NOT re-inserted (salvaged
    // documents already contain their post-insert updates, so re-applying
    // their records would duplicate work or whole subtrees).
    XDB_RETURN_NOT_OK(ReplayWal(
        [&](const std::string& coll, uint64_t doc_id) {
          auto it = rebuilt.find(coll);
          if (it == rebuilt.end() || !it->second) return false;
          return salvaged[coll].count(doc_id) == 0;
        },
        &report.replay));
  }

  // Post-replay accounting: which lost documents came back from the WAL,
  // which are gone for good.
  for (CollectionScrubReport& crep : report.collections) {
    if (!crep.rebuilt) continue;
    auto cres = GetCollection(crep.collection);
    if (!cres.ok()) continue;
    auto ids = cres.value()->ListDocIds();
    if (!ids.ok()) continue;
    std::set<uint64_t> present(ids.value().begin(), ids.value().end());
    for (uint64_t id : present)
      if (salvaged[crep.collection].count(id) == 0)
        crep.docs_recovered_from_wal++;
    for (uint64_t id : lost[crep.collection])
      if (present.count(id) == 0) crep.docs_lost++;
  }

  for (const CollectionScrubReport& crep : report.collections)
    report.clean = report.clean && !crep.rebuilt &&
                   crep.checksum_failures == 0 && crep.envelope_failures == 0;

  // Persist the repaired state and retire the WAL records it covers.
  XDB_RETURN_NOT_OK(Checkpoint());
  events_.Emit(obs::EventKind::kScrubEnd, report.collections.size(),
               report.clean ? 0 : 1, report.clean ? "scrub clean"
                                                  : "scrub repaired damage");
  return report;
}

obs::MetricsSnapshot Engine::MetricsSnapshot() const {
  return metrics_.Snapshot();
}

obs::DebugSnapshot Engine::DebugSnapshot() const {
  obs::DebugSnapshot snap;
  snap.captured_at_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  snap.role = replica_.load(std::memory_order_acquire) ? "replica" : "primary";
  snap.applied_csn = applied_csn_.load(std::memory_order_acquire);
  if (wal_ != nullptr) {
    snap.wal_size = wal_->size();
    snap.wal_durable_upto = wal_->durable_upto();
  }
  {
    MutexLock lock(mu_);
    snap.collections.reserve(collections_.size());
    for (const auto& [name, coll] : collections_) {
      obs::DebugSnapshot::CollectionInfo info;
      info.name = name;
      query::CollectionStatsSnapshot st = coll->stats()->Snapshot();
      info.doc_count = st.doc_count;
      info.node_count = st.node_count;
      info.stats_epoch = st.epoch;
      if (coll->buffer_ != nullptr) {
        info.buffer_resident = coll->buffer_->resident_frames();
        info.buffer_capacity = coll->buffer_->capacity();
        BufferManagerStats bs = coll->buffer_->stats();
        info.buffer_hits = bs.hits;
        info.buffer_misses = bs.misses;
      }
      snap.collections.push_back(std::move(info));
    }
  }
  // collections_ is a std::map, so the vector is already name-sorted — the
  // determinism contract in obs/debug_snapshot.h.
  snap.metrics = metrics_.Snapshot();
  snap.events = events_.Recent();
  snap.slow_queries = slow_queries_.Recent();
  return snap;
}

void Engine::CollectComponentMetrics(std::vector<obs::Metric>* out) const {
  auto counter = [out](const char* name, uint64_t v) {
    obs::Metric m;
    m.name = name;
    m.kind = obs::MetricKind::kCounter;
    m.value = v;
    out->push_back(std::move(m));
  };
  auto gauge = [out](const char* name, uint64_t v) {
    obs::Metric m;
    m.name = name;
    m.kind = obs::MetricKind::kGauge;
    m.value = v;
    out->push_back(std::move(m));
  };

  // Sum per-collection component stats into engine-wide totals. Each
  // component snapshot takes only that component's own (leaf) locks.
  BufferManagerStats buf;
  RecordManagerStats rec;
  IoStatsSnapshot io;
  uint64_t space_pages = 0;
  size_t n_collections = 0;
  // Structural-index stats aggregated engine-wide (satellite of the wait
  // layer: surfaced as index.structural.*). Per-name posting counts are
  // capped; the tail pools into `_other` so the metric set stays bounded.
  uint64_t st_indexes = 0, st_entries = 0, st_added = 0, st_removed = 0;
  std::map<std::string, uint64_t> st_postings;
  {
    MutexLock lock(mu_);
    n_collections = collections_.size();
    for (const auto& [name, coll] : collections_) {
      query::CollectionStatsSnapshot css = coll->stats()->Snapshot();
      for (const auto& [ix_name, st] : css.structural) {
        st_indexes++;
        st_entries += st.entry_count;
        st_added += st.entries_added;
        st_removed += st.entries_removed;
        for (const auto& [elem, ns] : st.names) st_postings[elem] += ns.count;
        if (st.other_count > 0) st_postings["_other"] += st.other_count;
      }
      if (coll->buffer_ != nullptr) {
        BufferManagerStats b = coll->buffer_->stats();
        buf.hits += b.hits;
        buf.misses += b.misses;
        buf.evictions += b.evictions;
        buf.writebacks += b.writebacks;
        buf.checksum_failures += b.checksum_failures;
      }
      if (coll->records_ != nullptr) {
        RecordManagerStats r = coll->records_->stats();
        rec.inserts += r.inserts;
        rec.updates += r.updates;
        rec.deletes += r.deletes;
        rec.overflow_records += r.overflow_records;
        rec.data_pages += r.data_pages;
        rec.live_records += r.live_records;
        rec.corrupt_pages += r.corrupt_pages;
      }
      if (coll->space_ != nullptr) {
        space_pages += coll->space_->page_count();
        IoStatsSnapshot s = coll->space_->io_stats();
        io.reads += s.reads;
        io.writes += s.writes;
        io.syncs += s.syncs;
        io.retries += s.retries;
        io.transient_errors += s.transient_errors;
        io.permanent_failures += s.permanent_failures;
      }
    }
  }
  gauge("engine.collections", n_collections);
  counter("buffer.hits", buf.hits);
  counter("buffer.misses", buf.misses);
  counter("buffer.evictions", buf.evictions);
  counter("buffer.writebacks", buf.writebacks);
  counter("buffer.checksum_failures", buf.checksum_failures);
  counter("record.inserts", rec.inserts);
  counter("record.updates", rec.updates);
  counter("record.deletes", rec.deletes);
  counter("record.overflow_records", rec.overflow_records);
  gauge("record.data_pages", rec.data_pages);
  gauge("record.live_records", rec.live_records);
  // Every page of every table space, header and free list included: index
  // pages as well as the record pages record.data_pages counts.
  gauge("space.pages", space_pages);
  counter("record.corrupt_pages", rec.corrupt_pages);
  counter("io.reads", io.reads);
  counter("io.writes", io.writes);
  counter("io.syncs", io.syncs);
  counter("io.retries", io.retries);
  counter("io.transient_errors", io.transient_errors);
  counter("io.permanent_failures", io.permanent_failures);

  if (wal_ != nullptr) {
    IoStatsSnapshot ws = wal_->io_stats();
    counter("wal.io.reads", ws.reads);
    counter("wal.io.writes", ws.writes);
    counter("wal.io.syncs", ws.syncs);
    counter("wal.io.retries", ws.retries);
    counter("wal.io.transient_errors", ws.transient_errors);
    counter("wal.io.permanent_failures", ws.permanent_failures);
    WalCommitStats cs = wal_->commit_stats();
    counter("wal.commits", cs.commits);
    counter("wal.group_commit.rounds", cs.syncs);
  }

  LockManagerStats ls = locks_.stats();
  counter("lock.acquisitions", ls.acquisitions);
  counter("lock.waits", ls.waits);
  counter("lock.timeouts", ls.timeouts);
  counter("lock.deadlocks", ls.deadlocks);
  counter("lock.node_prefix_checks", ls.node_prefix_checks);

  if (st_indexes > 0) {
    gauge("index.structural.indexes", st_indexes);
    gauge("index.structural.entries", st_entries);
    counter("index.structural.entries_added", st_added);
    counter("index.structural.entries_removed", st_removed);
    // Bounded per-name breakdown: the first kMaxPostingNames element names
    // (map order = lexicographic, deterministic) get their own gauge, the
    // rest pool into `_other` alongside the caps already applied upstream.
    static constexpr size_t kMaxPostingNames = 32;
    size_t named = 0;
    uint64_t pooled = 0;
    uint64_t names_total = 0;
    for (const auto& [elem, count] : st_postings) {
      if (elem == "_other") {
        pooled += count;
        continue;
      }
      names_total++;
      if (named < kMaxPostingNames) {
        obs::Metric m;
        m.name = "index.structural.postings." + elem;
        m.kind = obs::MetricKind::kGauge;
        m.value = count;
        out->push_back(std::move(m));
        named++;
      } else {
        pooled += count;
      }
    }
    gauge("index.structural.names", names_total);
    if (pooled > 0) gauge("index.structural.postings._other", pooled);
  }

  counter("slowlog.recorded", slow_queries_.recorded());
  counter("slowlog.overwritten", slow_queries_.overwritten());

  counter("events.emitted", events_.emitted());
  counter("events.overwritten", events_.overwritten());
}

}  // namespace xdb
