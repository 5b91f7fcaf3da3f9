#include "engine/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <set>

#include "common/coding.h"
#include "engine/stats_store.h"
#include "schema/schema_parser.h"

namespace xdb {

namespace {
/// Which engine the current thread is replaying into (null = none). Replay
/// permission must be per-thread: GuardWritable() consults it so that ONLY
/// the thread driving WAL replay / replicated-segment apply may mutate a
/// read-only replica — with an engine-wide flag, any client mutation racing
/// a mid-flight apply would slip through the gate (TOCTOU) and append local
/// writes to the replica's WAL, corrupting the stream accounting. The Log*
/// skip uses it for the same reason in reverse: a primary client write
/// concurrent with a Scrub replay must still log itself.
thread_local const Engine* t_replaying_engine = nullptr;

/// RAII replay scope, nestable and restoring the previous value (a replica
/// apply never nests today, but restoring is free and future-proof).
class ReplayScope {
 public:
  explicit ReplayScope(const Engine* e) : prev_(t_replaying_engine) {
    t_replaying_engine = e;
  }
  ~ReplayScope() { t_replaying_engine = prev_; }
  ReplayScope(const ReplayScope&) = delete;
  ReplayScope& operator=(const ReplayScope&) = delete;

 private:
  const Engine* prev_;
};
}  // namespace

bool Engine::InReplay() const { return t_replaying_engine == this; }

Engine::~Engine() {
  // Best-effort flush on clean shutdown; a failure here is what recovery
  // exists for.
  if (!options_.in_memory) (void)Checkpoint();
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
    } else if (cat.status().code() != Status::Code::kNotFound) {
      return cat.status();
    }
  }

  // Restore collected statistics before WAL replay, so replayed document
  // operations run the same incremental maintenance they ran originally on
  // top of the checkpointed counts. Degradation is always graceful: a
  // missing/stale/corrupt stats file turns cost-based planning off for the
  // affected collection (heuristic fallback) and never fails Open.
  {
    MutexLock lock(engine->mu_);
    StatsFileData stats_data;
    Status stats_status = Status::OK();
    if (!engine->collections_.empty()) {
      auto loaded = LoadStatsFile(options.dir + "/stats.xdb");
      if (loaded.ok()) {
        stats_data = loaded.MoveValue();
      } else {
        stats_status = loaded.status();
      }
    }
    for (auto& [name, coll] : engine->collections_) {
      auto meta_it = engine->catalog_.collections.find(name);
      const uint64_t expected =
          meta_it != engine->catalog_.collections.end()
              ? meta_it->second.stats_epoch
              : 0;
      auto degrade = [&](const std::string& why) {
        coll->stats()->Invalidate();
        engine->events_.Emit(obs::EventKind::kStatsDegraded, expected, 0,
                             "collection '" + name + "': " + why);
      };
      if (expected == 0) {
        // Never checkpointed with stats. For a fresh collection valid empty
        // stats are exactly right — WAL replay rebuilds the counts from
        // zero. But a catalog that already allocated doc ids (a pre-stats
        // catalog, or one checkpointed before this feature) holds documents
        // that are NOT in the WAL (checkpoint resets it), so empty counts
        // would be trusted as real and the cost model would price full
        // scans at zero forever. Degrade to heuristic planning until a
        // rebuild/checkpoint establishes real counts.
        const bool checkpointed_docs =
            meta_it != engine->catalog_.collections.end() &&
            meta_it->second.next_doc_id > 1;
        if (checkpointed_docs)
          degrade("catalog predates collected stats");
        continue;
      }
      if (!stats_status.ok()) {
        degrade("stats file unavailable (" + stats_status.ToString() + ")");
        continue;
      }
      auto blob = stats_data.find(name);
      if (blob == stats_data.end()) {
        degrade("no stats blob in stats.xdb");
        continue;
      }
      Status rs = coll->stats()->Restore(Slice(blob->second));
      if (!rs.ok()) {
        degrade("stats blob corrupt (" + rs.ToString() + ")");
        continue;
      }
      if (coll->stats()->epoch() != expected) {
        // Crash between stats.xdb and catalog.xdb writes: the catalog's
        // epoch is the commit point, so a mismatch means these numbers do
        // not belong to this catalog state.
        degrade("stats epoch " + std::to_string(coll->stats()->epoch()) +
                " != catalog epoch " + std::to_string(expected));
      }
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
  coll->buffer_shards_ = options.buffer_shards != 0 ? options.buffer_shards
                                                    : options_.buffer_shards;
  coll->page_size_hint_ = options.page_size;

  TableSpaceOptions ts_options;
  ts_options.page_size = options.page_size;
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

Status Engine::GuardWritable() const {
  if (replica_.load(std::memory_order_acquire) && !InReplay())
    return Status::NotSupported("replica is read-only (promote it to write)");
  return Status::OK();
}

Result<Collection*> Engine::CreateCollection(const std::string& name,
                                             const CollectionOptions& options) {
  XDB_RETURN_NOT_OK(GuardWritable());
  MutexLock lock(mu_);
  XDB_ASSIGN_OR_RETURN(Collection * raw, CreateCollectionLocked(name, options));
  XDB_RETURN_NOT_OK(LogCreateCollection(name, options));
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
  return LogDropCollection(name);
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
  schemas_[name] = std::move(cs);
  XDB_RETURN_NOT_OK(LogRegisterSchema(name, binary));
  catalog_.schemas[name] = std::move(binary);
  return Status::OK();
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
  StatsFileData stats_data;
  bool any_quarantined = false;
  for (auto& [name, coll] : collections_) {
    if (coll->needs_repair_) {
      // Leave the damaged files and the last good metadata untouched so
      // Scrub() still has everything to repair from. No stats blob either:
      // after repair the epoch won't match, which correctly degrades the
      // collection to heuristic planning until its next checkpoint.
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
    // exclusively, so the blob and the epoch recorded in the catalog agree.
    std::string stats_blob;
    coll->stats_.Serialize(&stats_blob);
    meta.stats_epoch = coll->stats_.epoch();
    stats_data.emplace(name, std::move(stats_blob));
    catalog_.collections.emplace(name, std::move(meta));
  }
  catalog_.dictionary.clear();
  // Capture the size before Save: names interned concurrently may or may not
  // make the saved snapshot, and re-logging one is harmless (replay skips
  // ids it already knows) while failing to log one loses it.
  size_t saved_names = dict_.size();
  dict_.Save(&catalog_.dictionary);
  // Stats before catalog: the catalog's per-collection stats_epoch is the
  // commit point. A crash between the two writes leaves a stats file whose
  // epochs don't match the (old) catalog — detected at open, degrading to
  // heuristic planning instead of planning on wrong numbers.
  XDB_RETURN_NOT_OK(
      SaveStatsFile(stats_data, options_.dir + "/stats.xdb"));
  // On a replica the saved base must describe the WAL image this catalog
  // can coexist with — which is still the *current* one; the post-reset base
  // is committed by a second save below, so a crash in between only ever
  // undercounts the applied position (safe: re-ship + idempotent re-apply).
  catalog_.replica_wal_base = replica_wal_base_;
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

Status Engine::LogNewNames() {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  MutexLock lock(wal_names_mu_);
  while (wal_names_logged_ < dict_.size()) {
    NameId id = static_cast<NameId>(wal_names_logged_);
    XDB_ASSIGN_OR_RETURN(std::string name, dict_.Name(id));
    std::string payload;
    PutFixed32(&payload, id);
    payload.append(name);
    XDB_RETURN_NOT_OK(
        wal_->Append(WalRecordType::kDefineName, payload).status());
    wal_names_logged_ = id + 1;
  }
  return Status::OK();
}

Status Engine::AppendWal(WalRecordType type, Slice payload) {
  XDB_RETURN_NOT_OK(wal_->Append(type, payload).status());
  // Group commit: under sync_commits every logged operation becomes durable
  // before it returns, but concurrent committers share one fdatasync.
  if (options_.sync_commits) return wal_->Commit();
  return Status::OK();
}

Status Engine::LogInsert(const std::string& collection, uint64_t doc_id,
                         Slice tokens) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  XDB_RETURN_NOT_OK(LogNewNames());
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutFixed64(&payload, doc_id);
  payload.append(tokens.data(), tokens.size());
  return AppendWal(WalRecordType::kInsertDocument, payload);
}

Status Engine::LogDelete(const std::string& collection, uint64_t doc_id) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutFixed64(&payload, doc_id);
  return AppendWal(WalRecordType::kDeleteDocument, payload);
}

Status Engine::LogUpdate(const std::string& collection, uint64_t doc_id,
                         Slice node_id, Slice new_text) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutFixed64(&payload, doc_id);
  PutLengthPrefixed(&payload, node_id);
  payload.append(new_text.data(), new_text.size());
  return AppendWal(WalRecordType::kUpdateNode, payload);
}

Status Engine::LogInsertSubtree(const std::string& collection,
                                uint64_t doc_id, Slice parent_id,
                                Slice after_id, Slice tokens) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  XDB_RETURN_NOT_OK(LogNewNames());
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutFixed64(&payload, doc_id);
  PutLengthPrefixed(&payload, parent_id);
  PutLengthPrefixed(&payload, after_id);
  payload.append(tokens.data(), tokens.size());
  return AppendWal(WalRecordType::kInsertSubtree, payload);
}

Status Engine::LogDeleteSubtree(const std::string& collection,
                                uint64_t doc_id, Slice node_id) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutFixed64(&payload, doc_id);
  payload.append(node_id.data(), node_id.size());
  return AppendWal(WalRecordType::kDeleteSubtree, payload);
}

Status Engine::LogCreateCollection(const std::string& name,
                                   const CollectionOptions& options) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, name);
  payload.push_back(options.mvcc ? 1 : 0);
  PutLengthPrefixed(&payload, options.schema);
  return AppendWal(WalRecordType::kCreateCollection, payload);
}

Status Engine::LogDropCollection(const std::string& name) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, name);
  return AppendWal(WalRecordType::kDropCollection, payload);
}

Status Engine::LogCreateIndex(const std::string& collection,
                              const ValueIndexDef& def) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutLengthPrefixed(&payload, def.name);
  PutLengthPrefixed(&payload, def.path);
  payload.push_back(static_cast<char>(def.type));
  PutFixed32(&payload, def.max_string_len);
  return AppendWal(WalRecordType::kCreateValueIndex, payload);
}

Status Engine::LogDropIndex(const std::string& collection,
                            const std::string& index_name) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutLengthPrefixed(&payload, index_name);
  return AppendWal(WalRecordType::kDropValueIndex, payload);
}

Status Engine::LogCreateStructuralIndex(const std::string& collection,
                                        const StructuralIndexDef& def) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutLengthPrefixed(&payload, def.name);
  PutLengthPrefixed(&payload, def.element_name);
  return AppendWal(WalRecordType::kCreateStructuralIndex, payload);
}

Status Engine::LogDropStructuralIndex(const std::string& collection,
                                      const std::string& index_name) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, collection);
  PutLengthPrefixed(&payload, index_name);
  return AppendWal(WalRecordType::kDropStructuralIndex, payload);
}

Status Engine::LogRegisterSchema(const std::string& name, Slice binary) {
  if (wal_ == nullptr || InReplay()) return Status::OK();
  std::string payload;
  PutLengthPrefixed(&payload, name);
  payload.append(binary.data(), binary.size());
  return AppendWal(WalRecordType::kRegisterSchema, payload);
}

Status Engine::ReplayWal(const ReplayFilter& filter, WalReplayInfo* info) {
  // Replay is single-threaded but mutates catalog state (collections_ via
  // the visitor), so it runs under mu_. The visitor is a separate function
  // to the analysis and cannot see the lock held here, hence the opt-out.
  MutexLock lock(mu_);
  ReplayScope replay(this);
  return wal_->Replay(
      [&](uint64_t /*lsn*/, WalRecordType type,
          Slice payload) XDB_NO_THREAD_SAFETY_ANALYSIS -> Status {
        return ApplyWalRecordLocked(type, payload, filter);
      },
      info);
}

Status Engine::ApplyWalRange(Slice records, uint64_t base_lsn,
                             const ReplayFilter& filter, WalReplayInfo* info) {
  return ScanWalRecords(
      records, base_lsn,
      [&](uint64_t /*lsn*/, WalRecordType type,
          Slice payload) XDB_NO_THREAD_SAFETY_ANALYSIS -> Status {
        return ApplyWalRecordLocked(type, payload, filter);
      },
      info);
}

Status Engine::ApplyWalRecordLocked(WalRecordType type, Slice payload,
                                    const ReplayFilter& filter) {
    if (type == WalRecordType::kDefineName) {
      if (payload.size() < 4) return Status::Corruption("bad wal name record");
      NameId id = DecodeFixed32(payload.data());
      payload.RemovePrefix(4);
      if (id < dict_.size()) return Status::OK();  // already in the catalog
      if (id != dict_.size())
        return Status::Corruption("wal name record out of order");
      dict_.Intern(payload);
      return Status::OK();
    }
    // DDL records carry their own payload shapes and always apply (the
    // filter is a per-document concept). Each is idempotent: re-applying
    // after a crash, or applying a re-shipped segment on a replica, finds
    // the object already in (or already out of) the catalog and succeeds.
    switch (type) {
      case WalRecordType::kCreateCollection: {
        Slice cname;
        if (!GetLengthPrefixed(&payload, &cname) || payload.empty())
          return Status::Corruption("bad wal create-collection record");
        CollectionOptions copts;
        copts.mvcc = payload[0] != 0;
        payload.RemovePrefix(1);
        Slice schema;
        if (!GetLengthPrefixed(&payload, &schema))
          return Status::Corruption("bad wal create-collection record");
        copts.schema = schema.ToString();
        if (collections_.find(cname.ToString()) != collections_.end())
          return Status::OK();  // redone
        return CreateCollectionLocked(cname.ToString(), copts).status();
      }
      case WalRecordType::kDropCollection: {
        Slice cname;
        if (!GetLengthPrefixed(&payload, &cname))
          return Status::Corruption("bad wal drop-collection record");
        Status st = DropCollectionLocked(cname.ToString());
        if (st.IsNotFound()) return Status::OK();  // already gone
        return st;
      }
      case WalRecordType::kCreateValueIndex: {
        Slice cname;
        ValueIndexDef def;
        Slice iname, ipath;
        if (!GetLengthPrefixed(&payload, &cname) ||
            !GetLengthPrefixed(&payload, &iname) ||
            !GetLengthPrefixed(&payload, &ipath) || payload.size() < 5)
          return Status::Corruption("bad wal create-index record");
        def.name = iname.ToString();
        def.path = ipath.ToString();
        def.type = static_cast<ValueType>(payload[0]);
        def.max_string_len = DecodeFixed32(payload.data() + 1);
        auto cit = collections_.find(cname.ToString());
        if (cit == collections_.end()) return Status::OK();  // dropped later
        Collection* c = cit->second.get();
        if (c->needs_repair()) return Status::OK();
        if (c->FindValueIndex(def.name) != nullptr) return Status::OK();
        // The Apply* form: no ddl_mu_ (crash replay holds the WAL mutex,
        // which client DDL takes after ddl_mu_ — nesting the other way
        // would deadlock) and no re-logging.
        return c->ApplyCreateValueIndex(def);
      }
      case WalRecordType::kDropValueIndex: {
        Slice cname, iname;
        if (!GetLengthPrefixed(&payload, &cname) ||
            !GetLengthPrefixed(&payload, &iname))
          return Status::Corruption("bad wal drop-index record");
        auto cit = collections_.find(cname.ToString());
        if (cit == collections_.end()) return Status::OK();
        Collection* c = cit->second.get();
        if (c->needs_repair()) return Status::OK();
        Status st = c->ApplyDropValueIndex(iname.ToString());
        if (st.IsNotFound()) return Status::OK();
        return st;
      }
      case WalRecordType::kCreateStructuralIndex: {
        Slice cname, iname, ename;
        if (!GetLengthPrefixed(&payload, &cname) ||
            !GetLengthPrefixed(&payload, &iname) ||
            !GetLengthPrefixed(&payload, &ename))
          return Status::Corruption("bad wal create-structural record");
        StructuralIndexDef def;
        def.name = iname.ToString();
        def.element_name = ename.ToString();
        auto cit = collections_.find(cname.ToString());
        if (cit == collections_.end()) return Status::OK();  // dropped later
        Collection* c = cit->second.get();
        if (c->needs_repair()) return Status::OK();
        if (c->FindStructuralIndex(def.name) != nullptr) return Status::OK();
        return c->ApplyCreateStructuralIndex(def);
      }
      case WalRecordType::kDropStructuralIndex: {
        Slice cname, iname;
        if (!GetLengthPrefixed(&payload, &cname) ||
            !GetLengthPrefixed(&payload, &iname))
          return Status::Corruption("bad wal drop-structural record");
        auto cit = collections_.find(cname.ToString());
        if (cit == collections_.end()) return Status::OK();
        Collection* c = cit->second.get();
        if (c->needs_repair()) return Status::OK();
        Status st = c->ApplyDropStructuralIndex(iname.ToString());
        if (st.IsNotFound()) return Status::OK();
        return st;
      }
      case WalRecordType::kRegisterSchema: {
        Slice sname;
        if (!GetLengthPrefixed(&payload, &sname))
          return Status::Corruption("bad wal register-schema record");
        return RegisterSchemaBinaryLocked(sname.ToString(), payload);
      }
      default:
        break;  // document records: fall through to the common parse
    }
    Slice name_slice;
    if (!GetLengthPrefixed(&payload, &name_slice))
      return Status::Corruption("bad wal payload");
    std::string name = name_slice.ToString();
    if (payload.size() < 8) return Status::Corruption("bad wal payload");
    uint64_t doc_id = DecodeFixed64(payload.data());
    payload.RemovePrefix(8);
    auto it = collections_.find(name);
    if (it == collections_.end()) return Status::OK();  // dropped later
    Collection* coll = it->second.get();
    // Quarantined collections cannot take replay until Scrub() has rebuilt
    // their storage; Scrub then re-runs the replay with a filter.
    if (coll->needs_repair()) return Status::OK();
    if (filter && !filter(name, doc_id)) return Status::OK();
    Status op_status = [&]() -> Status {
    switch (type) {
      case WalRecordType::kInsertDocument: {
        auto exists = coll->docid_tree_->Contains(
            [&] {
              std::string k;
              PutBig64(&k, doc_id);
              return k;
            }());
        if (exists.ok() && exists.value()) return Status::OK();  // redone
        Transaction txn = Begin(IsolationMode::kLocking);
        auto res = coll->InsertTokensLocked(&txn, payload, doc_id);
        Status st = res.ok() ? Status::OK() : res.status();
        if (st.ok()) st = Commit(&txn);
        else (void)Abort(&txn);
        {
          MutexLock dlock(coll->docid_mu_);
          if (doc_id >= coll->meta_.next_doc_id)
            coll->meta_.next_doc_id = doc_id + 1;
        }
        return st;
      }
      case WalRecordType::kDeleteDocument: {
        Status st = coll->DeleteDocument(nullptr, doc_id);
        if (st.IsNotFound()) return Status::OK();  // already gone / redone
        return st;
      }
      case WalRecordType::kUpdateNode: {
        Slice node_id;
        if (!GetLengthPrefixed(&payload, &node_id))
          return Status::Corruption("bad wal update payload");
        Status st = coll->UpdateTextNode(nullptr, doc_id, node_id, payload);
        if (st.IsNotFound()) return Status::OK();
        return st;
      }
      case WalRecordType::kInsertSubtree: {
        Slice parent_id, after_id;
        if (!GetLengthPrefixed(&payload, &parent_id) ||
            !GetLengthPrefixed(&payload, &after_id))
          return Status::Corruption("bad wal subtree payload");
        // Idempotency: if the subtree is already present (the operation hit
        // the data pages before the crash), the Between() ID may collide —
        // re-running is still safe because replay starts from the last
        // checkpointed image, which cannot contain post-checkpoint work.
        WriterMutexLock latch(coll->latch_);
        Status st = coll->InsertSubtreeLocked(doc_id, parent_id, after_id,
                                              payload)
                        .status();
        if (st.IsNotFound()) return Status::OK();
        return st;
      }
      case WalRecordType::kDeleteSubtree: {
        Status st = coll->DeleteSubtree(nullptr, doc_id, payload);
        if (st.IsNotFound()) return Status::OK();
        return st;
      }
      default:
        return Status::OK();
    }
    }();
    if (op_status.IsCorruption() || op_status.IsIOError()) {
      // Replay ran into damaged storage. Failing Open() here would take the
      // whole database down; instead quarantine the collection (skipping its
      // remaining records — the WAL survives until Scrub() repairs it).
      coll->needs_repair_ = true;
      coll->repair_reason_ = "wal replay: " + op_status.ToString();
      return Status::OK();
    }
    return op_status;
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
  // watermark is published only after a successful apply, so an
  // acknowledged CSN is always a durably *applied* CSN.
  XDB_ASSIGN_OR_RETURN(const uint64_t append_lsn,
                       wal_->AppendRaw(framed_records));
  if (options_.sync_commits) XDB_RETURN_NOT_OK(wal_->Commit());
  Status s;
  {
    ReplayScope replay(this);
    s = ApplyWalRange(framed_records, publish_csn - framed_records.size(), {},
                      info);
  }
  if (!s.ok()) {
    // The segment failed to apply (e.g. a corrupt DDL payload) and will
    // never be acknowledged, so its bytes must not stay in the local log:
    // the watermark is reconstructed at reopen as base + WAL length, and the
    // resync path re-ships these exact stream bytes — leaving them appended
    // would double-count them and make the replica skip real segments.
    Status trunc = wal_->TruncateTo(append_lsn);
    if (!trunc.ok())
      events_.Emit(obs::EventKind::kReplicaStalled, append_lsn, 0,
                   "repl: failed-apply rollback truncate failed: " +
                       trunc.ToString());
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
      info.stats_valid = st.valid;
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
