// Fixture: what replay runs re-logs, guards or takes the DDL mutex.
#include "fixture_decls.h"

namespace xdb {

Status Collection::ApplyCreateValueIndex(const ValueIndexDef& def) {
  MutexLock ddl(ddl_mu_);  // LINT-EXPECT[replay-apply]
  return Install(def);
}

Status Collection::ApplyDropValueIndex(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWrite());  // LINT-EXPECT[replay-apply]
  return engine_->LogRecord(Record(name));  // LINT-EXPECT[replay-apply]
}

// The replay switch re-enters a public mutation instead of running the
// write's body: the mutation guards (a replica would refuse its own apply)
// and logs (replay would append a second record).
Status Engine::ApplyWalRecordLocked(uint64_t lsn, Slice payload) {
  Collection* coll = Find(payload);
  return coll->UpdateTextNode(nullptr, 1, payload, payload);
}

Status Collection::UpdateTextNode(Transaction* txn, uint64_t doc_id,
                                  Slice node_id, Slice text) {
  XDB_RETURN_NOT_OK(GuardWrite());  // LINT-EXPECT[replay-apply]
  XDB_RETURN_NOT_OK(engine_->LogRecord(Record(text)));  // LINT-EXPECT[replay-apply]
  return Rewrite(node_id, text);
}

// Scrub, a replay root, reaches a helper that logs, and a salvage re-insert
// that hands the write's body a record to append.
Result<ScrubReport> Engine::Scrub() {
  XDB_RETURN_NOT_OK(Salvage());
  return Reinsert();
}

Status Engine::Salvage() {
  return LogRecord(Record(1));  // LINT-EXPECT[replay-apply]
}

Status Engine::Reinsert() {
  Transaction txn = Begin();
  const WalRecord rec = Record(2);
  return Find(2)->ApplyInsert(&txn, 2, Tokens(2), &rec);  // LINT-EXPECT[replay-apply]
}

// The write body appends what it is passed, so replay must pass nullptr;
// one that appends a record of its own re-logs whatever it is passed.
Status Collection::ApplyInsert(Transaction* txn, uint64_t doc_id,
                               Slice tokens, const WalRecord* rec) {
  XDB_RETURN_NOT_OK(LockDoc(txn, doc_id));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  return Store(doc_id, tokens);
}

Status Collection::ApplyTextUpdate(Transaction* txn, uint64_t doc_id,
                                   Slice node_id, const WalRecord* rec) {
  XDB_RETURN_NOT_OK(engine_->LogRecord(Record(doc_id)));  // LINT-EXPECT[replay-apply]
  return Rewrite(doc_id, node_id);
}

}  // namespace xdb
