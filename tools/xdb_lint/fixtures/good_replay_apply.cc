// Fixture: what replay runs never logs, guards or takes ddl_mu_ — must
// stay quiet.
#include "fixture_decls.h"

namespace xdb {

// The replay switch runs the write's body with no WAL record.
Status Engine::ApplyWalRecordLocked(uint64_t lsn, Slice payload) {
  Transaction txn = Begin();
  return Finish(&txn, Find(payload)->ApplyDelete(&txn, 1, nullptr));
}

// The body takes the write's lock, appends the record it was passed when
// it has one, then takes the latch; replay passes none, so it never logs.
Status Collection::ApplyDelete(Transaction* txn, uint64_t doc_id,
                               const WalRecord* rec) {
  XDB_RETURN_NOT_OK(LockDoc(txn, doc_id));
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  return Remove(doc_id);
}

// The public mutation guards and hands its body the record; replay never
// reaches it.
Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  XDB_RETURN_NOT_OK(GuardWrite());
  const WalRecord rec = Record(doc_id);
  return ApplyDelete(txn, doc_id, &rec);
}

// Applies the mutation under the latch; never logs, never touches ddl_mu_.
Status Collection::ApplyDropStructuralIndex(const std::string& name) {
  WriterMutexLock latch(latch_);
  return Remove(name);
}

// Non-Apply functions replay does not reach may name ddl_mu_ and log.
Status Collection::CreateValueIndex(const ValueIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(Build(def));
  return engine_->LogRecord(Record(def));
}

}  // namespace xdb
