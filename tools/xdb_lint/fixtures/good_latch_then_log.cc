// Fixture: the correct log-before-latch shape — must stay quiet.
#include "fixture_decls.h"

namespace xdb {

Status Collection::GoodLogThenLatch(Transaction* txn, Slice tokens) {
  // WAL record first, at its own rank...
  XDB_RETURN_NOT_OK(engine_->LogRecord(Record(tokens)));
  // ...then the structure latch for the in-memory mutation.
  WriterMutexLock latch(latch_);
  return ApplyTokens(tokens);
}

Status Collection::GoodSequentialScopes(Transaction* txn) {
  {
    WriterMutexLock latch(latch_);
    Mutate();
  }
  // The latch scope above is closed before the append.
  return wal_->Commit(9);
}

Status Collection::GoodOtherLockIsNotALatch(Transaction* txn) {
  // docid_mu_ is not latch_: appends under it are a different rule's
  // business (the rank checker's), not latch-then-log's.
  MutexLock lock(docid_mu_);
  return wal_->Append(Slice());
}

// A write body appends the record it was passed before the latch.
Status Collection::GoodRecordBeforeLatch(Transaction* txn,
                                         const WalRecord* rec) {
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));
  WriterMutexLock latch(latch_);
  return Mutate();
}

}  // namespace xdb
