// Fixture: WAL appends reachable while a latch_ scope is open.
// Each marked line must produce exactly the marked diagnostic.
#include "fixture_decls.h"

namespace xdb {

Status Collection::BadDirectAppend(Transaction* txn, Slice tokens) {
  WriterMutexLock latch(latch_);
  return engine_->LogRecord(Record(tokens));  // LINT-EXPECT[latch-then-log]
}

Status Collection::BadWalHandle(Transaction* txn) {
  {
    ReaderMutexLock latch(latch_);
    wal_->Commit(7);  // LINT-EXPECT[latch-then-log]
  }
  // Scope closed: this append is fine.
  wal_->Commit(8);
  return Status::OK();
}

// XDB_REQUIRES(latch_) in the signature means the whole body runs latched.
Status Collection::BadUnderRequires(Transaction* txn) XDB_REQUIRES(latch_) {
  return wal_->Append(Slice());  // LINT-EXPECT[latch-then-log]
}

// A write body that appends the record it was passed under the latch.
Status Collection::BadRecordUnderLatch(Transaction* txn,
                                       const WalRecord* rec) {
  WriterMutexLock latch(latch_);
  if (rec) XDB_RETURN_NOT_OK(engine_->LogRecord(*rec));  // LINT-EXPECT[latch-then-log]
  return Status::OK();
}

}  // namespace xdb
