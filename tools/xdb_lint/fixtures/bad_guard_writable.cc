// Fixture: mutating entry points that skip the replica write guard.
#include "fixture_decls.h"

namespace xdb {

// Mutates (takes the write latch) before ever calling GuardWrite.
Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  WriterMutexLock latch(latch_);  // LINT-EXPECT[guard-writable]
  return Apply(tokens);
}

// Calls it, but only AFTER the first state change.
Status Collection::DeleteDocument(Transaction* txn, uint64_t doc_id) {
  engine_->LogRecord(Record(doc_id));  // LINT-EXPECT[guard-writable]
  XDB_RETURN_NOT_OK(GuardWrite());
  return Status::OK();
}

// Never calls GuardWritable at all; the diagnostic anchors on the line of
// the function body's opening brace.
Status Engine::RegisterSchema(const std::string& name, Slice text) {  // LINT-EXPECT[guard-writable]
  catalog_.Add(name, text);
  return Status::OK();
}

// A DDL wrapper that leaves the guard to its Apply* body: the body runs
// ungated for replay, so a replica would drop its index and log the drop.
Status Collection::DropStructuralIndex(const std::string& name) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropStructuralIndex(name));  // LINT-EXPECT[guard-writable]
  return engine_->LogRecord(Record(name));
}

// A DDL wrapper that guards only after its Apply* body ran: a replica
// drops the index before the guard refuses the write.
Status Collection::DropValueIndex(const std::string& name) {
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyDropValueIndex(name));  // LINT-EXPECT[guard-writable]
  XDB_RETURN_NOT_OK(GuardWrite());
  return engine_->LogRecord(Record(name));
}

}  // namespace xdb
