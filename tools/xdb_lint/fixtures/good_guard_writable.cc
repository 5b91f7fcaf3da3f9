// Fixture: correctly guarded entry points — must stay quiet.
#include "fixture_decls.h"

namespace xdb {

// The public mutation guards, then runs the write's body with its record.
Result<uint64_t> Collection::InsertTokens(Transaction* txn, Slice tokens) {
  XDB_RETURN_NOT_OK(GuardWrite());
  const WalRecord rec = Record(tokens);
  return ApplyInsert(txn, 1, tokens, &rec);
}

// Delegation counts: InsertDocument's only path runs through InsertTokens,
// which guards first itself.
Result<uint64_t> Collection::InsertDocument(Transaction* txn, Slice xml) {
  Tokens tokens;
  XDB_RETURN_NOT_OK(Parse(xml, &tokens));
  return InsertTokens(txn, tokens.data());
}

Status Engine::CreateCollection(const std::string& name) {
  XDB_RETURN_NOT_OK(GuardWritable());
  MutexLock lock(mu_);
  return catalog_.Create(name);
}

// Structural-index DDL mirrors value-index DDL: the public wrapper guards,
// then runs its Apply* body (which replay runs ungated) and logs.
Status Collection::CreateStructuralIndex(const StructuralIndexDef& def) {
  XDB_RETURN_NOT_OK(GuardWrite());
  MutexLock ddl(ddl_mu_);
  XDB_RETURN_NOT_OK(ApplyCreateStructuralIndex(def));
  return engine_->LogRecord(Record(def));
}

// Not an entry point: the body installs without a guard.
Status Collection::ApplyCreateStructuralIndex(const StructuralIndexDef& def) {
  WriterMutexLock latch(latch_);
  return Install(def);
}

}  // namespace xdb
