// XmlHandle: the reference construct of Section 4.4.
//
// "XML handles are widely used to link between relational data and XML
// data. Fetch of persistent XML data is deferred until when it's
// necessary." A handle names a stored node — (collection, DocID, NodeID) —
// without materializing anything; Resolve() performs the deferred fetch,
// streaming the subtree through the shared serialization sink.
#ifndef XDB_ENGINE_XML_HANDLE_H_
#define XDB_ENGINE_XML_HANDLE_H_

#include <string>

#include "common/status.h"
#include "engine/collection.h"

namespace xdb {

class XmlHandle {
 public:
  XmlHandle() = default;
  XmlHandle(Collection* collection, uint64_t doc_id, std::string node_id)
      : collection_(collection),
        doc_id_(doc_id),
        node_id_(std::move(node_id)) {}

  bool valid() const { return collection_ != nullptr; }
  uint64_t doc_id() const { return doc_id_; }
  const std::string& node_id() const { return node_id_; }

  /// The deferred fetch: serializes the referenced subtree under the given
  /// transaction's isolation. An empty node ID names the document node,
  /// i.e. the whole document.
  Result<std::string> Resolve(Transaction* txn = nullptr) const {
    if (!valid()) return Status::InvalidArgument("unbound XML handle");
    return collection_->SerializeSubtree(txn, doc_id_, node_id_);
  }

 private:
  Collection* collection_ = nullptr;
  uint64_t doc_id_ = 0;
  std::string node_id_;
};

}  // namespace xdb

#endif  // XDB_ENGINE_XML_HANDLE_H_
