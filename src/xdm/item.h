// XDM items and sequences: the in-memory result form of XPath evaluation
// (one of the four runtime data forms of Section 4.4).
#ifndef XDB_XDM_ITEM_H_
#define XDB_XDM_ITEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace xdb {

/// A node in an XPath result sequence, identified database-style: by its
/// document and prefix-encoded node ID rather than a pointer.
struct ResultNode {
  uint64_t doc_id = 0;
  std::string node_id;       // absolute prefix-encoded ID (empty = root)
  std::string string_value;  // typed/string value, when computed

  bool operator==(const ResultNode& o) const {
    return doc_id == o.doc_id && node_id == o.node_id;
  }
  bool operator<(const ResultNode& o) const {
    if (doc_id != o.doc_id) return doc_id < o.doc_id;
    return Slice(node_id).Compare(Slice(o.node_id)) < 0;  // document order
  }
};

/// An XPath result: a document-ordered, duplicate-free sequence of nodes.
using NodeSequence = std::vector<ResultNode>;

/// Sorts into document order and removes duplicates (node identity =
/// (doc_id, node_id)).
void NormalizeSequence(NodeSequence* seq);

/// XPath string -> number conversion by XPath 1.0's Number grammar, with
/// an optional minus sign and surrounding whitespace ("", "+5", "1e3",
/// "inf" and other garbage -> NaN).
double StringToNumber(Slice s);

}  // namespace xdb

#endif  // XDB_XDM_ITEM_H_
