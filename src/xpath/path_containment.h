// Path containment for index matching (Section 4.3).
//
// "Since we do not keep complete path information in an XPath value index,
// when the XPath expression of the index contains a query XPath expression
// but is not equivalent to it, we use the index for filtering, and
// re-evaluation of the query XPath expression on the document data is
// necessary."
//
// Containment of linear {/, //, name, *} paths is tested by homomorphism
// (sound always; complete for *-free index paths), which is the PTIME
// fragment — exactly what simple predicate-free index paths are.
#ifndef XDB_XPATH_PATH_CONTAINMENT_H_
#define XDB_XPATH_PATH_CONTAINMENT_H_

#include <vector>

#include "common/status.h"
#include "xml/name_dictionary.h"
#include "xpath/ast.h"

namespace xdb {
namespace xpath {

enum class IndexMatch {
  kNone,      // the index cannot serve this path
  kExact,     // index path selects exactly the query path's nodes
  kContains,  // index path selects a superset: usable for filtering
};

/// True iff every node selected by `query` (in any document) is selected by
/// `index` — i.e. a homomorphism from the index path into the query path
/// exists. Predicates on query steps are ignored (they only narrow the
/// selection, so containment remains sound).
bool PathContains(const Path& index, const Path& query);

/// Classifies how a (predicate-free, linear) index path can serve a query
/// path.
IndexMatch ClassifyIndexMatch(const Path& index, const Path& query);

/// The main-path prefix a node-level plan verifies its anchors against:
/// steps 0..anchor_step of `query`, predicates dropped, as an absolute
/// path. A relative query evaluates with the root element as its implicit
/// context, so its prefix starts with a wildcard child step (without it a
/// relative "c" would read as /c and reject every non-root anchor).
Path AnchorPrefix(const Path& query, size_t anchor_step);

/// One node of a concrete root-to-node path: an element, or an attribute.
struct NamedStep {
  NameId name = kEmptyNameId;
  bool attribute = false;
};

/// A linear path pattern with its names resolved against a dictionary
/// once, so concrete paths are tested by name ID: PathContains(pattern,
/// concrete) by the same homomorphism, with no name strings. A pattern name
/// the dictionary lacks matches no node; a pattern PathContains cannot
/// linearize matches nothing.
class PathPattern {
 public:
  struct Step {
    bool descendant = false;  // edge from the previous step crosses >= 1 level
    bool attribute = false;
    bool any_name = false;  // * or node()
    NameId name = kEmptyNameId;
  };

  PathPattern() = default;  // matches nothing
  static PathPattern Compile(const Path& pattern, const NameDictionary& dict);

  /// PathContains(pattern, the absolute child/attribute path `concrete`
  /// spells out, root element first).
  bool Matches(const std::vector<NamedStep>& concrete) const;

 private:
  std::vector<Step> steps_;  // empty: matches nothing
};

/// True if the path is linear (no predicates) and uses only child,
/// descendant(-or-self) and a final attribute step with name/* tests —
/// the legal shape for a value index definition.
bool IsIndexablePath(const Path& path);

}  // namespace xpath
}  // namespace xdb

#endif  // XDB_XPATH_PATH_CONTAINMENT_H_
