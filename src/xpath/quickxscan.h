// QuickXScan: the paper's optimal streaming XPath algorithm (Section 4.2).
//
// One pass over an XmlEvent stream evaluates a query tree using the
// principles of attribute grammars: inherited attributes decide matching
// during the top-down traversal, synthesized attributes (candidate result
// sequences, Boolean predicate bits, collected string values) are computed
// bottom-up as matching instances pop off per-query-node stacks. Two
// transitivity properties keep state small: only the stack top must be
// checked to match a node, and attribute values propagate upward (via the
// instance's upward link) or sideways (to the enclosing instance of the same
// query node) so each value travels exactly one path — no duplicates.
//
// Worst-case live state is O(|Q| * r) matching instances, where r is the
// document's recursion degree; time is O(|Q| * r * |D|).
#ifndef XDB_XPATH_QUICKXSCAN_H_
#define XDB_XPATH_QUICKXSCAN_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/virtual_sax.h"
#include "xdm/item.h"
#include "xpath/query_tree.h"

namespace xdb {
namespace xpath {

struct QuickXScanStats {
  uint64_t events = 0;
  uint64_t instances_created = 0;
  uint64_t peak_live_instances = 0;  // the O(|Q|*r) bound
  size_t memory_bytes = 0;           // instance pool footprint
};

/// Re-entrancy: a scan holds all of its mutable state (instance pool,
/// stacks, depth bookkeeping, stats) in the QuickXScan object itself and
/// only *reads* the compiled QueryTree, so any number of scans — one per
/// document chunk in the parallel executor — may share one tree from
/// different threads concurrently. The tree must not be recompiled or
/// mutated while scans are running.
class QuickXScan {
 public:
  /// `tree` must outlive the scan and stay immutable while it runs; many
  /// concurrent scans may share it (see the re-entrancy note above).
  QuickXScan(const QueryTree* tree, uint64_t doc_id);

  /// Push form, for a caller that feeds one event stream to several
  /// consumers: Begin() once, Feed() every event in order, then Finish(),
  /// which appends the matched result nodes (in document order,
  /// duplicate-free) to `results`.
  void Begin();
  Status Feed(const XmlEvent& ev);
  Status Finish(NodeSequence* results);

  /// Asked right after Feed() of a start-element event: true when nothing
  /// inside that element can change the answer, so its children may be left
  /// out of the stream (its end event must still be fed). That holds when
  /// no open instance collects a string value, no child- or attribute-axis
  /// query node has its parent's top instance on this element, and no
  /// descendant(-or-self) query node has an open parent instance. Self-axis
  /// nodes add nothing: their parent must match first. O(|Q|).
  bool ChildrenIrrelevant() const;

  /// Readies the scan for another stream, of document `doc_id`: every
  /// instance returns to the pool for reuse, and the stacks and stats are
  /// cleared. Begin() follows as for a new scan.
  void Reset(uint64_t doc_id);

  /// Pull form: Begin, Feed each event of `source`, Finish.
  Status Run(XmlEventSource* source, NodeSequence* results);

  const QuickXScanStats& stats() const { return stats_; }

 private:
  struct Instance {
    const QueryNode* q = nullptr;
    int depth = 0;  // element depth of the matched node (owner depth for
                    // instant attribute/text/comment instances)
    bool instant = false;
    Instance* parent_ref = nullptr;
    uint64_t bits = 0;  // branch-satisfaction bits
    bool collecting = false;
    std::string value;   // collected/leaf string value
    std::string node_id; // recorded for result-node instances
    std::vector<ResultNode> pending;  // validated below, await own preds
    std::vector<ResultNode> carried;  // validated at this level (sideways)
  };

  Instance* Allocate();  // from the free list, or a new pool slot
  void MatchElement(const XmlEvent& ev);
  void MatchInstant(const XmlEvent& ev);
  /// Pushes `q`'s instance for the leaf `ev`, matches the self steps below
  /// `q` against the same leaf, then pops it.
  void MatchLeaf(const QueryNode* q, const XmlEvent& ev, Instance* parent_ref,
                 int depth);
  Instance* FindAxisCandidate(const QueryNode* q, int depth, bool instant);
  Instance* Push(const QueryNode* q, const XmlEvent& ev, Instance* parent_ref,
                 int depth, bool instant);
  void Pop(Instance* m);
  bool CompareOk(const QueryNode* q, const std::string& value) const;

  const QueryTree* tree_;
  uint64_t doc_id_;
  std::deque<Instance> pool_;
  std::vector<Instance*> free_list_;  // recycled popped instances
  std::vector<std::vector<Instance*>> stacks_;  // per query node
  std::vector<std::vector<Instance*>> open_by_depth_;
  std::vector<Instance*> collecting_;
  Instance* root_instance_ = nullptr;
  int elem_depth_ = 0;
  uint64_t live_instances_ = 0;
  QuickXScanStats stats_;
};

/// Convenience: parse + compile + scan one event stream.
Result<NodeSequence> EvaluateXPath(Slice path_expr, const NameDictionary& dict,
                                   XmlEventSource* source, uint64_t doc_id,
                                   bool want_values,
                                   QuickXScanStats* stats = nullptr);

}  // namespace xpath
}  // namespace xdb

#endif  // XDB_XPATH_QUICKXSCAN_H_
