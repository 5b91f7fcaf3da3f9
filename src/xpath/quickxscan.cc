#include "xpath/quickxscan.h"

#include <algorithm>
#include <cmath>

#include "xpath/parser.h"

namespace xdb {
namespace xpath {

QuickXScan::QuickXScan(const QueryTree* tree, uint64_t doc_id)
    : tree_(tree), doc_id_(doc_id) {
  stacks_.resize(tree_->nodes().size());
}

bool QuickXScan::CompareOk(const QueryNode* q, const std::string& value) const {
  if (!q->has_compare) return true;
  const bool relational = q->op != CompOp::kEq && q->op != CompOp::kNe;
  if (relational || q->literal_is_number) {
    double lhs = StringToNumber(value);
    double rhs =
        q->literal_is_number ? q->number : StringToNumber(q->string);
    if (std::isnan(lhs) || std::isnan(rhs)) return false;
    switch (q->op) {
      case CompOp::kEq: return lhs == rhs;
      case CompOp::kNe: return lhs != rhs;
      case CompOp::kLt: return lhs < rhs;
      case CompOp::kLe: return lhs <= rhs;
      case CompOp::kGt: return lhs > rhs;
      case CompOp::kGe: return lhs >= rhs;
    }
    return false;
  }
  // String equality comparisons.
  bool eq = value == q->string;
  return q->op == CompOp::kEq ? eq : !eq;
}

QuickXScan::Instance* QuickXScan::FindAxisCandidate(const QueryNode* q,
                                                    int depth, bool instant) {
  const std::vector<Instance*>& pstack = stacks_[q->parent->id];
  if (pstack.empty()) return nullptr;
  Instance* top = pstack.back();
  // Query nodes are processed parents-first, so `top` may be an instance
  // pushed for the *current* element (self-nested names like //a/a); the
  // enclosing instance is then one below. Stack depths are strictly
  // increasing, so at most one extra probe is needed.
  Instance* below =
      pstack.size() >= 2 ? pstack[pstack.size() - 2] : nullptr;
  switch (q->axis) {
    case Axis::kChild: {
      const int want = instant ? depth : depth - 1;
      if (top->depth == want) return top;
      if (top->depth > want && below != nullptr && below->depth == want)
        return below;
      return nullptr;
    }
    case Axis::kAttribute:
      // Only instant attribute events reach here; owner is the element
      // currently at elem_depth_.
      return top->depth == depth ? top : nullptr;
    case Axis::kDescendant: {
      // Strict: an instance at a smaller element depth. For instant leaf
      // kinds the node's depth is conceptually depth+1, so <= depth works.
      int limit = instant ? depth : depth - 1;
      if (top->depth <= limit) return top;
      if (pstack.size() >= 2 && pstack[pstack.size() - 2]->depth <= limit)
        return pstack[pstack.size() - 2];
      return nullptr;
    }
    case Axis::kDescendantOrSelf:
      return top->depth <= depth ? top : nullptr;
    case Axis::kSelf:
      // Elements only: a leaf's self steps are matched by MatchLeaf.
      return top->depth == depth ? top : nullptr;
    case Axis::kParent:
      return nullptr;  // rewritten away before compilation
  }
  return nullptr;
}

QuickXScan::Instance* QuickXScan::Allocate() {
  if (free_list_.empty()) {
    pool_.emplace_back();
    return &pool_.back();
  }
  // Recycle: live state stays O(|Q| * r), the paper's optimality bound.
  Instance* m = free_list_.back();
  free_list_.pop_back();
  m->bits = 0;
  m->value.clear();
  m->node_id.clear();
  m->pending.clear();
  m->carried.clear();
  return m;
}

QuickXScan::Instance* QuickXScan::Push(const QueryNode* q, const XmlEvent& ev,
                                       Instance* parent_ref, int depth,
                                       bool instant) {
  Instance* m = Allocate();
  m->q = q;
  m->depth = depth;
  m->instant = instant;
  m->parent_ref = parent_ref;
  m->collecting = q->collect_value;
  if (q->is_result) m->node_id.assign(ev.node_id.data(), ev.node_id.size());
  stacks_[q->id].push_back(m);
  if (m->collecting) collecting_.push_back(m);
  live_instances_++;
  stats_.instances_created++;
  stats_.peak_live_instances =
      std::max(stats_.peak_live_instances, live_instances_);
  return m;
}

// True if a parent-step instance at element depth `p_depth` is a legitimate
// parent match for a node at `m_depth` under `axis` (m_depth is the owner's
// depth for instant leaf kinds).
static bool AxisAdmits(Axis axis, int p_depth, int m_depth, bool instant) {
  switch (axis) {
    case Axis::kChild:
      return instant ? p_depth == m_depth : p_depth == m_depth - 1;
    case Axis::kAttribute:
      return p_depth == m_depth;
    case Axis::kSelf:
      return p_depth == m_depth;
    case Axis::kDescendant:
      return instant ? p_depth <= m_depth : p_depth <= m_depth - 1;
    case Axis::kDescendantOrSelf:
      return p_depth <= m_depth;
    case Axis::kParent:
      return false;
  }
  return false;
}

void QuickXScan::Pop(Instance* m) {
  const QueryNode* q = m->q;
  std::vector<Instance*>& stack = stacks_[q->id];
  // Instances pop in reverse push order, so m is the stack top.
  stack.pop_back();
  if (m->collecting) collecting_.pop_back();
  live_instances_--;

  const bool preds_ok = q->pred.Eval(m->bits);
  const bool self_ok = preds_ok && CompareOk(q, m->value);

  // Branch satisfaction: by transitivity, every parent-step instance whose
  // subtree contains this match is satisfied — for descendant-family axes
  // that is the whole compatible run of the stack, not just the top.
  // (This realizes the Table-1 upward/sideways propagation of Boolean
  // attributes; set-semantics make multi-target delivery duplicate-free.)
  if (q->is_branch && self_ok) {
    const std::vector<Instance*>& pstack = stacks_[q->parent->id];
    const uint64_t bit = uint64_t{1} << q->branch_bit;
    const bool gap_axis = q->axis == Axis::kDescendant ||
                          q->axis == Axis::kDescendantOrSelf;
    for (auto it = pstack.rbegin(); it != pstack.rend(); ++it) {
      Instance* p = *it;
      if (AxisAdmits(q->axis, p->depth, m->depth, m->instant)) {
        p->bits |= bit;
        if (!gap_axis) break;  // exact-depth axes have one target
      } else if (!gap_axis && p->depth < m->depth - 1) {
        break;
      }
    }
  }

  // Candidate result sequences. `carried` items already have a witness at
  // this query level; `pending` items gain one iff this instance's
  // predicates hold; a result-node instance contributes itself.
  std::vector<ResultNode> valid = std::move(m->carried);
  if (preds_ok && !m->pending.empty()) {
    valid.insert(valid.end(), std::make_move_iterator(m->pending.begin()),
                 std::make_move_iterator(m->pending.end()));
    m->pending.clear();
  }
  if (q->is_result && self_ok) {
    ResultNode r;
    r.doc_id = doc_id_;
    r.node_id = std::move(m->node_id);
    r.string_value = std::move(m->value);
    valid.push_back(std::move(r));
  }

  // Single-path result routing (the paper's duplicate-avoidance rule):
  // propagate upward when this instance has its own up-link — i.e. it does
  // not share the parent-step match with the enclosing same-step instance —
  // otherwise sideways into that instance's already-witnessed set. Results
  // stranded by failed predicates move sideways as still-pending: an
  // enclosing same-step instance may yet witness them.
  Instance* lower = stack.empty() ? nullptr : stack.back();
  const bool has_up = lower == nullptr || lower->parent_ref != m->parent_ref;
  if (!valid.empty()) {
    if (has_up) {
      if (m->parent_ref != nullptr) {
        Instance* up = m->parent_ref;
        up->pending.insert(up->pending.end(),
                           std::make_move_iterator(valid.begin()),
                           std::make_move_iterator(valid.end()));
      }
    } else {
      lower->carried.insert(lower->carried.end(),
                            std::make_move_iterator(valid.begin()),
                            std::make_move_iterator(valid.end()));
    }
  }
  if (!preds_ok && !m->pending.empty() && lower != nullptr) {
    lower->pending.insert(lower->pending.end(),
                          std::make_move_iterator(m->pending.begin()),
                          std::make_move_iterator(m->pending.end()));
  }
  free_list_.push_back(m);
}

void QuickXScan::MatchElement(const XmlEvent& ev) {
  const int depth = elem_depth_;
  open_by_depth_.emplace_back();
  // Topological (parent-before-child) order lets self/descendant-or-self
  // edges see instances pushed for this same element.
  for (const auto& node : tree_->nodes()) {
    const QueryNode* q = node.get();
    if (q->parent == nullptr) continue;
    bool test_ok;
    switch (q->test) {
      case NodeTest::kName: test_ok = q->name_id == ev.local; break;
      case NodeTest::kAnyName: test_ok = true; break;
      case NodeTest::kAnyKind: test_ok = true; break;
      default: test_ok = false;
    }
    if (!test_ok || q->axis == Axis::kAttribute) continue;
    Instance* parent_ref = FindAxisCandidate(q, depth, /*instant=*/false);
    if (parent_ref == nullptr) continue;
    Instance* m = Push(q, ev, parent_ref, depth, /*instant=*/false);
    open_by_depth_.back().push_back(m);
  }
}

// True if step `q`'s axis and node test admit the leaf `ev`. An attribute
// is reached by the attribute axis (whose node() is every attribute), or as
// itself by self::node().
static bool LeafTestOk(const QueryNode* q, const XmlEvent& ev) {
  switch (ev.type) {
    case XmlEvent::Type::kAttribute:
      if (q->axis == Axis::kSelf) return q->test == NodeTest::kAnyKind;
      return q->axis == Axis::kAttribute &&
             (q->test == NodeTest::kAnyName || q->test == NodeTest::kAnyKind ||
              (q->test == NodeTest::kName && q->name_id == ev.local));
    case XmlEvent::Type::kText:
      return q->axis != Axis::kAttribute &&
             (q->test == NodeTest::kText || q->test == NodeTest::kAnyKind);
    case XmlEvent::Type::kComment:
      return q->axis != Axis::kAttribute &&
             (q->test == NodeTest::kComment || q->test == NodeTest::kAnyKind);
    case XmlEvent::Type::kPi:
      return q->axis != Axis::kAttribute && q->test == NodeTest::kAnyKind;
    default:
      return false;
  }
}

void QuickXScan::MatchLeaf(const QueryNode* q, const XmlEvent& ev,
                           Instance* parent_ref, int depth) {
  Instance* m = Push(q, ev, parent_ref, depth, /*instant=*/true);
  m->value.assign(ev.value.data(), ev.value.size());
  for (const QueryNode* c : q->children)
    if (c->axis == Axis::kSelf && LeafTestOk(c, ev)) MatchLeaf(c, ev, m, depth);
  Pop(m);
}

void QuickXScan::MatchInstant(const XmlEvent& ev) {
  const int depth = elem_depth_;
  for (const auto& node : tree_->nodes()) {
    const QueryNode* q = node.get();
    // A self step reaches a leaf only through its parent step's instance.
    if (q->parent == nullptr || q->axis == Axis::kSelf) continue;
    // Context nodes accept any top-level item, including attributes.
    if (!LeafTestOk(q, ev) && !q->is_context) continue;
    Instance* parent_ref = FindAxisCandidate(q, depth, /*instant=*/true);
    if (parent_ref != nullptr) MatchLeaf(q, ev, parent_ref, depth);
  }
  // Leaf text also feeds every open value-collecting instance.
  if (ev.type == XmlEvent::Type::kText) {
    for (Instance* m : collecting_)
      m->value.append(ev.value.data(), ev.value.size());
  }
}

Status QuickXScan::Feed(const XmlEvent& ev) {
  stats_.events++;
  switch (ev.type) {
    case XmlEvent::Type::kStartDocument:
    case XmlEvent::Type::kEndDocument:
      return Status::OK();  // the root instance is managed by Begin()
    case XmlEvent::Type::kStartElement:
      elem_depth_++;
      MatchElement(ev);
      return Status::OK();
    case XmlEvent::Type::kEndElement: {
      if (open_by_depth_.empty())
        return Status::Corruption("unbalanced events in QuickXScan");
      std::vector<Instance*> open = std::move(open_by_depth_.back());
      open_by_depth_.pop_back();
      for (auto it = open.rbegin(); it != open.rend(); ++it) Pop(*it);
      elem_depth_--;
      return Status::OK();
    }
    case XmlEvent::Type::kNamespace:
      return Status::OK();
    case XmlEvent::Type::kAttribute:
    case XmlEvent::Type::kText:
    case XmlEvent::Type::kComment:
    case XmlEvent::Type::kPi:
      MatchInstant(ev);
      return Status::OK();
  }
  return Status::Corruption("unknown event type");
}

bool QuickXScan::ChildrenIrrelevant() const {
  if (!collecting_.empty()) return false;
  for (const auto& node : tree_->nodes()) {
    const QueryNode* q = node.get();
    if (q->parent == nullptr) continue;
    const std::vector<Instance*>& pstack = stacks_[q->parent->id];
    if (pstack.empty()) continue;
    switch (q->axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        // Open instances sit at depths <= elem_depth_, so only the top can
        // be this element.
        if (pstack.back()->depth == elem_depth_) return false;
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        return false;
      case Axis::kSelf:
      case Axis::kParent:
        break;
    }
  }
  return true;
}

void QuickXScan::Reset(uint64_t doc_id) {
  doc_id_ = doc_id;
  free_list_.clear();
  for (Instance& m : pool_) free_list_.push_back(&m);
  for (std::vector<Instance*>& stack : stacks_) stack.clear();
  open_by_depth_.clear();
  collecting_.clear();
  root_instance_ = nullptr;
  elem_depth_ = 0;
  live_instances_ = 0;
  stats_ = QuickXScanStats();
}

void QuickXScan::Begin() {
  // Synthesize the root (document) instance so streams without document
  // events (subtree streams) still anchor absolute and relative paths.
  root_instance_ = Allocate();
  root_instance_->q = tree_->root();
  root_instance_->depth = 0;
  root_instance_->instant = false;
  root_instance_->parent_ref = nullptr;
  root_instance_->collecting = false;
  stacks_[tree_->root()->id].push_back(root_instance_);
  live_instances_++;
  stats_.instances_created++;
}

Status QuickXScan::Finish(NodeSequence* results) {
  if (elem_depth_ != 0)
    return Status::Corruption("event stream ended with open elements");

  // Finalize: the root's accumulated results are the answer (the root has
  // no predicates). A root-as-result ('/' alone) is not supported.
  std::vector<ResultNode>& pending = root_instance_->pending;
  std::vector<ResultNode>& carried = root_instance_->carried;
  results->reserve(results->size() + pending.size() + carried.size());
  for (auto& r : pending) results->push_back(std::move(r));
  for (auto& r : carried) results->push_back(std::move(r));
  NormalizeSequence(results);
  stats_.memory_bytes = pool_.size() * sizeof(Instance);
  return Status::OK();
}

Status QuickXScan::Run(XmlEventSource* source, NodeSequence* results) {
  Begin();
  XmlEvent ev;
  for (;;) {
    XDB_ASSIGN_OR_RETURN(bool more, source->Next(&ev));
    if (!more) break;
    XDB_RETURN_NOT_OK(Feed(ev));
  }
  return Finish(results);
}

Result<NodeSequence> EvaluateXPath(Slice path_expr, const NameDictionary& dict,
                                   XmlEventSource* source, uint64_t doc_id,
                                   bool want_values, QuickXScanStats* stats) {
  XDB_ASSIGN_OR_RETURN(Path path, ParsePath(path_expr));
  XDB_ASSIGN_OR_RETURN(std::unique_ptr<QueryTree> tree,
                       QueryTree::Compile(path, dict, want_values));
  NodeSequence results;
  QuickXScan scan(tree.get(), doc_id);
  XDB_RETURN_NOT_OK(scan.Run(source, &results));
  if (stats != nullptr) *stats = scan.stats();
  return results;
}

}  // namespace xpath
}  // namespace xdb
