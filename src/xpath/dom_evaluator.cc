#include "xpath/dom_evaluator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace xdb {
namespace xpath {

namespace {
void CollectDescendants(const DomNode* n, std::vector<const DomNode*>* out) {
  for (const DomNode* c : n->children) {
    out->push_back(c);
    CollectDescendants(c, out);
  }
}
}  // namespace

bool DomEvaluator::TestMatches(const Step& step, const DomNode* n) const {
  // An attribute is named only on the attribute axis; elsewhere it matches
  // only self::node(), as itself (a predicate's `.`).
  if (n->kind == NodeKind::kAttribute && step.axis != Axis::kAttribute)
    return step.axis == Axis::kSelf && step.test == NodeTest::kAnyKind;
  switch (step.test) {
    case NodeTest::kName: {
      if (n->kind != NodeKind::kElement && n->kind != NodeKind::kAttribute)
        return false;
      NameId id = dict_->Lookup(step.name);
      return id != NameDictionary::kInvalidNameId && n->local == id;
    }
    case NodeTest::kAnyName:
      return n->kind == NodeKind::kElement || n->kind == NodeKind::kAttribute;
    case NodeTest::kText:
      return n->kind == NodeKind::kText;
    case NodeTest::kComment:
      return n->kind == NodeKind::kComment;
    case NodeTest::kAnyKind:  // on the attribute axis, every attribute
      return n->kind != NodeKind::kNamespace;
  }
  return false;
}

void DomEvaluator::ApplyStep(const Step& step, const DomNode* ctx,
                             std::vector<const DomNode*>* out) const {
  std::vector<const DomNode*> candidates;
  switch (step.axis) {
    case Axis::kChild:
      candidates.assign(ctx->children.begin(), ctx->children.end());
      break;
    case Axis::kAttribute:
      for (const DomNode* a : ctx->attrs)
        if (a->kind == NodeKind::kAttribute) candidates.push_back(a);
      break;
    case Axis::kDescendant:
      CollectDescendants(ctx, &candidates);
      break;
    case Axis::kSelf:
      candidates.push_back(ctx);
      break;
    case Axis::kDescendantOrSelf:
      candidates.push_back(ctx);
      CollectDescendants(ctx, &candidates);
      break;
    case Axis::kParent:
      if (ctx->parent != nullptr) candidates.push_back(ctx->parent);
      break;
  }
  for (const DomNode* c : candidates) {
    if (!TestMatches(step, c)) continue;
    bool ok = true;
    for (const auto& pred : step.predicates) {
      if (!EvalExpr(*pred, c)) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(c);
  }
}

void DomEvaluator::EvalSteps(const Path& path, size_t step_idx,
                             const std::vector<const DomNode*>& context,
                             std::vector<const DomNode*>* out) const {
  if (step_idx >= path.steps.size()) {
    out->insert(out->end(), context.begin(), context.end());
    return;
  }
  std::vector<const DomNode*> next;
  std::unordered_set<const DomNode*> seen;
  for (const DomNode* ctx : context) {
    std::vector<const DomNode*> hits;
    ApplyStep(path.steps[step_idx], ctx, &hits);
    for (const DomNode* h : hits)
      if (seen.insert(h).second) next.push_back(h);
  }
  EvalSteps(path, step_idx + 1, next, out);
}

bool DomEvaluator::EvalExpr(const Expr& expr, const DomNode* ctx) const {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return EvalExpr(*expr.lhs, ctx) && EvalExpr(*expr.rhs, ctx);
    case Expr::Kind::kOr:
      return EvalExpr(*expr.lhs, ctx) || EvalExpr(*expr.rhs, ctx);
    case Expr::Kind::kNot:
      return !EvalExpr(*expr.lhs, ctx);
    case Expr::Kind::kExists: {
      std::vector<const DomNode*> hits;
      EvalSteps(expr.path, 0, {ctx}, &hits);
      return !hits.empty();
    }
    case Expr::Kind::kCompare: {
      std::vector<const DomNode*> hits;
      EvalSteps(expr.path, 0, {ctx}, &hits);
      const bool relational =
          expr.op != CompOp::kEq && expr.op != CompOp::kNe;
      for (const DomNode* h : hits) {
        std::string value = DomTree::StringValue(h);
        bool ok;
        if (relational || expr.literal_is_number) {
          double lhs = StringToNumber(value);
          double rhs = expr.literal_is_number ? expr.number
                                              : StringToNumber(expr.string);
          if (std::isnan(lhs) || std::isnan(rhs)) continue;
          switch (expr.op) {
            case CompOp::kEq: ok = lhs == rhs; break;
            case CompOp::kNe: ok = lhs != rhs; break;
            case CompOp::kLt: ok = lhs < rhs; break;
            case CompOp::kLe: ok = lhs <= rhs; break;
            case CompOp::kGt: ok = lhs > rhs; break;
            case CompOp::kGe: ok = lhs >= rhs; break;
            default: ok = false;
          }
        } else {
          bool eq = value == expr.string;
          ok = expr.op == CompOp::kEq ? eq : !eq;
        }
        if (ok) return true;  // existential semantics
      }
      return false;
    }
  }
  return false;
}

Result<NodeSequence> DomEvaluator::Evaluate(const Path& path,
                                            bool want_values) const {
  std::vector<const DomNode*> context;
  if (path.absolute) {
    context.push_back(tree_->root());
  } else {
    // Top-level items (the implicit context of QuickXScan's relative paths).
    const DomNode* doc = tree_->root();
    for (const DomNode* a : doc->attrs) context.push_back(a);
    for (const DomNode* c : doc->children) context.push_back(c);
  }
  std::vector<const DomNode*> hits;
  EvalSteps(path, 0, context, &hits);
  NodeSequence seq;
  seq.reserve(hits.size());
  for (const DomNode* h : hits) {
    ResultNode r;
    r.doc_id = doc_id_;
    r.node_id = h->node_id;
    if (want_values) r.string_value = DomTree::StringValue(h);
    seq.push_back(std::move(r));
  }
  NormalizeSequence(&seq);
  return seq;
}

}  // namespace xpath
}  // namespace xdb
