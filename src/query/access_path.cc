#include "query/access_path.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <string>

#include "xdm/item.h"
#include "xml/node_id.h"

namespace xdb {
namespace query {

const char* AccessMethodName(AccessMethod m) {
  switch (m) {
    case AccessMethod::kFullScan: return "full-scan";
    case AccessMethod::kDocIdList: return "docid-list";
    case AccessMethod::kNodeIdList: return "nodeid-list";
    case AccessMethod::kDocIdAndOr: return "docid-anding/oring";
    case AccessMethod::kNodeIdAndOr: return "nodeid-anding/oring";
    case AccessMethod::kStructuralScan: return "structural-scan";
  }
  return "?";
}

namespace {
xpath::Step CloneStepSkeleton(const xpath::Step& s) {
  xpath::Step out;
  out.axis = s.axis;
  out.test = s.test;
  out.name = s.name;
  return out;
}

// Levels the branch adds below the anchor, or -1 if not a pure
// child/attribute chain.
int BranchStripLevels(const xpath::Path& branch) {
  int levels = 0;
  for (const auto& s : branch.steps) {
    switch (s.axis) {
      case xpath::Axis::kChild:
      case xpath::Axis::kAttribute:
        levels++;
        break;
      case xpath::Axis::kSelf:
        break;
      default:
        return -1;
    }
  }
  return levels;
}
}  // namespace

xpath::Path ClonePathSkeleton(const xpath::Path& path) {
  xpath::Path out;
  out.absolute = path.absolute;
  for (const auto& s : path.steps) out.steps.push_back(CloneStepSkeleton(s));
  return out;
}

xpath::Path ConcatPredicatePath(const xpath::Path& main, size_t step_index,
                                const xpath::Path& branch) {
  xpath::Path out;
  out.absolute = main.absolute;
  for (size_t i = 0; i <= step_index && i < main.steps.size(); i++)
    out.steps.push_back(CloneStepSkeleton(main.steps[i]));
  for (const auto& s : branch.steps) {
    if (s.axis == xpath::Axis::kSelf && s.test == xpath::NodeTest::kAnyKind)
      continue;  // '.' steps add nothing to the linear path
    out.steps.push_back(CloneStepSkeleton(s));
  }
  return out;
}

namespace {

bool BranchIsLinear(const xpath::Path& branch) {
  for (const auto& s : branch.steps) {
    if (!s.predicates.empty()) return false;
    switch (s.axis) {
      case xpath::Axis::kChild:
      case xpath::Axis::kAttribute:
      case xpath::Axis::kDescendant:
      case xpath::Axis::kDescendantOrSelf:
      case xpath::Axis::kSelf:
        break;
      default:
        return false;
    }
  }
  return true;
}

void TryAddComparison(const xpath::Path& query, size_t step_index,
                      const xpath::Expr& e, bool or_group, int group_id,
                      std::vector<CandidatePredicate>* out, bool* unindexable) {
  // != needs a full index range and still rechecks everything: not a probe.
  if (e.kind != xpath::Expr::Kind::kCompare || !BranchIsLinear(e.path) ||
      e.op == xpath::CompOp::kNe) {
    *unindexable = true;
    return;
  }
  CandidatePredicate c;
  c.step_index = step_index;
  c.full_path = ConcatPredicatePath(query, step_index, e.path);
  c.op = e.op;
  c.literal_is_number = e.literal_is_number;
  c.number = e.number;
  c.string = e.string;
  c.strip_levels = BranchStripLevels(e.path);
  c.or_group = or_group;
  c.group_id = group_id;
  out->push_back(std::move(c));
}

// Collects OR-group members; true if every leaf is a comparison.
bool CollectOrLeaves(const xpath::Expr& e,
                     std::vector<const xpath::Expr*>* leaves) {
  if (e.kind == xpath::Expr::Kind::kOr) {
    return CollectOrLeaves(*e.lhs, leaves) && CollectOrLeaves(*e.rhs, leaves);
  }
  if (e.kind == xpath::Expr::Kind::kCompare) {
    leaves->push_back(&e);
    return true;
  }
  return false;
}

}  // namespace

Status ExtractCandidates(const xpath::Path& query,
                         std::vector<CandidatePredicate>* out,
                         bool* has_unindexable_predicates) {
  out->clear();
  *has_unindexable_predicates = false;
  int next_group = 0;
  for (size_t i = 0; i < query.steps.size(); i++) {
    for (const auto& pred : query.steps[i].predicates) {
      // Split top-level ANDs into conjuncts.
      std::vector<const xpath::Expr*> conjuncts;
      std::vector<const xpath::Expr*> work{pred.get()};
      while (!work.empty()) {
        const xpath::Expr* e = work.back();
        work.pop_back();
        if (e->kind == xpath::Expr::Kind::kAnd) {
          work.push_back(e->lhs.get());
          work.push_back(e->rhs.get());
        } else {
          conjuncts.push_back(e);
        }
      }
      for (const xpath::Expr* e : conjuncts) {
        if (e->kind == xpath::Expr::Kind::kCompare) {
          TryAddComparison(query, i, *e, /*or_group=*/false, -1, out,
                           has_unindexable_predicates);
        } else if (e->kind == xpath::Expr::Kind::kOr) {
          std::vector<const xpath::Expr*> leaves;
          if (CollectOrLeaves(*e, &leaves)) {
            int group = next_group++;
            for (const xpath::Expr* leaf : leaves)
              TryAddComparison(query, i, *leaf, /*or_group=*/true, group, out,
                               has_unindexable_predicates);
          } else {
            *has_unindexable_predicates = true;
          }
        } else {
          *has_unindexable_predicates = true;
        }
      }
    }
  }
  return Status::OK();
}

std::vector<uint64_t> DistinctDocIds(const std::vector<Posting>& postings) {
  std::vector<uint64_t> out;
  std::set<uint64_t> seen;
  for (const Posting& p : postings)
    if (seen.insert(p.doc_id).second) out.push_back(p.doc_id);
  return out;
}

Status AnchorPostings(const std::vector<Posting>& postings, int strip_levels,
                      std::vector<Posting>* out) {
  if (strip_levels < 0)
    return Status::InvalidArgument("cannot anchor across descendant steps");
  out->clear();
  out->reserve(postings.size());
  for (const Posting& p : postings) {
    Posting a = p;
    Slice id(a.node_id);
    for (int i = 0; i < strip_levels; i++) {
      // Strip the last level (trailing even byte plus preceding odd bytes).
      if (id.empty()) return Status::Corruption("node id shorter than branch");
      size_t end = id.size() - 1;
      while (end > 0 &&
             (static_cast<unsigned char>(id[end - 1]) & 1) != 0)
        end--;
      id = Slice(id.data(), end);
    }
    a.node_id = id.ToString();
    out->push_back(std::move(a));
  }
  return Status::OK();
}

namespace {
struct PostingKeyLess {
  bool operator()(const Posting& a, const Posting& b) const {
    if (a.doc_id != b.doc_id) return a.doc_id < b.doc_id;
    return Slice(a.node_id).Compare(Slice(b.node_id)) < 0;
  }
};
bool SamePosting(const Posting& a, const Posting& b) {
  return a.doc_id == b.doc_id && a.node_id == b.node_id;
}
}  // namespace

std::vector<Posting> IntersectPostings(
    std::vector<std::vector<Posting>> lists) {
  if (lists.empty()) return {};
  for (auto& l : lists) {
    std::sort(l.begin(), l.end(), PostingKeyLess());
    l.erase(std::unique(l.begin(), l.end(), SamePosting), l.end());
  }
  std::vector<Posting> acc = std::move(lists[0]);
  for (size_t i = 1; i < lists.size(); i++) {
    std::vector<Posting> merged;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(merged),
                          PostingKeyLess());
    acc = std::move(merged);
  }
  return acc;
}

std::vector<Posting> UnionPostings(std::vector<std::vector<Posting>> lists) {
  std::vector<Posting> acc;
  for (auto& l : lists)
    acc.insert(acc.end(), std::make_move_iterator(l.begin()),
               std::make_move_iterator(l.end()));
  std::sort(acc.begin(), acc.end(), PostingKeyLess());
  acc.erase(std::unique(acc.begin(), acc.end(), SamePosting), acc.end());
  return acc;
}

Status StructuralAnchorJoin(const std::vector<Posting>& values,
                            const std::vector<Posting>& anchors,
                            std::vector<Posting>* out) {
  out->clear();
  if (values.empty() || anchors.empty()) return Status::OK();
  std::vector<Posting> v = values;
  std::vector<Posting> a = anchors;
  std::sort(v.begin(), v.end(), PostingKeyLess());
  std::sort(a.begin(), a.end(), PostingKeyLess());
  // One forward pass in document order. `open` is the chain of anchors whose
  // intervals are still open at the current position; levels are
  // self-delimiting, so "ancestor-or-self" is exactly a prefix test, and an
  // anchor popped here can never contain a later value (byte order places a
  // node between a prefix and its extensions only if it shares the prefix).
  auto contains = [](const Posting& anc, const Posting& node) {
    return anc.doc_id == node.doc_id &&
           (Slice(anc.node_id) == Slice(node.node_id) ||
            nodeid::IsAncestor(Slice(anc.node_id), Slice(node.node_id)));
  };
  std::vector<const Posting*> open;
  PostingKeyLess less;
  size_t ai = 0;
  for (const Posting& p : v) {
    while (ai < a.size() && !less(p, a[ai])) {
      while (!open.empty() && !contains(*open.back(), a[ai])) open.pop_back();
      open.push_back(&a[ai]);
      ai++;
    }
    while (!open.empty() && !contains(*open.back(), p)) open.pop_back();
    for (const Posting* anc : open) out->push_back(*anc);
  }
  std::sort(out->begin(), out->end(), PostingKeyLess());
  out->erase(std::unique(out->begin(), out->end(), SamePosting), out->end());
  return Status::OK();
}

std::string ProbeLiteral(const CandidatePredicate& pred) {
  if (!pred.literal_is_number && pred.op == xpath::CompOp::kEq)
    return pred.string;
  const double v =
      pred.literal_is_number ? pred.number : StringToNumber(pred.string);
  // The shortest digits that read back as `v`, written out in fixed
  // notation, the only one XPath's number grammar reads: 1e23 probes as "1"
  // and 23 zeros, not as its double's exact 99999999999999991611392.
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific)
          .ptr;
  if (!std::isfinite(v)) return std::string(buf, end);
  char* e = std::find(buf, end, 'e');
  const bool minus = buf[0] == '-';
  std::string digits(buf + minus, e);
  if (digits.size() > 1) digits.erase(1, 1);  // "d.ddd" -> "dddd"
  // The exponent ends at `end`: nothing after it is written.
  int exponent = 0;
  std::from_chars(e + 1 + (e[1] == '+'), end, exponent);
  const int point = 1 + exponent;  // integer digits
  if (point < 1) digits.insert(0, static_cast<size_t>(1 - point), '0');
  const size_t n = static_cast<size_t>(std::max(point, 1));
  if (n < digits.size()) {
    digits.insert(n, 1, '.');
  } else {
    digits.resize(n, '0');
  }
  return minus ? "-" + digits : digits;
}

Status ProbeBounds(const ValueIndex& index, const CandidatePredicate& pred,
                   std::optional<KeyBound>* lo, std::optional<KeyBound>* hi,
                   bool* not_equal) {
  lo->reset();
  hi->reset();
  *not_equal = false;
  const std::string literal = ProbeLiteral(pred);
  // -0 = 0 in a comparison, but a double index keys "-0" apart, just below
  // 0's key: a bound at zero spans both keys, `low` to `key`.
  const bool zero = index.def().type == ValueType::kDouble &&
                    StringToNumber(literal) == 0;
  std::string key, low;
  XDB_RETURN_NOT_OK(index.EncodeKey(zero ? "0" : literal, &key));
  XDB_RETURN_NOT_OK(index.EncodeKey(zero ? "-0" : literal, &low));
  switch (pred.op) {
    case xpath::CompOp::kEq:
      *lo = KeyBound{low, true};
      *hi = KeyBound{key, true};
      break;
    case xpath::CompOp::kNe:
      *not_equal = true;  // full range, drop equal keys during recheck
      break;
    case xpath::CompOp::kLt:
      *hi = KeyBound{low, false};
      break;
    case xpath::CompOp::kLe:
      *hi = KeyBound{key, true};
      break;
    case xpath::CompOp::kGt:
      *lo = KeyBound{key, false};
      break;
    case xpath::CompOp::kGe:
      *lo = KeyBound{low, true};
      break;
  }
  return Status::OK();
}

}  // namespace query
}  // namespace xdb
