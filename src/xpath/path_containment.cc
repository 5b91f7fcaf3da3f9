#include "xpath/path_containment.h"

#include <vector>

namespace xdb {
namespace xpath {

namespace {

struct LinStep {
  bool descendant;  // edge from previous step (or root) crosses >= 1 level
  bool attribute;
  bool any_name;
  std::string name;
  bool any_kind;  // node() placeholder steps
};

// Flattens a path into linear steps; returns false if not linear.
bool Linearize(const Path& path, std::vector<LinStep>* out) {
  if (!path.absolute) return false;
  bool pending_descendant = false;
  for (const Step& s : path.steps) {
    LinStep ls;
    ls.descendant = pending_descendant;
    pending_descendant = false;
    ls.attribute = false;
    ls.any_name = false;
    ls.any_kind = false;
    switch (s.axis) {
      case Axis::kChild:
        break;
      case Axis::kDescendant:
        ls.descendant = true;
        break;
      case Axis::kDescendantOrSelf:
        // A node() descendant-or-self step is a pure gap marker.
        if (s.test == NodeTest::kAnyKind && s.predicates.empty()) {
          pending_descendant = true;
          continue;
        }
        return false;
      case Axis::kAttribute:
        ls.attribute = true;
        break;
      case Axis::kSelf:
        if (s.test == NodeTest::kAnyKind && s.predicates.empty()) continue;
        return false;
      default:
        return false;
    }
    switch (s.test) {
      case NodeTest::kName:
        ls.name = s.name;
        break;
      case NodeTest::kAnyName:
        ls.any_name = true;
        break;
      case NodeTest::kAnyKind:
        ls.any_kind = true;
        break;
      default:
        return false;  // text()/comment() are not value-indexable
    }
    out->push_back(std::move(ls));
  }
  return !out->empty();
}

bool TestSubsumes(const LinStep& index_step, const LinStep& query_step) {
  if (index_step.attribute != query_step.attribute) return false;
  if (index_step.any_kind || index_step.any_name)
    return true;  // index wildcard covers anything of the right class
  if (query_step.any_name || query_step.any_kind)
    return false;  // a concrete index name cannot cover a query wildcard
  return index_step.name == query_step.name;
}

bool TestSubsumes(const PathPattern::Step& pattern_step,
                  const NamedStep& node) {
  if (pattern_step.attribute != node.attribute) return false;
  return pattern_step.any_name || pattern_step.name == node.name;
}

bool Gap(const LinStep& s) { return s.descendant; }
bool Gap(const PathPattern::Step& s) { return s.descendant; }
bool Gap(const NamedStep&) { return false; }  // concrete paths have none

// The homomorphism search: whether the steps I embed into the steps Q.
// M[i][j]: I[0..i] embeds into Q with I[i] mapped to Q[j].
template <typename IStep, typename QStep>
bool Embeds(const std::vector<IStep>& I, const std::vector<QStep>& Q) {
  const size_t n = I.size(), m = Q.size();
  if (n == 0 || n > m) return false;
  std::vector<char> M(n * m, 0);
  auto at = [&](size_t i, size_t j) -> char& { return M[i * m + j]; };
  for (size_t j = 0; j < m; j++) {
    if (!TestSubsumes(I[0], Q[j])) continue;
    if (Gap(I[0])) {
      at(0, j) = 1;  // gap from the root to any depth
    } else {
      at(0, j) = (j == 0 && !Gap(Q[0])) ? 1 : 0;
    }
  }
  for (size_t i = 1; i < n; i++) {
    for (size_t j = i; j < m; j++) {
      if (!TestSubsumes(I[i], Q[j])) continue;
      if (Gap(I[i])) {
        for (size_t j2 = i - 1; j2 < j; j2++) {
          if (at(i - 1, j2)) {
            at(i, j) = 1;
            break;
          }
        }
      } else {
        // Child edge: must map to a child edge between adjacent steps.
        if (!Gap(Q[j]) && at(i - 1, j - 1)) at(i, j) = 1;
      }
    }
  }
  return at(n - 1, m - 1) != 0;
}

}  // namespace

bool PathContains(const Path& index, const Path& query) {
  std::vector<LinStep> I, Q;
  if (!Linearize(index, &I) || !Linearize(query, &Q)) return false;
  return Embeds(I, Q);
}

Path AnchorPrefix(const Path& query, size_t anchor_step) {
  Path prefix;
  prefix.absolute = true;
  if (!query.absolute) {
    Step context;
    context.axis = Axis::kChild;
    context.test = NodeTest::kAnyName;
    prefix.steps.push_back(std::move(context));
  }
  for (size_t i = 0; i <= anchor_step && i < query.steps.size(); i++) {
    Step step = CloneStep(query.steps[i]);
    step.predicates.clear();
    prefix.steps.push_back(std::move(step));
  }
  return prefix;
}

PathPattern PathPattern::Compile(const Path& pattern,
                                 const NameDictionary& dict) {
  PathPattern out;
  std::vector<LinStep> lin;
  if (!Linearize(pattern, &lin)) return out;
  for (const LinStep& ls : lin) {
    Step step;
    step.descendant = ls.descendant;
    step.attribute = ls.attribute;
    step.any_name = ls.any_name || ls.any_kind;
    // Lookup, not Intern: an absent name is kInvalidNameId, which no
    // stored node carries.
    if (!step.any_name) step.name = dict.Lookup(Slice(ls.name));
    out.steps_.push_back(step);
  }
  return out;
}

bool PathPattern::Matches(const std::vector<NamedStep>& concrete) const {
  return Embeds(steps_, concrete);
}

IndexMatch ClassifyIndexMatch(const Path& index, const Path& query) {
  if (!PathContains(index, query)) return IndexMatch::kNone;
  // Equivalence via mutual containment (exact for these fragments when the
  // wider path is *-free; conservative otherwise).
  if (PathContains(query, index)) return IndexMatch::kExact;
  return IndexMatch::kContains;
}

bool IsIndexablePath(const Path& path) {
  std::vector<LinStep> steps;
  if (!Linearize(path, &steps)) return false;
  for (const Step& s : path.steps) {
    if (!s.predicates.empty()) return false;
  }
  for (size_t i = 0; i < steps.size(); i++) {
    if (steps[i].attribute && i + 1 != steps.size()) return false;
    if (steps[i].any_kind && i + 1 == steps.size()) return false;
  }
  return true;
}

}  // namespace xpath
}  // namespace xdb
