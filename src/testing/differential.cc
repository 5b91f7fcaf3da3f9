#include "testing/differential.h"

#include <algorithm>
#include <cctype>
#include <exception>
#include <iterator>
#include <map>
#include <vector>

#include "common/random.h"
#include "engine/collection.h"
#include "engine/engine.h"
#include "query/access_path.h"
#include "runtime/virtual_sax.h"
#include "xdm/dom_tree.h"
#include "xdm/item.h"
#include "xml/node_id.h"
#include "xml/parser.h"
#include "xpath/ast.h"
#include "xpath/dom_evaluator.h"
#include "xpath/naive_stream.h"
#include "xpath/parser.h"
#include "xpath/quickxscan.h"

namespace xdb {
namespace testing {

namespace {

std::string RenderSeq(const NodeSequence& seq) {
  std::string out = "{";
  for (size_t i = 0; i < seq.size(); i++) {
    if (i > 0) out += ", ";
    out += std::to_string(seq[i].doc_id) + ":" +
           (seq[i].node_id.empty() ? "root" : nodeid::ToString(seq[i].node_id));
  }
  out += "}";
  return out;
}

/// Node identity is (document, node ID). A single-document leg numbers its
/// document 1, as a fresh collection does its first insert.
bool SameNodes(const NodeSequence& a, const NodeSequence& b) { return a == b; }

std::string Diverged(const std::string& engine, const NodeSequence& got,
                     const NodeSequence& want,
                     const char* want_name = "the DOM reference") {
  return engine + " returned " + RenderSeq(got) + " but " + want_name +
         " returned " + RenderSeq(want);
}

struct SweepCounters {
  uint64_t quickxscan = 0;
  uint64_t naive = 0;
  uint64_t plans = 0;
  uint64_t edited = 0;
};

/// Runs `query` over `coll` under six planner flavors: the five force
/// modes (structural included) and the cost-based auto plan re-run so the
/// second execution is served from the compiled-plan cache. Returns "" when
/// every flavor returns `want`, else the first failure or divergence,
/// prefixed by `label`. Counts executions in *runs when given.
std::string CheckFlavors(Collection* coll, const std::string& query,
                         const NodeSequence& want, const char* want_name,
                         const std::string& label, uint64_t* runs) {
  static const ForceMethod kForces[] = {
      ForceMethod::kAuto,       ForceMethod::kScan,
      ForceMethod::kDocIdList,  ForceMethod::kNodeIdList,
      ForceMethod::kStructural, ForceMethod::kAuto};
  static const char* kForceNames[] = {
      "plan:auto",        "plan:scan",       "plan:docid-list",
      "plan:nodeid-list", "plan:structural", "plan:auto-cached"};
  for (size_t f = 0; f < 6; f++) {
    QueryOptions qo;
    qo.force = kForces[f];
    auto res_r = coll->Query(nullptr, query, qo);
    if (!res_r.ok())
      return label + kForceNames[f] + " failed: " + res_r.status().ToString();
    NodeSequence got = std::move(res_r.value().nodes);
    NormalizeSequence(&got);
    if (runs != nullptr) (*runs)++;
    if (!SameNodes(got, want)) {
      return Diverged(label + kForceNames[f], got, want, want_name) + " [" +
             query::AccessMethodName(res_r.value().stats.method) + "]";
    }
  }
  return "";
}

/// "" when two B+trees hold the same (key, value) entries.
std::string CompareTrees(const std::string& name, BTree* kept, BTree* fresh) {
  std::vector<std::pair<std::string, std::string>> entries[2];
  BTree* trees[2] = {kept, fresh};
  for (int t = 0; t < 2; t++) {
    Status st = [&]() -> Status {
      XDB_ASSIGN_OR_RETURN(BTree::Iterator it, trees[t]->SeekToFirst());
      while (it.Valid()) {
        entries[t].emplace_back(it.key().ToString(), it.value().ToString());
        XDB_RETURN_NOT_OK(it.Next());
      }
      return Status::OK();
    }();
    if (!st.ok()) return name + " scan failed: " + st.ToString();
  }
  if (entries[0] == entries[1]) return "";
  return "index '" + name + "' holds " + std::to_string(entries[0].size()) +
         " entries that differ from its backfill's " +
         std::to_string(entries[1].size());
}

/// One structural index's per-name count/span table.
std::string RenderStructuralStats(const query::StructuralStatsSnapshot& s) {
  std::string out = std::to_string(s.entry_count) + " entries (" +
                    std::to_string(s.other_count) + " pooled)";
  for (const auto& [name, ns] : s.names)
    out += ", <" + name + "> " + std::to_string(ns.count) + "/" +
           std::to_string(ns.span_sum);
  return out;
}

}  // namespace

std::string CheckIndexesMatchBackfill(Collection* coll) {
  const CollectionMeta meta = coll->meta();  // the twins' DDL changes it
  const std::string kTwin = "#backfill";
  std::string err;
  auto docs = coll->DocCount();
  if (!docs.ok()) return "doc count: " + docs.status().ToString();
  const uint64_t counted = coll->stats()->Snapshot().doc_count;
  if (counted != docs.value())
    return "stats doc_count " + std::to_string(counted) + " != " +
           std::to_string(docs.value()) + " stored documents";
  for (const ValueIndexMeta& vi : meta.value_indexes) {
    ValueIndexDef twin = vi.def;
    twin.name += kTwin;
    Status st = coll->CreateValueIndex(twin);
    if (st.ok()) {
      err = CompareTrees(vi.def.name, coll->FindValueIndex(vi.def.name)->tree(),
                         coll->FindValueIndex(twin.name)->tree());
      query::CollectionStatsSnapshot snap = coll->stats()->Snapshot();
      const uint64_t kept = snap.indexes[vi.def.name].entry_count;
      const uint64_t fresh = snap.indexes[twin.name].entry_count;
      if (err.empty() && kept != fresh)
        err = vi.def.name + " stats count " + std::to_string(kept) +
              " entries != backfill's " + std::to_string(fresh);
      st = coll->DropValueIndex(twin.name);
    }
    if (err.empty() && !st.ok()) err = twin.name + ": " + st.ToString();
    if (!err.empty()) return err;
  }
  for (const StructuralIndexMeta& si : meta.structural_indexes) {
    StructuralIndexDef twin = si.def;
    twin.name += kTwin;
    Status st = coll->CreateStructuralIndex(twin);
    if (st.ok()) {
      err = CompareTrees(si.def.name,
                         coll->FindStructuralIndex(si.def.name)->tree(),
                         coll->FindStructuralIndex(twin.name)->tree());
      query::CollectionStatsSnapshot snap = coll->stats()->Snapshot();
      std::string kept = RenderStructuralStats(snap.structural[si.def.name]);
      std::string fresh = RenderStructuralStats(snap.structural[twin.name]);
      if (err.empty() && kept != fresh)
        err = si.def.name + " stats " + kept + " != backfill's " + fresh;
      st = coll->DropStructuralIndex(twin.name);
    }
    if (err.empty() && !st.ok()) err = twin.name + ": " + st.ToString();
    if (!err.empty()) return err;
  }
  return "";
}

namespace {

/// The post-edit leg. Edits the stored document: deletes the first element
/// child of the first element with the most element children, then
/// re-inserts its serialized text after the new first child, so the
/// document keeps IDs no canonical numbering would assign. Then backfills
/// string value indexes on every generator name and rewrites the
/// document's first text node. It requires every flavor to equal a forced
/// scan of the edited document (the node IDs are the stored ones, not the
/// DOM reference's), every index to equal a fresh backfill, and the
/// document to stay deletable. The edit is chosen from the document alone,
/// so --seed= replay and the minimizer still work. Sets *edited to false,
/// and checks nothing, when no element has two element children.
std::string CheckAfterEdit(Collection* coll, uint64_t doc_id,
                           const std::string& query, bool* edited) {
  QueryOptions scan;
  scan.force = ForceMethod::kScan;
  auto elems = coll->Query(nullptr, "//*", scan);
  if (!elems.ok()) return "post-edit //* failed: " + elems.status().ToString();
  NormalizeSequence(&elems.value().nodes);
  // Element children by parent; node-ID order is document order.
  std::map<std::string, std::vector<std::string>> kids;
  for (const ResultNode& e : elems.value().nodes) {
    auto parent = nodeid::Parent(e.node_id);
    if (parent.ok()) kids[parent.value().ToString()].push_back(e.node_id);
  }
  const std::pair<const std::string, std::vector<std::string>>* pick =
      nullptr;
  for (const auto& entry : kids) {
    if (entry.second.size() >= 2 &&
        (pick == nullptr || entry.second.size() > pick->second.size()))
      pick = &entry;
  }
  *edited = pick != nullptr;
  if (pick == nullptr) return "";
  const std::vector<std::string>& children = pick->second;

  auto text = coll->SerializeSubtree(nullptr, doc_id, children[0]);
  if (!text.ok()) return "post-edit serialize: " + text.status().ToString();
  Status st = coll->DeleteSubtree(nullptr, doc_id, children[0]);
  if (!st.ok()) return "post-edit first-child delete: " + st.ToString();
  st = coll->InsertSubtree(nullptr, doc_id, pick->first, children[1],
                           text.value())
           .status();
  if (!st.ok()) return "post-edit positional insert: " + st.ToString();
  for (std::string name : {"a", "b", "c", "d", "e", "@v", "@w", "@x"}) {
    st = coll->CreateValueIndex({"edit" + name, "//" + name});
    if (!st.ok()) return "post-edit index //" + name + ": " + st.ToString();
  }
  auto texts = coll->Query(nullptr, "//text()", scan);
  if (!texts.ok()) return "post-edit //text(): " + texts.status().ToString();
  if (!texts.value().nodes.empty()) {
    st = coll->UpdateTextNode(nullptr, doc_id, texts.value().nodes[0].node_id,
                              "250");
    if (!st.ok()) return "post-edit text update: " + st.ToString();
  }

  auto want = coll->Query(nullptr, query, scan);
  if (!want.ok()) return "post-edit scan failed: " + want.status().ToString();
  NormalizeSequence(&want.value().nodes);
  std::string err = CheckFlavors(coll, query, want.value().nodes,
                                 "the forced scan", "post-edit ", nullptr);
  if (err.empty()) err = CheckIndexesMatchBackfill(coll);
  if (!err.empty()) return err;
  st = coll->DeleteDocument(nullptr, doc_id);
  if (!st.ok()) return "post-edit document delete: " + st.ToString();
  err = CheckIndexesMatchBackfill(coll);
  return err.empty() ? "" : "after the document delete: " + err;
}

/// The stored engine's leg on a fresh collection of `engine` packed at
/// `budget`: packed records + NodeID index + value indexes, under every
/// planner flavor, then the post-edit leg. Value indexes are derived from
/// the query's own predicate paths so the DocID/NodeID-list plans get real
/// probes.
std::string CheckStored(Engine* engine, size_t budget, const std::string& doc,
                        const xpath::Path& path, const std::string& query,
                        const NodeSequence& ref, SweepCounters* counters,
                        bool* edited) {
  CollectionOptions co;
  co.record_budget = budget;
  auto coll_r =
      engine->CreateCollection("diff" + std::to_string(budget), co);
  if (!coll_r.ok())
    return "collection create failed: " + coll_r.status().ToString();
  Collection* coll = coll_r.value();

  {
    std::vector<query::CandidatePredicate> cands;
    bool unindexable = false;
    if (query::ExtractCandidates(path, &cands, &unindexable).ok()) {
      int n = 0;
      for (const auto& cand : cands) {
        ValueIndexDef def;
        def.name = "vi" + std::to_string(n++);
        def.path = cand.full_path.ToString();
        def.type = cand.literal_is_number ? ValueType::kDouble
                                          : ValueType::kString;
        // Unsupported index paths simply leave the plan to fall back.
        (void)coll->CreateValueIndex(def);
      }
    }
  }

  // An all-names structural index so the forced structural flavor below
  // runs a real structural scan rather than its full-scan fallback;
  // maintenance runs through the same insert as the records.
  {
    Status si = coll->CreateStructuralIndex({"structure", ""});
    if (!si.ok())
      return "structural index create failed: " + si.ToString();
  }

  auto ins_r = coll->InsertDocument(nullptr, doc);
  if (!ins_r.ok())
    return "stored insert failed: " + ins_r.status().ToString();

  // Any stats-, cache- or interval-induced divergence from the DOM
  // reference surfaces here.
  std::string err =
      CheckFlavors(coll, query, ref, "the DOM reference", "",
                   counters != nullptr ? &counters->plans : nullptr);
  if (!err.empty()) return err;
  return CheckAfterEdit(coll, ins_r.value(), query, edited);
}

std::string CompareEnginesCounted(const std::string& doc,
                                  const std::string& query,
                                  bool run_collection_plans,
                                  SweepCounters* counters) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  Status s = parser.Parse(doc, &tokens);
  if (!s.ok()) return "document does not parse: " + s.ToString();

  auto path_r = xpath::ParsePath(query);
  if (!path_r.ok())
    return "query does not parse: " + path_r.status().ToString();
  const xpath::Path& path = path_r.value();

  // Reference: DOM navigation.
  auto tree_r = DomTree::FromTokens(tokens.data());
  if (!tree_r.ok()) return "DOM build failed: " + tree_r.status().ToString();
  xpath::DomEvaluator dom_eval(tree_r.value().get(), &dict, 1);
  auto ref_r = dom_eval.Evaluate(path, false);
  if (!ref_r.ok()) return "DOM evaluation failed: " + ref_r.status().ToString();
  NodeSequence ref = ref_r.MoveValue();
  NormalizeSequence(&ref);

  // QuickXScan over the event stream.
  {
    TokenStreamSource source(tokens.data());
    auto quick_r = xpath::EvaluateXPath(query, dict, &source, 1, false);
    if (!quick_r.ok())
      return "QuickXScan failed: " + quick_r.status().ToString();
    NodeSequence quick = quick_r.MoveValue();
    NormalizeSequence(&quick);
    if (counters != nullptr) counters->quickxscan++;
    if (!SameNodes(quick, ref)) return Diverged("QuickXScan", quick, ref);
  }

  // Naive streaming evaluator, when the query is in its linear subset.
  {
    xpath::NaiveStreamEvaluator naive(&path, &dict, 1);
    TokenStreamSource source(tokens.data());
    NodeSequence got;
    Status ns = naive.Run(&source, &got);
    if (ns.ok()) {
      NormalizeSequence(&got);
      if (counters != nullptr) counters->naive++;
      if (!SameNodes(got, ref)) return Diverged("NaiveStream", got, ref);
    } else if (!ns.IsNotSupported()) {
      return "NaiveStream failed: " + ns.ToString();
    }
  }

  if (!run_collection_plans) return "";

  // The stored engine, on two collections: at the default record budget,
  // where generated documents fit one record, and at a 96-byte budget,
  // where they spread over many, so every edit meets packed siblings and
  // proxies.
  EngineOptions eo;
  eo.in_memory = true;
  auto engine_r = Engine::Open(eo);
  if (!engine_r.ok())
    return "engine open failed: " + engine_r.status().ToString();
  auto engine = engine_r.MoveValue();
  bool edited = false;
  for (size_t budget : {CollectionOptions().record_budget, size_t{96}}) {
    std::string err = CheckStored(engine.get(), budget, doc, path, query, ref,
                                  counters, &edited);
    if (!err.empty())
      return "[" + std::to_string(budget) + "-byte records] " + err;
  }
  if (edited && counters != nullptr) counters->edited++;
  return "";
}

// --- text-level document reduction (generator-shaped XML) ---

struct Span {
  size_t begin, end;  // [begin, end)
};

/// Complete element spans (open tag through matching close tag), excluding
/// any span that covers the entire document.
std::vector<Span> ElementSpans(const std::string& xml) {
  std::vector<Span> spans;
  std::vector<size_t> open;
  size_t i = 0;
  while (i < xml.size()) {
    if (xml[i] != '<') {
      i++;
      continue;
    }
    size_t gt = xml.find('>', i);
    if (gt == std::string::npos) break;
    if (i + 1 < xml.size() && xml[i + 1] == '/') {
      if (!open.empty()) {
        size_t start = open.back();
        open.pop_back();
        if (start != 0 || gt + 1 != xml.size())
          spans.push_back({start, gt + 1});
      }
    } else if (xml[i + 1] == '!' || xml[i + 1] == '?') {
      // comment / PI: skip
    } else if (xml[gt - 1] == '/') {
      if (i != 0 || gt + 1 != xml.size()) spans.push_back({i, gt + 1});
    } else {
      open.push_back(i);
    }
    i = gt + 1;
  }
  return spans;
}

/// ` name="value"` attribute spans inside open tags.
std::vector<Span> AttributeSpans(const std::string& xml) {
  std::vector<Span> spans;
  size_t i = 0;
  while (i < xml.size()) {
    if (xml[i] != '<' || i + 1 >= xml.size() || xml[i + 1] == '/' ||
        xml[i + 1] == '!' || xml[i + 1] == '?') {
      i++;
      continue;
    }
    size_t gt = xml.find('>', i);
    if (gt == std::string::npos) break;
    size_t p = i + 1;
    while (p < gt && !std::isspace(static_cast<unsigned char>(xml[p]))) p++;
    while (p < gt) {
      size_t attr_start = p;  // at the whitespace before the name
      while (p < gt && std::isspace(static_cast<unsigned char>(xml[p]))) p++;
      size_t eq = xml.find('=', p);
      if (eq == std::string::npos || eq >= gt) break;
      size_t q1 = xml.find('"', eq);
      if (q1 == std::string::npos || q1 >= gt) break;
      size_t q2 = xml.find('"', q1 + 1);
      if (q2 == std::string::npos || q2 >= gt) break;
      spans.push_back({attr_start, q2 + 1});
      p = q2 + 1;
    }
    i = gt + 1;
  }
  return spans;
}

/// Non-empty text runs between tags.
std::vector<Span> TextSpans(const std::string& xml) {
  std::vector<Span> spans;
  size_t i = 0;
  while (i < xml.size()) {
    if (xml[i] == '<') {
      size_t gt = xml.find('>', i);
      if (gt == std::string::npos) break;
      i = gt + 1;
      continue;
    }
    size_t lt = xml.find('<', i);
    if (lt == std::string::npos) lt = xml.size();
    if (lt > i) spans.push_back({i, lt});
    i = lt;
  }
  return spans;
}

/// Tries each span (largest first); the first removal that still fails is
/// applied and reported. Returns false when no span can be removed.
bool TryRemoveOne(std::string* xml, std::vector<Span> spans,
                  const std::function<bool(const std::string&)>& still_fails) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return (a.end - a.begin) > (b.end - b.begin);
  });
  for (const Span& sp : spans) {
    std::string cand = xml->substr(0, sp.begin) + xml->substr(sp.end);
    if (still_fails(cand)) {
      *xml = std::move(cand);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string MinimizeDocument(
    const std::string& doc,
    const std::function<bool(const std::string&)>& still_fails) {
  std::string cur = doc;
  for (;;) {
    if (TryRemoveOne(&cur, ElementSpans(cur), still_fails)) continue;
    if (TryRemoveOne(&cur, AttributeSpans(cur), still_fails)) continue;
    if (TryRemoveOne(&cur, TextSpans(cur), still_fails)) continue;
    break;
  }
  return cur;
}

std::string MinimizeQuery(
    const std::string& query,
    const std::function<bool(const std::string&)>& still_fails) {
  auto parsed = xpath::ParsePath(query);
  if (!parsed.ok()) return query;
  xpath::Path cur = std::move(parsed.value());
  for (;;) {
    bool reduced = false;
    // Drop one predicate.
    for (size_t i = 0; i < cur.steps.size() && !reduced; i++) {
      for (size_t j = 0; j < cur.steps[i].predicates.size(); j++) {
        xpath::Path cand = xpath::ClonePath(cur);
        cand.steps[i].predicates.erase(cand.steps[i].predicates.begin() + j);
        if (still_fails(cand.ToString())) {
          cur = std::move(cand);
          reduced = true;
          break;
        }
      }
    }
    if (reduced) continue;
    // Drop one whole step.
    if (cur.steps.size() > 1) {
      for (size_t i = 0; i < cur.steps.size(); i++) {
        xpath::Path cand = xpath::ClonePath(cur);
        cand.steps.erase(cand.steps.begin() + i);
        if (still_fails(cand.ToString())) {
          cur = std::move(cand);
          reduced = true;
          break;
        }
      }
    }
    if (!reduced) break;
  }
  return cur.ToString();
}

namespace {

// The comparison sweep's values: integers, fractions with one or two
// digits, strings that read as numbers only once trimmed or compared as
// numbers, a negative number (no XPath literal spells it) and a word.
const char* const kComparisonPool[] = {
    "0",    "5",    "7",    "9",   "10",   "60",  "500", "700", "-2", "0.3",
    "0.46", "0.47", "2.5", "9.75", "0.05", "5.0", "060", " 7 ", "0.30", "ab"};

// `v` without surrounding spaces when that is an XPath number literal
// (digits with at most one point), else "".
std::string AsNumberLiteral(const std::string& v) {
  size_t b = v.find_first_not_of(' ');
  size_t e = v.find_last_not_of(' ');
  if (b == std::string::npos) return "";
  std::string t = v.substr(b, e - b + 1);
  if (t.find_first_not_of("0123456789.") != std::string::npos ||
      std::count(t.begin(), t.end(), '.') > 1 || t == ".")
    return "";
  return t;
}

}  // namespace

std::string ComparisonCase::ToString() const {
  std::string out = std::string(ValueTypeName(index_type)) + " index on " +
                    index_path + (index_first ? " (before" : " (after") +
                    " the inserts), query " + query + ", documents";
  for (const std::string& d : docs) out += " " + d;
  return out;
}

ComparisonCase GenComparisonCase(uint64_t seed) {
  static const ValueType kTypes[] = {ValueType::kString, ValueType::kDouble,
                                     ValueType::kDecimal};
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  // The operator that states the same comparison with its sides swapped.
  static const char* const kMirrored[] = {"=", "!=", ">", ">=", "<", "<="};
  Random rng(seed);
  auto pick = [&] {
    return std::string(
        kComparisonPool[rng.Uniform(std::size(kComparisonPool))]);
  };
  ComparisonCase c;
  c.index_type = kTypes[rng.Uniform(std::size(kTypes))];
  const bool attribute = rng.OneIn(2);
  c.index_path = attribute ? "/r/@k" : "/r/k";
  c.index_first = !rng.OneIn(4);
  const size_t docs = 6 + rng.Uniform(5);
  for (size_t i = 0; i < docs; i++) {
    std::string doc = "<r k=\"" + pick() + "\">";
    for (size_t k = 1 + rng.Uniform(2); k > 0; k--)
      doc += "<k>" + pick() + "</k>";
    c.docs.push_back(doc + "</r>");
  }
  const size_t op = rng.Uniform(std::size(kOps));
  const std::string value = pick();
  std::string literal = AsNumberLiteral(value);
  if (literal.empty() || rng.OneIn(2)) literal = "\"" + value + "\"";
  const std::string lhs = attribute ? "@k" : "k";
  c.query = rng.OneIn(4)
                ? "/r[" + literal + " " + kMirrored[op] + " " + lhs + "]"
                : "/r[" + lhs + " " + kOps[op] + " " + literal + "]";
  return c;
}

std::string CheckComparisonCase(const ComparisonCase& c) {
  auto path_r = xpath::ParsePath(c.query);
  if (!path_r.ok())
    return "query does not parse: " + path_r.status().ToString();
  EngineOptions eo;
  eo.in_memory = true;
  eo.enable_wal = false;
  auto engine_r = Engine::Open(eo);
  if (!engine_r.ok())
    return "engine open failed: " + engine_r.status().ToString();
  auto engine = engine_r.MoveValue();
  auto coll_r = engine->CreateCollection("comparisons");
  if (!coll_r.ok())
    return "collection create failed: " + coll_r.status().ToString();
  Collection* coll = coll_r.value();
  ValueIndexDef def;
  def.name = "k";
  def.path = c.index_path;
  def.type = c.index_type;
  if (c.index_first) {
    Status st = coll->CreateValueIndex(def);
    if (!st.ok()) return "index create failed: " + st.ToString();
  }

  // The reference: each document's DOM evaluation under its stored DocID.
  NodeSequence ref;
  for (const std::string& doc : c.docs) {
    auto id = coll->InsertDocument(nullptr, doc);
    if (!id.ok()) return "insert failed: " + id.status().ToString();
    NameDictionary dict;
    Parser parser(&dict);
    TokenWriter tokens;
    Status st = parser.Parse(doc, &tokens);
    if (!st.ok()) return "document does not parse: " + st.ToString();
    auto tree = DomTree::FromTokens(tokens.data());
    if (!tree.ok()) return "DOM build failed: " + tree.status().ToString();
    auto got = xpath::DomEvaluator(tree.value().get(), &dict, id.value())
                   .Evaluate(path_r.value(), false);
    if (!got.ok())
      return "DOM evaluation failed: " + got.status().ToString();
    ref.insert(ref.end(), got.value().begin(), got.value().end());
  }
  NormalizeSequence(&ref);
  if (!c.index_first) {
    Status st = coll->CreateValueIndex(def);
    if (!st.ok()) return "index create failed: " + st.ToString();
  }
  return CheckFlavors(coll, c.query, ref, "the DOM reference", "", nullptr);
}

DiffCase GenCase(uint64_t seed, const DiffOptions& options) {
  Random rng(seed);
  DiffCase c;
  c.doc = workload::GenRandomXml(&rng, options.xml);
  c.query = workload::GenRandomXPath(&rng, options.xpath);
  return c;
}

std::string CompareEngines(const std::string& doc, const std::string& query,
                           bool run_collection_plans) {
  return CompareEnginesCounted(doc, query, run_collection_plans, nullptr);
}

std::string DiffOutcome::Report() const {
  if (ok) return "ok";
  std::string out = "differential divergence (replay: --seed=" +
                    std::to_string(seed) + ")\n  " + detail +
                    "\n  query: " + query + "\n  doc:   " + doc;
  if (!minimized_query.empty() || !minimized_doc.empty()) {
    out += "\n  minimized query: " + minimized_query +
           "\n  minimized doc:   " + minimized_doc;
  }
  return out;
}

DiffOutcome RunCase(uint64_t seed, const DiffOptions& options) {
  DiffOutcome out;
  out.seed = seed;
  DiffCase c = GenCase(seed, options);
  out.doc = c.doc;
  out.query = c.query;
  out.detail = CompareEngines(c.doc, c.query, options.run_collection_plans);
  out.ok = out.detail.empty();
  if (!out.ok && options.minimize) {
    bool plans = options.run_collection_plans;
    std::string q = c.query;
    out.minimized_doc = MinimizeDocument(
        c.doc, [&](const std::string& d) {
          return !CompareEngines(d, q, plans).empty();
        });
    out.minimized_query = MinimizeQuery(q, [&](const std::string& cand) {
      return !CompareEngines(out.minimized_doc, cand, plans).empty();
    });
    // A smaller query may unlock further document cuts.
    out.minimized_doc = MinimizeDocument(
        out.minimized_doc, [&](const std::string& d) {
          return !CompareEngines(d, out.minimized_query, plans).empty();
        });
    out.detail = CompareEngines(out.minimized_doc, out.minimized_query, plans);
    if (out.detail.empty())  // should not happen; keep the original story
      out.detail = CompareEngines(c.doc, c.query, plans);
  }
  return out;
}

SweepResult RunSweep(uint64_t base_seed, uint64_t iters,
                     const DiffOptions& options, std::ostream* log) {
  SweepResult res;
  SweepCounters counters;
  for (uint64_t i = 0; i < iters; i++) {
    uint64_t seed = base_seed + i;
    DiffCase c = GenCase(seed, options);
    std::string detail;
    try {
      detail = CompareEnginesCounted(c.doc, c.query,
                                     options.run_collection_plans, &counters);
    } catch (const std::exception& e) {
      // Reported unminimized: every replay would throw again.
      res.cases_run++;
      res.ok = false;
      res.first_failure.ok = false;
      res.first_failure.seed = seed;
      res.first_failure.doc = c.doc;
      res.first_failure.query = c.query;
      res.first_failure.detail = std::string("the case threw ") + e.what();
      break;
    }
    res.cases_run++;
    if (!detail.empty()) {
      res.ok = false;
      res.first_failure = RunCase(seed, options);
      break;
    }
    if (log != nullptr && (i + 1) % 200 == 0) {
      *log << "differential sweep: " << (i + 1) << "/" << iters
           << " cases agree\n";
    }
  }
  res.quickxscan_runs = counters.quickxscan;
  res.naive_stream_runs = counters.naive;
  res.plan_runs = counters.plans;
  res.edited_runs = counters.edited;
  return res;
}

}  // namespace testing
}  // namespace xdb
