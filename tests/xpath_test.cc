// XPath tests: lexer/parser, parent rewrite, containment, QueryTree
// compilation, QuickXScan correctness (fixed cases, Table 1 propagation
// scenarios, and randomized differential testing against the DOM
// evaluator), and the naive streaming baseline.
#include <gtest/gtest.h>

#include <deque>

#include "common/random.h"
#include "runtime/virtual_sax.h"
#include "util/workload.h"
#include "xdm/dom_tree.h"
#include "xml/node_id.h"
#include "xml/parser.h"
#include "xpath/dom_evaluator.h"
#include "xpath/naive_stream.h"
#include "xpath/parser.h"
#include "xpath/path_containment.h"
#include "xpath/quickxscan.h"

namespace xdb {
namespace xpath {
namespace {

TEST(XPathParserTest, BasicPaths) {
  auto p = ParsePath("/a/b/c").MoveValue();
  EXPECT_TRUE(p.absolute);
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[0].name, "a");

  p = ParsePath("//s").MoveValue();
  EXPECT_TRUE(p.absolute);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);

  p = ParsePath("/a//b/@id").MoveValue();
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[2].axis, Axis::kAttribute);
  EXPECT_EQ(p.steps[2].name, "id");
}

TEST(XPathParserTest, KindTestsAndWildcards) {
  auto p = ParsePath("/a/*/text()").MoveValue();
  EXPECT_EQ(p.steps[1].test, NodeTest::kAnyName);
  EXPECT_EQ(p.steps[2].test, NodeTest::kText);
  p = ParsePath("/a/node()").MoveValue();
  EXPECT_EQ(p.steps[1].test, NodeTest::kAnyKind);
  p = ParsePath("/a/comment()").MoveValue();
  EXPECT_EQ(p.steps[1].test, NodeTest::kComment);
}

TEST(XPathParserTest, ExplicitAxes) {
  auto p = ParsePath("/child::a/descendant::b/self::c").MoveValue();
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[2].axis, Axis::kSelf);
}

TEST(XPathParserTest, DoubleSlashAttribute) {
  auto p = ParsePath("//@id").MoveValue();
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(p.steps[0].test, NodeTest::kAnyKind);
  EXPECT_EQ(p.steps[1].axis, Axis::kAttribute);
}

TEST(XPathParserTest, Predicates) {
  auto p = ParsePath("//s[.//t = \"XML\" and f/@w > 300]").MoveValue();
  ASSERT_EQ(p.steps.size(), 1u);
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  const Expr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, Expr::Kind::kAnd);
  EXPECT_EQ(e.lhs->kind, Expr::Kind::kCompare);
  EXPECT_EQ(e.lhs->op, CompOp::kEq);
  EXPECT_EQ(e.lhs->string, "XML");
  EXPECT_EQ(e.rhs->kind, Expr::Kind::kCompare);
  EXPECT_EQ(e.rhs->op, CompOp::kGt);
  EXPECT_TRUE(e.rhs->literal_is_number);
  EXPECT_DOUBLE_EQ(e.rhs->number, 300);
}

TEST(XPathParserTest, NotAndOrNesting) {
  auto p = ParsePath("/a[not(b) or (c and d > 1)]").MoveValue();
  const Expr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, Expr::Kind::kOr);
  EXPECT_EQ(e.lhs->kind, Expr::Kind::kNot);
  EXPECT_EQ(e.rhs->kind, Expr::Kind::kAnd);
}

TEST(XPathParserTest, ReversedComparison) {
  auto p = ParsePath("/a[100 < b]").MoveValue();
  const Expr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, Expr::Kind::kCompare);
  EXPECT_EQ(e.op, CompOp::kGt);  // mirrored: b > 100
  EXPECT_DOUBLE_EQ(e.number, 100);
}

TEST(XPathParserTest, ParentRewrite) {
  // "/a/b/.." == "/a[b]"
  auto p = ParsePath("/a/b/..").MoveValue();
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].name, "a");
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  EXPECT_EQ(p.steps[0].predicates[0]->kind, Expr::Kind::kExists);
  // Not rewritable: leading or after-descendant parent steps.
  EXPECT_FALSE(ParsePath("../x").ok());
  EXPECT_FALSE(ParsePath("//a/..").ok());
}

TEST(XPathParserTest, Errors) {
  EXPECT_FALSE(ParsePath("").ok());
  EXPECT_FALSE(ParsePath("/a[").ok());
  EXPECT_FALSE(ParsePath("/a]").ok());
  EXPECT_FALSE(ParsePath("/a[b >]").ok());
  EXPECT_FALSE(ParsePath("/a/following::b").ok());
  EXPECT_FALSE(ParsePath("/a b").ok());
}

TEST(XPathParserTest, ToStringReparses) {
  for (const char* expr :
       {"/a/b/c", "//s", "/a//b/@id",
        "/Catalog/Categories/Product[RegPrice > 100]",
        "//s[.//t = \"XML\" and f/@w > 300]", "/a[not(b)]/*"}) {
    auto p1 = ParsePath(expr).MoveValue();
    std::string rendered = p1.ToString();
    auto p2 = ParsePath(rendered);
    ASSERT_TRUE(p2.ok()) << expr << " -> " << rendered;
    EXPECT_EQ(p2.value().ToString(), rendered) << expr;
  }
}

TEST(ContainmentTest, Table2Examples) {
  auto P = [](const char* s) { return ParsePath(s).MoveValue(); };
  // Case 1: exact match.
  EXPECT_EQ(ClassifyIndexMatch(P("/Catalog/Categories/Product/RegPrice"),
                               P("/Catalog/Categories/Product/RegPrice")),
            IndexMatch::kExact);
  // Case 2: containment -> filtering.
  EXPECT_EQ(ClassifyIndexMatch(P("//Discount"),
                               P("/Catalog/Categories/Product/Discount")),
            IndexMatch::kContains);
  // Non-containment.
  EXPECT_EQ(ClassifyIndexMatch(P("/Catalog/Categories/Product/RegPrice"),
                               P("/Catalog/Categories/Product/Discount")),
            IndexMatch::kNone);
}

TEST(ContainmentTest, DescendantAndWildcardCases) {
  auto P = [](const char* s) { return ParsePath(s).MoveValue(); };
  EXPECT_TRUE(PathContains(P("//b"), P("/a/b")));
  EXPECT_TRUE(PathContains(P("//b"), P("/a//c/b")));
  EXPECT_TRUE(PathContains(P("/a//b"), P("/a/x/y/b")));
  EXPECT_FALSE(PathContains(P("/a/b"), P("/a//b")));  // // is wider
  EXPECT_TRUE(PathContains(P("/a/*"), P("/a/b")));
  EXPECT_FALSE(PathContains(P("/a/b"), P("/a/*")));
  EXPECT_TRUE(PathContains(P("//*/b"), P("/a/c/b")));
  EXPECT_FALSE(PathContains(P("//c//b"), P("/a/c/x")));
  // Attributes only match attributes.
  EXPECT_TRUE(PathContains(P("//@id"), P("/a/b/@id")));
  EXPECT_FALSE(PathContains(P("//id"), P("/a/b/@id")));
}

// A concrete node path (absolute, child and attribute steps with names) by
// name ID, interning its names.
std::vector<NamedStep> Concrete(const Path& path, NameDictionary* dict) {
  std::vector<NamedStep> out;
  for (const Step& s : path.steps)
    out.push_back({dict->Intern(s.name), s.axis == Axis::kAttribute});
  return out;
}

bool IsConcrete(const Path& path) {
  if (!path.absolute || path.steps.empty()) return false;
  for (const Step& s : path.steps) {
    if ((s.axis != Axis::kChild && s.axis != Axis::kAttribute) ||
        s.test != NodeTest::kName || !s.predicates.empty())
      return false;
  }
  return true;
}

// The compiled matcher answers PathContains(pattern, concrete) by name ID.
// Every pair of the containment tests above whose query side is a
// concrete path, then the shapes anchor prefixes take.
TEST(ContainmentTest, CompiledPatternAgreesWithPathContains) {
  auto P = [](const char* s) { return ParsePath(s).MoveValue(); };
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"/Catalog/Categories/Product/RegPrice",
       "/Catalog/Categories/Product/RegPrice"},
      {"//Discount", "/Catalog/Categories/Product/Discount"},
      {"/Catalog/Categories/Product/RegPrice",
       "/Catalog/Categories/Product/Discount"},
      {"//b", "/a/b"},
      {"/a//b", "/a/x/y/b"},
      {"/a/*", "/a/b"},
      {"//*/b", "/a/c/b"},
      {"//c//b", "/a/c/x"},
      {"//@id", "/a/b/@id"},
      {"//id", "/a/b/@id"},
      // `//` gaps: zero or more levels, in order.
      {"/a//b//c", "/a/x/b/y/z/c"},
      {"/a//b//c", "/a/c/b"},
      {"/a//b", "/a/b"},
      {"//b/c", "/a/b/x/c"},
      // Attribute steps match attributes only, and only at their level.
      {"//item/@id", "/r/item/@id"},
      {"//item/@id", "/r/item/id"},
      {"/r/*/@*", "/r/item/@id"},
      {"/r/@id", "/r/item/@id"},
  };
  NameDictionary dict;
  for (const auto& [pattern, query] : pairs) {
    SCOPED_TRACE(pattern + " vs " + query);
    Path q = P(query.c_str());
    ASSERT_TRUE(IsConcrete(q));
    std::vector<NamedStep> concrete = Concrete(q, &dict);
    PathPattern compiled = PathPattern::Compile(P(pattern.c_str()), dict);
    EXPECT_EQ(compiled.Matches(concrete), PathContains(P(pattern.c_str()), q));
  }

  // A relative query evaluates from the root element: its anchor prefix
  // starts with an implicit `*` step, so "c" reaches /a/c but not a root
  // element named c.
  Path relative_prefix = AnchorPrefix(P("c[. > 1]/d"), 0);
  EXPECT_EQ(relative_prefix.ToString(), P("/*/c").ToString());
  PathPattern relative = PathPattern::Compile(relative_prefix, dict);
  for (const char* query : {"/a/c", "/c", "/a/b/c"}) {
    SCOPED_TRACE(query);
    Path q = P(query);
    EXPECT_EQ(relative.Matches(Concrete(q, &dict)),
              PathContains(relative_prefix, q));
  }
  EXPECT_TRUE(relative.Matches(Concrete(P("/a/c"), &dict)));
  EXPECT_FALSE(relative.Matches(Concrete(P("/c"), &dict)));

  // An absolute query's prefix keeps its own steps, predicates dropped.
  EXPECT_EQ(AnchorPrefix(P("/a//b[x = 1]/c"), 1).ToString(),
            P("/a//b").ToString());

  // A pattern name the dictionary lacks at compile time matches nothing,
  // even once a document later brings the name in.
  PathPattern unknown = PathPattern::Compile(P("/a/zzz"), dict);
  EXPECT_FALSE(unknown.Matches(Concrete(P("/a/b"), &dict)));
  EXPECT_FALSE(unknown.Matches(Concrete(P("/a/zzz"), &dict)));
  EXPECT_TRUE(PathPattern::Compile(P("/a/zzz"), dict)
                  .Matches(Concrete(P("/a/zzz"), &dict)));
  // Neither a default pattern nor a non-linear one matches anything.
  EXPECT_FALSE(PathPattern().Matches(Concrete(P("/a"), &dict)));
  EXPECT_FALSE(PathPattern::Compile(P("/a/text()"), dict)
                   .Matches(Concrete(P("/a"), &dict)));
}

TEST(ContainmentTest, IndexablePathShapes) {
  auto P = [](const char* s) { return ParsePath(s).MoveValue(); };
  EXPECT_TRUE(IsIndexablePath(P("/catalog//productname")));
  EXPECT_TRUE(IsIndexablePath(P("//Discount")));
  EXPECT_TRUE(IsIndexablePath(P("/a/b/@id")));
  EXPECT_FALSE(IsIndexablePath(P("/a[b]/c")));     // predicate
  EXPECT_FALSE(IsIndexablePath(P("/a/text()")));   // kind test
}

// --- evaluation harness ---

struct EvalHarness {
  NameDictionary dict;

  // Evaluate with QuickXScan over a parsed token stream.
  NodeSequence Quick(const std::string& xml, const std::string& expr,
                     bool want_values = false,
                     QuickXScanStats* stats = nullptr) {
    Parser parser(&dict);
    TokenWriter tokens;
    Status st = parser.Parse(xml, &tokens);
    EXPECT_TRUE(st.ok()) << st.ToString();
    TokenStreamSource source(tokens.data());
    auto res = EvaluateXPath(expr, dict, &source, 1, want_values, stats);
    EXPECT_TRUE(res.ok()) << expr << ": " << res.status().ToString();
    return res.ok() ? res.MoveValue() : NodeSequence{};
  }

  NodeSequence Dom(const std::string& xml, const std::string& expr,
                   bool want_values = false) {
    Parser parser(&dict);
    TokenWriter tokens;
    Status st = parser.Parse(xml, &tokens);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto tree = DomTree::FromTokens(tokens.data()).MoveValue();
    auto path = ParsePath(expr).MoveValue();
    DomEvaluator eval(tree.get(), &dict, 1);
    auto res = eval.Evaluate(path, want_values);
    EXPECT_TRUE(res.ok()) << expr << ": " << res.status().ToString();
    return res.ok() ? res.MoveValue() : NodeSequence{};
  }

  // Both evaluators must agree.
  NodeSequence Both(const std::string& xml, const std::string& expr) {
    NodeSequence q = Quick(xml, expr);
    NodeSequence d = Dom(xml, expr);
    EXPECT_EQ(Render(q), Render(d)) << "query: " << expr << "\nxml: " << xml;
    return q;
  }

  static std::string Render(const NodeSequence& seq) {
    std::string out;
    for (const auto& r : seq) {
      out += nodeid::ToString(r.node_id);
      out += " ";
    }
    return out;
  }
};

TEST(QuickXScanTest, SimpleChildPaths) {
  EvalHarness h;
  EXPECT_EQ(h.Both("<a><b/><c/><b/></a>", "/a/b").size(), 2u);
  EXPECT_EQ(h.Both("<a><b/><c/></a>", "/a/c").size(), 1u);
  EXPECT_EQ(h.Both("<a><b/></a>", "/x").size(), 0u);
  EXPECT_EQ(h.Both("<a><b><c/></b></a>", "/a/b/c").size(), 1u);
  EXPECT_EQ(h.Both("<a><b><c/></b></a>", "/a/c").size(), 0u);
}

TEST(QuickXScanTest, DescendantPaths) {
  EvalHarness h;
  EXPECT_EQ(h.Both("<a><b/><x><b/><y><b/></y></x></a>", "//b").size(), 3u);
  EXPECT_EQ(h.Both("<a><x><b><b/></b></x></a>", "/a//b").size(), 2u);
  EXPECT_EQ(h.Both("<a><b><a><b/></a></b></a>", "//a//b").size(), 2u);
}

TEST(QuickXScanTest, AttributesAndKindTests) {
  EvalHarness h;
  EXPECT_EQ(h.Both("<a id=\"1\"><b id=\"2\"/><c x=\"3\"/></a>", "//@id").size(),
            2u);
  EXPECT_EQ(h.Both("<a id=\"1\"><b id=\"2\"/></a>", "/a/@id").size(), 1u);
  EXPECT_EQ(h.Both("<a>t1<b>t2</b>t3</a>", "/a/text()").size(), 2u);
  EXPECT_EQ(h.Both("<a>t1<b>t2</b></a>", "//text()").size(), 2u);
  EXPECT_EQ(h.Both("<a><b/><!--c--></a>", "/a/node()").size(), 2u);
  EXPECT_EQ(h.Both("<a><!--one--><b><!--two--></b></a>", "//comment()").size(),
            2u);
  EXPECT_EQ(h.Both("<a><b/><c/></a>", "/a/*").size(), 2u);
}

TEST(QuickXScanTest, ExistencePredicates) {
  EvalHarness h;
  EXPECT_EQ(h.Both("<a><s><t/></s><s/></a>", "//s[t]").size(), 1u);
  EXPECT_EQ(
      h.Both("<a><s><x><t/></x></s><s><t/></s><s/></a>", "//s[.//t]").size(),
      2u);
  EXPECT_EQ(h.Both("<a><s b=\"1\"/><s/></a>", "//s[@b]").size(), 1u);
  EXPECT_EQ(h.Both("<a><s><t/></s><s/></a>", "//s[not(t)]").size(), 1u);
}

TEST(QuickXScanTest, ComparisonPredicates) {
  EvalHarness h;
  const char* doc =
      "<cat><p><price>100</price><name>alpha</name></p>"
      "<p><price>250</price><name>beta</name></p>"
      "<p><price>50</price></p></cat>";
  EXPECT_EQ(h.Both(doc, "/cat/p[price > 90]").size(), 2u);
  EXPECT_EQ(h.Both(doc, "/cat/p[price >= 250]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[price < 60]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[price = 100]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[name = \"beta\"]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[name != \"beta\"]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[price > 90 and name = \"alpha\"]").size(), 1u);
  EXPECT_EQ(h.Both(doc, "/cat/p[price > 1000 or name = \"alpha\"]").size(),
            1u);
}

TEST(QuickXScanTest, PaperFigure6Query) {
  EvalHarness h;
  // //s[.//t = "XML" and f/@w > 300] over a document shaped like Fig 6(b).
  const char* doc =
      "<r><x><s><p><t>XML</t></p><f w=\"400\"/></s></x>"
      "<s><t>other</t><f w=\"500\"/></s>"
      "<s><t>XML</t><f w=\"100\"/></s></r>";
  NodeSequence res = h.Both(doc, "//s[.//t = \"XML\" and f/@w > 300]");
  EXPECT_EQ(res.size(), 1u);
}

TEST(QuickXScanTest, RecursiveNestingTransitivity) {
  EvalHarness h;
  const char* doc = "<a><b><a><b/></a></b><b/></a>";
  EXPECT_EQ(h.Both(doc, "//a//b").size(), 3u);
  EXPECT_EQ(h.Both(doc, "//a/b").size(), 3u);
  EXPECT_EQ(h.Both(doc, "//a[.//b]").size(), 2u);
  // Deeply recursive //a//a//a.
  std::string deep = workload::GenRecursiveXml(8, 1);
  h.Both(deep, "//a//a//a");
  h.Both(deep, "//a//a//a//a//a");
}

TEST(QuickXScanTest, Table1PropagationScenarios) {
  EvalHarness h;
  // Case 1/2 (a/b with one or more a's).
  EXPECT_EQ(h.Both("<r><a><b/><b/></a></r>", "//a/b").size(), 2u);
  EXPECT_EQ(h.Both("<r><a><b/></a><a><b/></a></r>", "//a/b").size(), 2u);
  // Case 3 (a//b, nested b's: t propagates sideways then up).
  EXPECT_EQ(h.Both("<r><a><b><b/></b></a></r>", "//a//b").size(), 2u);
  // Case 4 (both a and b nested).
  EXPECT_EQ(h.Both("<r><a><b><a><b/></a><b/></b></a></r>", "//a//b").size(),
            3u);
  // Values used in predicates across nesting.
  EXPECT_EQ(
      h.Both("<r><a><b>no</b><a><b>XML</b></a></a></r>", "//a[.//b = \"XML\"]")
          .size(),
      2u);
  EXPECT_EQ(
      h.Both("<r><a><b>XML</b><a><b>no</b></a></a></r>", "//a[.//b = \"XML\"]")
          .size(),
      1u);
}

TEST(QuickXScanTest, SelfAndDescendantOrSelfAxes) {
  EvalHarness h;
  EXPECT_EQ(h.Both("<a><b/></a>", "/a/self::a").size(), 1u);
  EXPECT_EQ(h.Both("<a><b/></a>", "/a/self::b").size(), 0u);
  EXPECT_EQ(h.Both("<a><a><a/></a></a>", "/a/descendant-or-self::a").size(),
            3u);
}

// A predicate's `.` on an attribute or text step is that node itself: ten
// <b v="i">t{i%2}</b> children, so four v exceed 5 and five texts are "t1".
// Counts are explicit, since both engines once agreed on 0 for the first.
TEST(QuickXScanTest, PredicatesOnAttributeAndTextSteps) {
  EvalHarness h;
  std::string xml = "<a>";
  for (int i = 0; i < 10; i++)
    xml += "<b v=\"" + std::to_string(i) + "\">t" + std::to_string(i % 2) +
           "</b>";
  xml += "</a>";
  for (const auto& [expr, want] :
       {std::pair<std::string, size_t>{"/a/b/@v[. > 5]", 4},
        {"//@v[. = \"3\"]", 1},
        {"/a/b/text()[. = \"t1\"]", 5},
        {"/a/b[@v > 5]/@v", 4},
        {"/a/b/@v[self::node() > 5]", 4},
        {"/a/b/text()[self::text() = \"t0\"]", 5}}) {
    EXPECT_EQ(h.Quick(xml, expr).size(), want) << expr;
    EXPECT_EQ(h.Dom(xml, expr).size(), want) << expr;
    h.Both(xml, expr);
  }
  // A leaf has no children, and an attribute is not an element.
  EXPECT_EQ(h.Both(xml, "/a/b/text()[*]").size(), 0u);
  EXPECT_EQ(h.Both(xml, "/a/b/@v[self::v]").size(), 0u);
  EXPECT_EQ(h.Both(xml, "/a/b/@v[self::*]").size(), 0u);
  // An element's own text is still not its self.
  EXPECT_EQ(h.Both(xml, "/a/b[self::text()]").size(), 0u);
}

// node() on the attribute axis is every attribute (XPath 1.0: its principal
// node kind is attribute). Counts are explicit, since both engines once
// agreed on 0 for each @node() query.
TEST(QuickXScanTest, AttributeAxisNodeTestSelectsEveryAttribute) {
  EvalHarness h;
  const std::string xml = "<a x=\"1\" y=\"2\"><b z=\"3\">t</b></a>";
  for (const auto& [expr, want] :
       {std::pair<std::string, size_t>{"/a/@node()", 2},
        {"/a/attribute::node()", 2},
        {"//@node()", 3},
        {"/a/b/@node()", 1},
        {"/a[@node() = \"2\"]", 1},
        {"/a/b[@node() = \"2\"]", 0},
        {"/a/@*", 2},
        {"/a/node()", 1}}) {
    EXPECT_EQ(h.Quick(xml, expr).size(), want) << expr;
    EXPECT_EQ(h.Dom(xml, expr).size(), want) << expr;
    h.Both(xml, expr);
  }
}

TEST(QuickXScanTest, ResultValues) {
  EvalHarness h;
  NodeSequence res = h.Quick("<a><b>one<c>two</c></b></a>", "/a/b",
                             /*want_values=*/true);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].string_value, "onetwo");
  res = h.Quick("<a i=\"42\"/>", "/a/@i", true);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].string_value, "42");
}

TEST(QuickXScanTest, RelativePathsUseContext) {
  EvalHarness h;
  // Relative path over a whole-document stream: context = root element.
  NodeSequence res = h.Quick("<p><price>10</price></p>", "price");
  EXPECT_EQ(res.size(), 1u);
  res = h.Quick("<p><price>10</price></p>", ".");
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].node_id, nodeid::ChildId(1));
}

TEST(QuickXScanTest, StateBoundIsQTimesR) {
  EvalHarness h;
  QuickXScanStats stats;
  std::string deep = workload::GenRecursiveXml(20, 2);
  h.Quick(deep, "//a//a", false, &stats);
  // Live instances stay around |Q| * r, far below total instances created.
  EXPECT_GT(stats.instances_created, 40u);
  EXPECT_LE(stats.peak_live_instances, 4u * 21u);
}

TEST(QuickXScanTest, RandomizedDifferentialAgainstDom) {
  EvalHarness h;
  Random rng(2024);
  const char* queries[] = {
      "//a",            "//a/b",       "/a//b",         "//a//b",
      "//*",            "//a/@v",      "//@w",          "/a/*/c",
      "//b[c]",         "//a[.//b]",   "//a[@v]",       "//b[not(d)]",
      "//a[b and c]",   "//a[b or d]", "//*[@x > 500]", "//a//b//c",
      "//b[. = \"7\"]", "//a[b]/c",    "//a/text()",    "//a[not(.//e)]",
  };
  int nonempty = 0;
  for (int iter = 0; iter < 120; iter++) {
    std::string xml = workload::GenRandomXml(&rng, 70);
    const char* q = queries[iter % (sizeof(queries) / sizeof(queries[0]))];
    NodeSequence res = h.Both(xml, q);
    if (!res.empty()) nonempty++;
  }
  // Sanity: the sweep exercised real matches, not just empty results.
  EXPECT_GT(nonempty, 20);
}

TEST(NaiveStreamTest, MatchesQuickXScanOnLinearPaths) {
  EvalHarness h;
  Random rng(404);
  const char* queries[] = {"//a", "/a/b", "//a//b", "/a//b/c", "//a/@v",
                           "//*", "/a/*"};
  for (int iter = 0; iter < 60; iter++) {
    std::string xml = workload::GenRandomXml(&rng, 60);
    const char* q = queries[iter % (sizeof(queries) / sizeof(queries[0]))];
    NodeSequence expected = h.Quick(xml, q);

    Parser parser(&h.dict);
    TokenWriter tokens;
    ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
    auto path = ParsePath(q).MoveValue();
    NaiveStreamEvaluator naive(&path, &h.dict, 1);
    TokenStreamSource source(tokens.data());
    NodeSequence actual;
    Status st = naive.Run(&source, &actual);
    ASSERT_TRUE(st.ok()) << q << ": " << st.ToString();
    EXPECT_EQ(EvalHarness::Render(actual), EvalHarness::Render(expected))
        << q << "\n"
        << xml;
  }
}

TEST(NaiveStreamTest, StateBlowupOnRecursiveDocs) {
  EvalHarness h;
  std::string deep = workload::GenRecursiveXml(24, 1);
  Parser parser(&h.dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse(deep, &tokens).ok());
  auto path = ParsePath("//a//a//a").MoveValue();
  NaiveStreamEvaluator naive(&path, &h.dict, 1);
  TokenStreamSource source(tokens.data());
  NodeSequence out;
  ASSERT_TRUE(naive.Run(&source, &out).ok());

  QuickXScanStats qstats;
  h.Quick(deep, "//a//a//a", false, &qstats);
  // The naive evaluator's live configurations grow combinatorially with
  // nesting depth; QuickXScan's live instances stay linear in r.
  EXPECT_GT(naive.stats().peak_live_configs, 4 * qstats.peak_live_instances);
}

TEST(NaiveStreamTest, RejectsNonLinear) {
  EvalHarness h;
  auto path = ParsePath("//a[b]").MoveValue();
  NaiveStreamEvaluator naive(&path, &h.dict, 1);
  TokenWriter tokens;
  Parser parser(&h.dict);
  ASSERT_TRUE(parser.Parse("<a/>", &tokens).ok());
  TokenStreamSource source(tokens.data());
  NodeSequence out;
  EXPECT_EQ(naive.Run(&source, &out).code(), Status::Code::kNotSupported);
}

TEST(DomEvaluatorTest, ParentAxisNative) {
  EvalHarness h;
  Parser parser(&h.dict);
  TokenWriter tokens;
  ASSERT_TRUE(parser.Parse("<a><b/><c/></a>", &tokens).ok());
  auto tree = DomTree::FromTokens(tokens.data()).MoveValue();
  Path path;
  path.absolute = true;
  Step s1;
  s1.axis = Axis::kChild;
  s1.test = NodeTest::kName;
  s1.name = "a";
  Step s2;
  s2.axis = Axis::kChild;
  s2.test = NodeTest::kName;
  s2.name = "b";
  Step s3;
  s3.axis = Axis::kParent;
  s3.test = NodeTest::kAnyKind;
  path.steps.push_back(std::move(s1));
  path.steps.push_back(std::move(s2));
  path.steps.push_back(std::move(s3));
  DomEvaluator eval(tree.get(), &h.dict, 1);
  auto res = eval.Evaluate(path, false).MoveValue();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].node_id, nodeid::ChildId(1));  // back to <a>
}

TEST(QueryTreeTest, CompileShapes) {
  NameDictionary dict;
  dict.Intern("s");
  dict.Intern("t");
  dict.Intern("f");
  dict.Intern("w");
  auto path = ParsePath("//s[.//t = \"XML\" and f/@w > 300]").MoveValue();
  auto tree = QueryTree::Compile(path, dict, false).MoveValue();
  // root + s + t + f + @w = 5 nodes.
  EXPECT_EQ(tree->nodes().size(), 6u);
  const QueryNode* s = tree->result_node();
  EXPECT_TRUE(s->is_result);
  EXPECT_EQ(s->branch_count, 2);
  EXPECT_FALSE(s->pred.ops.empty());
  // Branch leaves carry the comparisons.
  int compares = 0;
  for (const auto& n : tree->nodes())
    if (n->has_compare) compares++;
  EXPECT_EQ(compares, 2);
}

TEST(QueryTreeTest, UnknownNamesNeverMatch) {
  EvalHarness h;
  // "zzz" is not in the dictionary: the query compiles and returns empty.
  EXPECT_EQ(h.Quick("<a><b/></a>", "//zzz").size(), 0u);
}

// --- ChildrenIrrelevant: what a skipping stored stream may leave out ---

// A document's events (document events excluded) with owned IDs and values,
// so any contiguous slice can be fed as a stream: a subtree stream is the
// slice from its root's first event to its last.
struct OwnedEvents {
  std::vector<XmlEvent> list;
  std::deque<std::string> store;  // stable addresses for the views

  static OwnedEvents Of(NameDictionary* dict, const std::string& xml) {
    Parser parser(dict);
    TokenWriter tokens;
    EXPECT_TRUE(parser.Parse(xml, &tokens).ok()) << xml;
    TokenStreamSource source(tokens.data());
    OwnedEvents out;
    XmlEvent ev;
    while (source.Next(&ev).value()) {
      if (ev.type == XmlEvent::Type::kStartDocument ||
          ev.type == XmlEvent::Type::kEndDocument)
        continue;
      out.store.push_back(ev.node_id.ToString());
      ev.node_id = Slice(out.store.back());
      out.store.push_back(ev.value.ToString());
      ev.value = Slice(out.store.back());
      out.list.push_back(ev);
    }
    return out;
  }

  // The index one past the end event matching the start event at `i` (or
  // i + 1 for a leaf event).
  size_t End(size_t i) const {
    if (list[i].type != XmlEvent::Type::kStartElement) return i + 1;
    int open = 0;
    for (size_t j = i; j < list.size(); j++) {
      if (list[j].type == XmlEvent::Type::kStartElement) open++;
      if (list[j].type == XmlEvent::Type::kEndElement && --open == 0)
        return j + 1;
    }
    return list.size();
  }
};

struct SkipOutcome {
  std::string skipped;  // names of the elements whose children were left out
  NodeSequence full, skipping;
};

// Runs `expr` over events [first, last) twice: every event fed, and as
// EvalAnchor feeds a stored stream (after each start-element event the scan
// reports irrelevant, the element's end event comes next).
SkipOutcome RunSkipping(NameDictionary* dict, const OwnedEvents& events,
                        const std::string& expr, bool want_values,
                        size_t first, size_t last) {
  SkipOutcome out;
  auto path = ParsePath(expr);
  EXPECT_TRUE(path.ok()) << expr;
  auto tree = QueryTree::Compile(path.value(), *dict, want_values).MoveValue();
  QuickXScan full(tree.get(), 1);
  full.Begin();
  for (size_t i = first; i < last; i++)
    EXPECT_TRUE(full.Feed(events.list[i]).ok());
  EXPECT_TRUE(full.Finish(&out.full).ok());
  QuickXScan scan(tree.get(), 1);
  scan.Begin();
  for (size_t i = first; i < last; i++) {
    const XmlEvent& ev = events.list[i];
    EXPECT_TRUE(scan.Feed(ev).ok());
    if (ev.type == XmlEvent::Type::kStartElement && scan.ChildrenIrrelevant()) {
      if (!out.skipped.empty()) out.skipped += " ";
      out.skipped += dict->Name(ev.local).value();
      i = events.End(i) - 2;  // the loop's ++ lands on the end event
    }
  }
  EXPECT_TRUE(scan.Finish(&out.skipping).ok());
  EXPECT_EQ(EvalHarness::Render(out.full), EvalHarness::Render(out.skipping))
      << expr;
  for (size_t i = 0; i < out.full.size() && i < out.skipping.size(); i++)
    EXPECT_EQ(out.full[i].string_value, out.skipping[i].string_value) << expr;
  return out;
}

SkipOutcome RunSkipping(NameDictionary* dict, const std::string& xml,
                        const std::string& expr, bool want_values = false) {
  OwnedEvents events = OwnedEvents::Of(dict, xml);
  return RunSkipping(dict, events, expr, want_values, 0, events.list.size());
}

TEST(ChildrenIrrelevantTest, DescendantFromTheRootNeverSkips) {
  NameDictionary dict;
  SkipOutcome o = RunSkipping(&dict, "<r><a><b><a/></b></a><c><d/></c></r>",
                              "//a");
  EXPECT_EQ(o.skipped, "");
  EXPECT_EQ(o.full.size(), 2u);
}

TEST(ChildrenIrrelevantTest, ChildPathSkipsWhatItCannotReach) {
  NameDictionary dict;
  const std::string xml = "<a><b><x>1</x></b><c><y><b/></y></c><b/></a>";
  // b is still delivered, and with nothing below b in the query its
  // children are left out too; a's other children go entirely.
  SkipOutcome o = RunSkipping(&dict, xml, "/a/b");
  EXPECT_EQ(o.skipped, "b c b");
  EXPECT_EQ(o.full.size(), 2u);
  // A result whose value is wanted is read whole.
  o = RunSkipping(&dict, xml, "/a/b", /*want_values=*/true);
  EXPECT_EQ(o.skipped, "c");
  ASSERT_EQ(o.skipping.size(), 2u);
  EXPECT_EQ(o.skipping[0].string_value, "1");
}

TEST(ChildrenIrrelevantTest, PredicatesKeepWhatTheyTest) {
  NameDictionary dict;
  const std::string xml =
      "<r><a><c><x/></c><b i=\"x\">t<d/></b>t<e><f/></e></a>"
      "<g><a/></g></r>";
  // A descendant predicate keeps a's whole subtree.
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/a[.//x]").skipped, "g");
  // A child predicate keeps a's element children in view but not their
  // children.
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/a[not(b)]").skipped, "c b e g");
  // An attribute below the child: b stays open for its attributes, and
  // only b's element children are left out.
  SkipOutcome o = RunSkipping(&dict, xml, "/r/a[b/@i = \"x\"]");
  EXPECT_EQ(o.skipped, "c d e g");
  EXPECT_EQ(o.full.size(), 1u);
  // text() tests a's own text children only.
  o = RunSkipping(&dict, xml, "/r/a[text() = \"t\"]");
  EXPECT_EQ(o.skipped, "c b e g");
  EXPECT_EQ(o.full.size(), 1u);
  // A comparison on an element collects its string value, so nothing
  // inside it is skipped.
  o = RunSkipping(&dict, "<r><a><b><i>4</i><j>2</j></b><k><l/></k></a></r>",
                  "/r/a[b > 3]");
  EXPECT_EQ(o.skipped, "k");
  EXPECT_EQ(o.full.size(), 1u);  // b's string value is "42"
}

TEST(ChildrenIrrelevantTest, WildcardsAndKindTests) {
  NameDictionary dict;
  const std::string xml = "<r><a><x><y/></x><z/></a><b>t<x/></b></r>";
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/*").skipped, "a b");
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/node()").skipped, "a b");
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/*/x").skipped, "x z x");
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/*/node()").skipped, "x z x");
  EXPECT_EQ(RunSkipping(&dict, xml, "/r/b/text()").skipped, "a x");
}

TEST(ChildrenIrrelevantTest, ResidualOverSubtreeStreams) {
  NameDictionary dict;
  OwnedEvents events = OwnedEvents::Of(
      &dict, "<r><a k=\"1\"><b><c/></b><d><b/></d>tx</a></r>");
  size_t a = 0;
  while (dict.Name(events.list[a].local).value() != "a" ||
         events.list[a].type != XmlEvent::Type::kStartElement)
    a++;
  // The recheck residual: self::node() then the remaining steps, over the
  // anchor's subtree stream.
  SkipOutcome o = RunSkipping(&dict, events, "self::node()[b]/d", false, a,
                              events.End(a));
  EXPECT_EQ(o.skipped, "b d");
  EXPECT_EQ(o.full.size(), 1u);
  o = RunSkipping(&dict, events, "self::node()[@k = \"1\"]", false, a,
                  events.End(a));
  EXPECT_EQ(o.skipped, "b d");
  EXPECT_EQ(o.full.size(), 1u);
  // Attribute and text subtree roots are single events: nothing to skip,
  // and the answer is the full stream's.
  int leaves = 0;
  for (size_t i = a; i < events.End(a); i++) {
    if (events.list[i].type != XmlEvent::Type::kAttribute &&
        events.list[i].type != XmlEvent::Type::kText)
      continue;
    leaves++;
    for (bool values : {false, true})
      EXPECT_EQ(RunSkipping(&dict, events, "self::node()", values, i, i + 1)
                    .skipped,
                "");
  }
  EXPECT_EQ(leaves, 2);
}

}  // namespace
}  // namespace xpath
}  // namespace xdb
