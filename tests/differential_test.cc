// Differential fuzz driver: N seeded (doc, query) pairs through every XPath
// engine and storage-backed plan, asserting identical node-ID result sets.
//
// Replaying a failure is one line — the binary has its own main() so it
// accepts:
//   ./differential_test --seed=123456        # re-run exactly that case
//   ./differential_test --iters=5000         # longer sweep
// (env vars XDB_DIFF_SEED / XDB_DIFF_ITERS work too, for ctest -E setups).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_shipper.h"
#include "testing/differential.h"
#include "testing/fault_injector.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xdb {
namespace testing {
namespace {

struct DiffFlags {
  uint64_t base_seed = 0xD1FFu;
  uint64_t iters = 1000;
  uint64_t replay_seed = 0;
  bool replay = false;
};

DiffFlags* flags() {
  static DiffFlags f;
  return &f;
}

// --- the sweep: the acceptance-criteria workhorse ---

TEST(DifferentialTest, SweepAgreesAcrossEngines) {
  if (flags()->replay) GTEST_SKIP() << "replaying --seed instead";
  DiffOptions opts;
  SweepResult res =
      RunSweep(flags()->base_seed, flags()->iters, opts, &std::cerr);
  EXPECT_TRUE(res.ok) << res.first_failure.Report();
  EXPECT_EQ(res.cases_run, flags()->iters);
  // The sweep only counts as coverage if every engine actually ran.
  EXPECT_EQ(res.quickxscan_runs, res.cases_run);
  EXPECT_GT(res.naive_stream_runs, 0u)
      << "no generated query fell in the naive evaluator's linear subset";
  // Five force modes (structural scan included) + cached re-run
  // of the auto plan, at both record budgets.
  EXPECT_EQ(res.plan_runs, res.cases_run * 6 * 2);
  // Some documents are edited and re-checked after the edit.
  EXPECT_GT(res.edited_runs, 0u);
}

// The same sweep in deep-document mode: every document gains a 20–60 level
// spine of recurring element names, so descendant axes cross dozens of
// levels and reflexively match spine elements. This is the regime the
// structural index's scan and anchor join are for — and where a wrong
// prefix-ancestry test or a maintenance slip on deep subtrees would
// diverge from the streaming engines.
TEST(DifferentialTest, DeepDocumentSweepAgreesAcrossEngines) {
  if (flags()->replay) GTEST_SKIP() << "replaying --seed instead";
  DiffOptions opts;
  opts.xml.spine_depth_min = 20;
  opts.xml.spine_depth_max = 60;
  opts.xml.element_names = 3;  // denser name reuse along the spine
  opts.xpath.descendant_prob = 0.7;
  const uint64_t iters = std::min<uint64_t>(flags()->iters, 300);
  SweepResult res = RunSweep(flags()->base_seed + 0xDEE9, iters, opts,
                             &std::cerr);
  EXPECT_TRUE(res.ok) << res.first_failure.Report();
  EXPECT_EQ(res.cases_run, iters);
  EXPECT_EQ(res.quickxscan_runs, res.cases_run);
  EXPECT_EQ(res.plan_runs, res.cases_run * 6 * 2);
}

TEST(DifferentialTest, SeedReplay) {
  if (!flags()->replay) GTEST_SKIP() << "no --seed given";
  DiffOptions opts;
  DiffOutcome out = RunCase(flags()->replay_seed, opts);
  std::cerr << "seed " << flags()->replay_seed << " doc:   " << out.doc
            << "\nseed " << flags()->replay_seed << " query: " << out.query
            << "\n";
  EXPECT_TRUE(out.ok) << out.Report();
}

// --- generator health: every seed must yield a valid corpus entry ---

TEST(DifferentialTest, GeneratorsProduceParseableCorpus) {
  for (uint64_t seed = 1; seed <= 500; seed++) {
    DiffOptions opts;
    DiffCase c = GenCase(seed, opts);
    NameDictionary dict;
    Parser parser(&dict);
    TokenWriter tokens;
    EXPECT_TRUE(parser.Parse(c.doc, &tokens).ok())
        << "seed " << seed << " doc: " << c.doc;
    EXPECT_TRUE(xpath::ParsePath(c.query).ok())
        << "seed " << seed << " query: " << c.query;
  }
}

TEST(DifferentialTest, CaseGenerationIsDeterministic) {
  DiffOptions opts;
  DiffCase a = GenCase(42, opts);
  DiffCase b = GenCase(42, opts);
  EXPECT_EQ(a.doc, b.doc);
  EXPECT_EQ(a.query, b.query);
  DiffCase c = GenCase(43, opts);
  EXPECT_TRUE(a.doc != c.doc || a.query != c.query);
}

// The duplicate-attribute guard: default options never emit an element with
// two same-named attributes (the parser would reject the document and the
// round trip would fail for an invalid-input reason, not an engine bug);
// switching the guard off must eventually produce exactly that rejection.
TEST(DifferentialTest, DuplicateAttributeGuard) {
  workload::RandomXmlOptions guarded;
  guarded.max_attrs_per_element = 4;
  workload::RandomXmlOptions unguarded = guarded;
  unguarded.allow_duplicate_attrs = true;

  int unguarded_rejects = 0;
  for (uint64_t seed = 1; seed <= 300; seed++) {
    NameDictionary dict;
    Parser parser(&dict);
    {
      Random rng(seed);
      TokenWriter tokens;
      EXPECT_TRUE(
          parser.Parse(workload::GenRandomXml(&rng, guarded), &tokens).ok())
          << "guarded generator emitted unparseable XML at seed " << seed;
    }
    {
      Random rng(seed);
      TokenWriter tokens;
      if (!parser.Parse(workload::GenRandomXml(&rng, unguarded), &tokens).ok())
        unguarded_rejects++;
    }
  }
  EXPECT_GT(unguarded_rejects, 0)
      << "allow_duplicate_attrs never produced a duplicate";
}

// --- the fixed corpus regression net: tricky shapes with known-good seeds ---

TEST(DifferentialTest, HandPickedAdversarialCases) {
  static const struct {
    const char* doc;
    const char* query;
  } kCases[] = {
      {"<a><a><a><a>1</a></a></a></a>", "//a//a"},
      {"<a><a><a><a>1</a></a></a></a>", "//a[a]/a"},
      {"<a v=\"1\"><b v=\"2\"><a v=\"3\"/></b></a>", "//a[@v > 1]"},
      {"<a><b>5</b><b>50</b></a>", "/a[b < 10]/b"},
      {"<a><b><c>1</c></b><b/></a>", "//b[not(c)]"},
      {"<e><e><e/></e></e>", "//e[e]//e"},
      {"<a>1<b>2</b>3</a>", "/a/text()"},
      {"<a><b v=\"7\"/></a>", "//@v"},
      {"<c><d>9</d></c>", "/c[d = 9 or d = 10]"},
      {"<a><a/><b><a/></b></a>", "/a//a"},
      // A quoted literal under < compares as a number: a string index,
      // ordered by bytes, must not serve it.
      {"<a v=\"60\">7</a>", "/a[@v < \"500\"]"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(CompareEngines(c.doc, c.query, true), "")
        << "doc=" << c.doc << " query=" << c.query;
  }
}

// --- value comparisons over every index type ---

// A comparison may only be served by an index whose key order answers it
// as XPath 1.0 does (relational operators and number literals compare as
// numbers), and its probe key must be the literal's own value. The single
// document sweep above never builds a decimal index and draws only
// integers, so it cannot see either rule broken; this sweep draws a value
// index of every comparable type, documents from a pool of integers,
// short fractions and numeric-looking strings, and literals from the same
// pool. Seeded from gtest's random seed (0 unless shuffling); a failure
// names the seed and the case (replay with --gtest_shuffle
// --gtest_random_seed=<seed>).
TEST(DifferentialTest, IndexedComparisonsAgreeWithScan) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  for (uint64_t i = 0; i < 500; i++) {
    const ComparisonCase c = GenComparisonCase((uint64_t{seed} << 32) | i);
    const std::string err = CheckComparisonCase(c);
    ASSERT_EQ(err, "") << "gtest random seed " << seed << ", case " << i
                       << ": " << c.ToString();
  }
}

// XPath 1.0 reads a number only by its Number grammar (section 4.4):
// "0x10", "inf", "1e300", "+5" and "1e3" are NaN, so no relational
// comparison holds for them, while ".5", "5.", "-0" and " 7 " are numbers.
// A string, double or decimal index on an element or an attribute must
// not change what any operator, with a number or a quoted literal, selects:
// every planner flavor equals the DOM reference. A literal past 2^53 probes
// by its shortest digits: 1e23, whose double is 99999999999999991611392,
// probes a decimal index as 1 and 23 zeros, the key a stored 1e23 has.
TEST(DifferentialTest, IndexedComparisonsReadNumbersByXPathGrammar) {
  const std::string e23 = "1" + std::string(23, '0');
  const std::string e25 = "1" + std::string(25, '0');
  const std::vector<std::string> values = {"0x10", "inf", "1e300", "+5",
                                           "1e3",  ".5",  "5.",    "-0",
                                           " 7 ",  "16",  "1000",  "0",
                                           e23,    e25};
  std::vector<std::string> docs;
  for (const std::string& v : values)
    docs.push_back("<r k=\"" + v + "\"><k>" + v + "</k></r>");
  const char* const ops[] = {"=", "!=", "<", "<=", ">", ">="};
  const std::string literals[] = {"5",        "0",       "\"-1\"",
                                  "1000",     "\"1e3\"", "\"0x10\"",
                                  "\" 7 \"",  "\".5\"",  e23,
                                  e25,        "\"" + e23 + "\""};
  for (ValueType type :
       {ValueType::kString, ValueType::kDouble, ValueType::kDecimal}) {
    for (const char* lhs : {"k", "@k"}) {
      for (const char* op : ops) {
        for (const std::string& literal : literals) {
          ComparisonCase c;
          c.docs = docs;
          c.index_type = type;
          c.index_path = std::string("/r/") + lhs;
          c.query = std::string("/r[") + lhs + " " + op + " " + literal + "]";
          const std::string err = CheckComparisonCase(c);
          EXPECT_EQ(err, "") << c.ToString();
        }
      }
    }
  }
}

// --- parallel execution determinism: the fan-out must be invisible ---

// True when `m` is the plan `force` asks for (kAuto accepts any), so a
// forced index plan that fell back to a full scan is not counted as that
// plan fanning out.
bool Serves(ForceMethod force, query::AccessMethod m) {
  switch (force) {
    case ForceMethod::kAuto:
      return true;
    case ForceMethod::kScan:
      return m == query::AccessMethod::kFullScan;
    case ForceMethod::kDocIdList:
      return m == query::AccessMethod::kDocIdList ||
             m == query::AccessMethod::kDocIdAndOr;
    case ForceMethod::kNodeIdList:
      return m == query::AccessMethod::kNodeIdList ||
             m == query::AccessMethod::kNodeIdAndOr;
    case ForceMethod::kStructural:
      return m == query::AccessMethod::kStructuralScan;
  }
  return false;
}

// The same query over the same multi-document collection, parallelism=1 vs
// parallelism=8, must produce byte-identical (doc_id, node_id, string_value)
// sequences and identical work counters. The executor evaluates contiguous
// candidate chunks — documents or anchors — on worker threads and merges
// them in chunk order before normalization, so any divergence here is an
// executor bug, not nondeterminism to tolerate.
TEST(DifferentialTest, ParallelExecutionMatchesSerial) {
  EngineOptions eopts;
  eopts.in_memory = true;
  eopts.enable_wal = false;
  eopts.num_query_threads = 8;
  auto engine = Engine::Open(eopts).MoveValue();
  Collection* coll = engine->CreateCollection("diff").value();
  // Every generated "@v" comparison can probe the value index, and every
  // name test can scan the structural index, so the forced index plans run
  // real DocID and anchor lists rather than their full-scan fallbacks.
  ASSERT_TRUE(coll->CreateValueIndex({"v", "//@v", ValueType::kDouble}).ok());
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());

  DiffOptions opts;
  constexpr uint64_t kDocs = 32;
  for (uint64_t seed = 1; seed <= kDocs; seed++) {
    DiffCase c = GenCase(flags()->base_seed + seed, opts);
    ASSERT_TRUE(coll->InsertDocument(nullptr, c.doc).ok())
        << "doc seed " << flags()->base_seed + seed;
  }

  // The generated queries share the generators' tag alphabet, so they hit a
  // varying subset of the 32 documents — small sets take the serial
  // fallback, large ones the parallel path; both must agree. Two fixed
  // queries come first: a probe and an ORing of two probes on the value
  // index, whose candidate lists are long enough to fan out for any seed.
  std::vector<std::string> queries = {"//*[@v >= 0]",
                                      "//b[@v > 100 or @v < 50]"};
  for (uint64_t qseed = 1; qseed <= 60; qseed++)
    queries.push_back(GenCase(flags()->base_seed + 1000 + qseed, opts).query);
  constexpr ForceMethod kForces[] = {
      ForceMethod::kAuto, ForceMethod::kScan, ForceMethod::kDocIdList,
      ForceMethod::kNodeIdList, ForceMethod::kStructural};
  size_t fanned_out[std::size(kForces)] = {};
  for (const std::string& query : queries) {
    for (size_t f = 0; f < std::size(kForces); f++) {
      QueryOptions serial;
      serial.force = kForces[f];
      serial.want_values = true;
      serial.explain = true;
      serial.parallelism = 1;
      QueryOptions par = serial;
      par.parallelism = 8;
      auto rs = coll->Query(nullptr, query, serial);
      auto rp = coll->Query(nullptr, query, par);
      ASSERT_EQ(rs.ok(), rp.ok())
          << "query " << query << " serial=" << rs.status().ToString()
          << " parallel=" << rp.status().ToString();
      if (!rs.ok()) continue;
      const NodeSequence& a = rs.value().nodes;
      const NodeSequence& b = rp.value().nodes;
      ASSERT_EQ(a.size(), b.size()) << "query " << query;
      for (size_t i = 0; i < a.size(); i++) {
        ASSERT_EQ(a[i].doc_id, b[i].doc_id)
            << "query " << query << " position " << i;
        ASSERT_EQ(a[i].node_id, b[i].node_id)
            << "query " << query << " position " << i;
        ASSERT_EQ(a[i].string_value, b[i].string_value)
            << "query " << query << " position " << i;
      }
      const QueryStats& ss = rs.value().stats;
      const QueryStats& ps = rp.value().stats;
      EXPECT_EQ(ss.method, ps.method) << "query " << query;
      EXPECT_TRUE(ss == ps) << "serial:\n"
                            << rs.value().PlanText() << "parallel:\n"
                            << rp.value().PlanText();
      if (rp.value().profile.chunks > 1 && Serves(kForces[f], ps.method))
        fanned_out[f]++;
    }
  }
  for (size_t f = 0; f < std::size(kForces); f++)
    EXPECT_GT(fanned_out[f], 0u)
        << "force " << static_cast<int>(kForces[f]) << " never fanned out";
}

// --- plan-cache transparency: cached plans must change nothing but time ---

// Two engines over identical documents, one with the compiled-plan cache
// disabled (capacity 0). Every generated query runs twice against both —
// the second run on the caching engine is served from the cache — and the
// (doc_id, node_id, string_value) sequences must stay byte-identical, with
// stats epochs moving underneath from interleaved inserts.
TEST(DifferentialTest, PlanCacheOnOffEnginesAgree) {
  EngineOptions cached_opts;
  cached_opts.in_memory = true;
  cached_opts.enable_wal = false;
  EngineOptions uncached_opts = cached_opts;
  uncached_opts.plan_cache_capacity = 0;
  auto cached_engine = Engine::Open(cached_opts).MoveValue();
  auto uncached_engine = Engine::Open(uncached_opts).MoveValue();
  Collection* cached = cached_engine->CreateCollection("diff").value();
  Collection* uncached = uncached_engine->CreateCollection("diff").value();

  DiffOptions opts;
  auto insert_both = [&](uint64_t seed) {
    DiffCase c = GenCase(flags()->base_seed + seed, opts);
    ASSERT_TRUE(cached->InsertDocument(nullptr, c.doc).ok()) << c.doc;
    ASSERT_TRUE(uncached->InsertDocument(nullptr, c.doc).ok()) << c.doc;
  };
  for (uint64_t seed = 1; seed <= 24; seed++) insert_both(seed);

  for (uint64_t qseed = 1; qseed <= 50; qseed++) {
    DiffCase c = GenCase(flags()->base_seed + 2000 + qseed, opts);
    // Perturb the stats mid-sweep so cached plans get invalidated by epoch
    // bumps, not only reused.
    if (qseed % 10 == 0) insert_both(100 + qseed);
    for (int pass = 0; pass < 2; pass++) {
      QueryOptions qo;
      qo.want_values = true;
      auto a = cached->Query(nullptr, c.query, qo);
      auto b = uncached->Query(nullptr, c.query, qo);
      ASSERT_EQ(a.ok(), b.ok())
          << "query " << c.query << " cached=" << a.status().ToString()
          << " uncached=" << b.status().ToString();
      if (!a.ok()) continue;
      const NodeSequence& an = a.value().nodes;
      const NodeSequence& bn = b.value().nodes;
      ASSERT_EQ(an.size(), bn.size()) << "query " << c.query;
      for (size_t i = 0; i < an.size(); i++) {
        ASSERT_EQ(an[i].doc_id, bn[i].doc_id) << c.query << " pos " << i;
        ASSERT_EQ(an[i].node_id, bn[i].node_id) << c.query << " pos " << i;
        ASSERT_EQ(an[i].string_value, bn[i].string_value)
            << c.query << " pos " << i;
      }
    }
  }
  // The caching engine must actually have cached something, and the
  // disabled engine must have cached nothing.
  EXPECT_GT(cached->plan_cache()->size(), 0u);
  EXPECT_EQ(uncached->plan_cache()->size(), 0u);
}

// --- primary/replica differential: replication must be invisible to reads ---

// A disk-backed primary ships a generated corpus to a replica through a
// transport with armed network faults (duplicate, reorder, drop, truncate).
// Once converged, every generated query must return byte-identical
// (doc_id, node_id, string_value) sequences on both sides — the replica is
// allowed to be stale or to refuse, never to answer differently.
TEST(DifferentialTest, PrimaryAndReplicaAgreeAfterFaultyShipping) {
  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("xdb_diff_repl_" + std::to_string(::getpid())))
          .string();
  const std::string pdir = stem + "_p", rdir = stem + "_r";
  for (const std::string& d : {pdir, rdir}) {
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
  }

  {
    EngineOptions popts;
    popts.dir = pdir;
    EngineOptions ropts;
    ropts.dir = rdir;
    ropts.replica = true;
    auto primary = Engine::Open(popts).MoveValue();
    auto replica = Engine::Open(ropts).MoveValue();
    repl::InProcessTransport transport;
    repl::ShipperOptions sopts;
    sopts.max_segment_bytes = 128;  // many deliveries → many fault chances
    repl::WalShipper shipper(primary.get(), &transport, sopts);
    auto applier =
        repl::ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
    Collection* pcoll = primary->CreateCollection("diff").value();

    ScopedFaultInjector fi;
    fi->Arm(FaultPoint::kShipTransport, 3, FaultKind::kNetworkError, 2);
    fi->Arm(FaultPoint::kShipTransport, 7, FaultKind::kNetworkError, 3);
    fi->Arm(FaultPoint::kShipTransport, 11, FaultKind::kNetworkError, 1);
    fi->Arm(FaultPoint::kShipTransport, 15, FaultKind::kNetworkError,
            4u + (40ull << 8));

    DiffOptions opts;
    constexpr uint64_t kDocs = 24;
    for (uint64_t seed = 1; seed <= kDocs; seed++) {
      DiffCase c = GenCase(flags()->base_seed + seed, opts);
      ASSERT_TRUE(pcoll->InsertDocument(nullptr, c.doc).ok()) << c.doc;
      // Interleave shipping with the insert stream so fault firings land on
      // mid-stream segments, not one final catch-up burst.
      if (seed % 4 == 0) {
        ASSERT_TRUE(shipper.ShipAll().ok());
        ASSERT_TRUE(applier->CatchUp().ok());
      }
    }
    for (int round = 0; round < 12; round++) {
      ASSERT_TRUE(shipper.ShipAll().ok());
      ASSERT_TRUE(applier->CatchUp().ok());
    }
    ASSERT_EQ(replica->applied_csn(), shipper.shipped_csn());

    Collection* rcoll = replica->GetCollection("diff").value();
    ASSERT_EQ(rcoll->DocCount().value(), kDocs);
    size_t nonempty = 0;
    for (uint64_t qseed = 1; qseed <= 40; qseed++) {
      DiffCase c = GenCase(flags()->base_seed + 3000 + qseed, opts);
      QueryOptions qo;
      qo.want_values = true;
      // A converged replica honors read-your-writes with no wait budget.
      QueryOptions rqo = qo;
      rqo.min_csn = shipper.shipped_csn();
      auto a = pcoll->Query(nullptr, c.query, qo);
      auto b = rcoll->Query(nullptr, c.query, rqo);
      ASSERT_EQ(a.ok(), b.ok())
          << "query " << c.query << " primary=" << a.status().ToString()
          << " replica=" << b.status().ToString();
      if (!a.ok()) continue;
      const NodeSequence& an = a.value().nodes;
      const NodeSequence& bn = b.value().nodes;
      ASSERT_EQ(an.size(), bn.size()) << "query " << c.query;
      nonempty += an.empty() ? 0 : 1;
      for (size_t i = 0; i < an.size(); i++) {
        ASSERT_EQ(an[i].doc_id, bn[i].doc_id) << c.query << " pos " << i;
        ASSERT_EQ(an[i].node_id, bn[i].node_id) << c.query << " pos " << i;
        ASSERT_EQ(an[i].string_value, bn[i].string_value)
            << c.query << " pos " << i;
      }
    }
    EXPECT_GT(nonempty, 0u) << "every generated query matched nothing; the "
                               "comparison proved nothing";
    // The fault sweep must have actually exercised a heal path.
    const auto snap = replica->MetricsSnapshot();
    EXPECT_GT(snap.Value("repl.apply.duplicates") +
                  snap.Value("repl.apply.gaps") +
                  snap.Value("repl.apply.corrupt_segments"),
              0u);
  }
  for (const std::string& d : {pdir, rdir}) std::filesystem::remove_all(d);
}

// --- minimizer machinery (driven by synthetic predicates) ---

bool ParsesAsXml(const std::string& xml) {
  NameDictionary dict;
  Parser parser(&dict);
  TokenWriter tokens;
  return parser.Parse(xml, &tokens).ok();
}

TEST(MinimizerTest, DocumentShrinksToRelevantCore) {
  std::string doc =
      "<a><b><c>1</c></b><d v=\"3\">xx</d><e><e><e>999</e></e></e></a>";
  auto still_fails = [](const std::string& d) {
    return ParsesAsXml(d) && d.find("<c>") != std::string::npos;
  };
  std::string min = MinimizeDocument(doc, still_fails);
  EXPECT_TRUE(still_fails(min));
  EXPECT_LT(min.size(), doc.size());
  EXPECT_EQ(min.find("<d"), std::string::npos);
  EXPECT_EQ(min.find("<e"), std::string::npos);
  EXPECT_EQ(min.find("999"), std::string::npos);
}

TEST(MinimizerTest, DocumentMinimizationKeepsFailurePredicateTrue) {
  // Predicate sensitive to an attribute: attribute spans must be removable
  // without breaking the enclosing tag.
  std::string doc = "<a v=\"1\" w=\"2\"><b w=\"9\">t</b></a>";
  auto still_fails = [](const std::string& d) {
    return ParsesAsXml(d) && d.find("w=\"9\"") != std::string::npos;
  };
  std::string min = MinimizeDocument(doc, still_fails);
  EXPECT_TRUE(still_fails(min));
  EXPECT_EQ(min.find("v=\"1\""), std::string::npos);
  EXPECT_EQ(min.find("w=\"2\""), std::string::npos);
}

TEST(MinimizerTest, QueryDropsPredicatesAndSteps) {
  std::string query = "/a/b[c and d]/e[@v = 3]";
  auto still_fails = [](const std::string& q) {
    auto p = xpath::ParsePath(q);
    return p.ok() && q.find('b') != std::string::npos;
  };
  std::string min = MinimizeQuery(query, still_fails);
  EXPECT_TRUE(still_fails(min));
  EXPECT_EQ(min.find('['), std::string::npos);  // predicates gone
  EXPECT_EQ(min.find('e'), std::string::npos);  // irrelevant steps gone
  EXPECT_EQ(min.find('a'), std::string::npos);
}

TEST(MinimizerTest, UnparseableQueryReturnedVerbatim) {
  std::string junk = "///[[";
  EXPECT_EQ(MinimizeQuery(junk, [](const std::string&) { return true; }),
            junk);
}

// A deliberately broken "engine" (string comparison against a doctored
// reference) exercises the full RunCase failure path: report + minimize.
TEST(MinimizerTest, EndToEndMinimizationViaCompareEngines) {
  // "//b[@v = 3]" over a doc where only one subtree matters.
  std::string doc = "<a><c>junk</c><b v=\"3\">hit</b><d><d/></d></a>";
  std::string query = "//b[@v = 3]";
  // Sanity: engines agree on this case (it is not a real divergence).
  EXPECT_EQ(CompareEngines(doc, query, true), "");
  // Minimize with "result is non-empty" as the synthetic failure predicate,
  // using the real evaluation pipeline underneath.
  auto still_fails = [&](const std::string& d) {
    if (!ParsesAsXml(d)) return false;
    return CompareEngines(d, query, false).empty() &&
           d.find("v=\"3\"") != std::string::npos;
  };
  std::string min = MinimizeDocument(doc, still_fails);
  EXPECT_EQ(min.find("junk"), std::string::npos);
  EXPECT_NE(min.find("v=\"3\""), std::string::npos);
}

}  // namespace
}  // namespace testing
}  // namespace xdb

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  auto* f = xdb::testing::flags();
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      f->replay_seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
      f->replay = true;
    } else if (arg.rfind("--iters=", 0) == 0) {
      f->iters = std::strtoull(arg.c_str() + 8, nullptr, 0);
    }
  }
  if (const char* e = std::getenv("XDB_DIFF_SEED")) {
    f->replay_seed = std::strtoull(e, nullptr, 0);
    f->replay = true;
  }
  if (const char* e = std::getenv("XDB_DIFF_ITERS")) {
    f->iters = std::strtoull(e, nullptr, 0);
  }
  if (const char* e = std::getenv("XDB_DIFF_BASE")) {
    f->base_seed = std::strtoull(e, nullptr, 0);
  }
  return RUN_ALL_TESTS();
}
