#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "auction.h"
#include "common/random.h"
#include "engine/engine.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_shipper.h"
#include "schema/validator_vm.h"
#include "tracer.h"
#include "util/workload.h"
#include "xml/token_stream.h"

namespace xdb_bench {

namespace {

using xdb::Collection;
using xdb::Engine;
using xdb::QueryOptions;
using xdb::QueryResult;
using xdb::Result;
using xdb::Status;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Per-client bookkeeping.

enum OpClass : int { kQuery = 0, kFetch, kInsert, kUpdate, kDelete, kClasses };
const char* const kClassNames[kClasses] = {"query", "fetch", "insert",
                                           "update", "delete"};

// Metric-name forms of the Table-2 access paths (AccessMethodName() uses
// '/', which metric names may not contain).
constexpr int kMethods = 6;
const char* const kMethodNames[kMethods] = {
    "full_scan", "docid_list", "nodeid_list",
    "docid_andor", "nodeid_andor", "structural_scan"};

struct ClientLog {
  std::vector<double> lat_us[kClasses];
  // Completion time into the window (s) of every successful op, for the
  // per-slice throughput.
  std::vector<double> done_at;
  // Latencies by op kind ("query.range", "update.text", ...).
  std::map<std::string, std::vector<double>> kind_us;
  std::vector<double> checkpoint_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;       // first failures, for the report
  std::vector<std::string> mismatches;   // wrong answers seen in the loop
  // Query work from QueryResult::stats.
  uint64_t queries = 0, results = 0, postings = 0, docs_evaluated = 0,
           records_fetched = 0, scan_events = 0;
  uint64_t methods[kMethods] = {};
  // QueryProfile rollups (traced runs only).
  uint64_t profiled = 0, chunks = 0;

  void Fail(const std::string& what, const Status& st) {
    failed++;
    if (errors.size() < 5) errors.push_back(what + ": " + st.ToString());
  }
  void Merge(const ClientLog& o) {
    for (int c = 0; c < kClasses; c++)
      lat_us[c].insert(lat_us[c].end(), o.lat_us[c].begin(), o.lat_us[c].end());
    done_at.insert(done_at.end(), o.done_at.begin(), o.done_at.end());
    for (const auto& [kind, v] : o.kind_us)
      kind_us[kind].insert(kind_us[kind].end(), v.begin(), v.end());
    checkpoint_ms.insert(checkpoint_ms.end(), o.checkpoint_ms.begin(),
                         o.checkpoint_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    mismatches.insert(mismatches.end(), o.mismatches.begin(),
                      o.mismatches.end());
    queries += o.queries;
    results += o.results;
    postings += o.postings;
    docs_evaluated += o.docs_evaluated;
    records_fetched += o.records_fetched;
    scan_events += o.scan_events;
    for (int m = 0; m < kMethods; m++) methods[m] += o.methods[m];
    profiled += o.profiled;
    chunks += o.chunks;
  }
};

// Everything one operation needs.
struct Ctx {
  Engine* engine;
  Tracer* tracer;
  ClientLog* log;
  xdb::Random* rng;
  int client;
  Clock::time_point window_start;
};

// Times one client operation of class `cls` and kind `kind` as an op span;
// failures count against the run.
template <typename F>
bool Timed(Ctx& c, OpClass cls, const std::string& kind, F&& fn) {
  const std::string span = "op." + kind;
  Tracer::Scope op(c.tracer, span);
  const auto t0 = Clock::now();
  Status st = fn();
  const auto t1 = Clock::now();
  const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  c.log->attempted++;
  if (!st.ok()) {
    c.log->Fail(span, st);
    return false;
  }
  c.log->lat_us[cls].push_back(us);
  c.log->kind_us[kind].push_back(us);
  c.log->done_at.push_back(std::chrono::duration<double>(t1 - c.window_start).count());
  return true;
}

// Runs one query. Traced runs turn explain on and attach the profile's
// phases (plan, probe, merge, eval, recheck) as consecutive child spans.
Result<QueryResult> RunQuery(Ctx& c, Collection* coll, const std::string& xpath,
                             QueryOptions opts = {}) {
  opts.explain = c.tracer->enabled();
  const uint64_t start = Tracer::NowNs();
  Result<QueryResult> res = coll->Query(nullptr, xpath, opts);
  if (!res.ok()) return res;
  const QueryResult& r = res.value();
  if (r.profile.enabled) {
    uint64_t at = start;
    for (const xdb::obs::QueryPhase& ph : r.profile.phases) {
      if (ph.name == "total") continue;
      const uint64_t end = at + ph.wall_us * 1000;
      c.tracer->AddChild("query." + ph.name, at, end);
      at = end;
    }
    c.log->profiled++;
    c.log->chunks += r.profile.chunks;
  }
  c.log->queries++;
  c.log->results += r.nodes.size();
  c.log->postings += r.stats.index_postings;
  c.log->docs_evaluated += r.stats.docs_evaluated;
  c.log->records_fetched += r.stats.records_fetched;
  c.log->scan_events += r.stats.scan_events;
  const int m = static_cast<int>(r.stats.method);
  if (m >= 0 && m < kMethods) c.log->methods[m]++;
  return res;
}

// Inserts one document. Untraced runs call InsertDocument; traced runs call
// the three public pieces InsertDocument is composed of, each in a span.
Result<uint64_t> InsertDoc(Ctx& c, Collection* coll, const std::string& xml) {
  if (!c.tracer->enabled()) return coll->InsertDocument(nullptr, xml);
  xdb::TokenWriter tokens;
  {
    Tracer::Scope s(c.tracer, "xml.parse");
    xdb::Parser parser = c.engine->MakeParser();
    XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
  }
  if (coll->meta().schema_name.empty()) {
    Tracer::Scope s(c.tracer, "engine.insert_tokens");
    return coll->InsertTokens(nullptr, tokens.data());
  }
  XDB_ASSIGN_OR_RETURN(const xdb::schema::CompiledSchema* cs,
                       c.engine->FindSchema(coll->meta().schema_name));
  xdb::TokenWriter validated;
  {
    Tracer::Scope s(c.tracer, "schema.validate");
    xdb::schema::ValidatorVm vm(cs, c.engine->dict());
    XDB_RETURN_NOT_OK(vm.Validate(tokens.data(), &validated));
  }
  Tracer::Scope s(c.tracer, "engine.insert_tokens");
  return coll->InsertTokens(nullptr, validated.data());
}

// Node ids of the results that belong to the lowest doc id: the template
// ids of one document shape (the engine numbers nodes by document position,
// so every document generated with the same shape has the same ids there).
std::vector<std::string> FirstDocIds(const QueryResult& r) {
  std::vector<std::string> ids;
  if (r.nodes.empty()) return ids;
  uint64_t first = r.nodes[0].doc_id;
  for (const auto& n : r.nodes) first = std::min(first, n.doc_id);
  for (const auto& n : r.nodes)
    if (n.doc_id == first) ids.push_back(n.node_id);
  return ids;
}

// A shuffled deck of op kinds in exact proportions: each pass through the
// deck runs every kind its listed number of times, so the mix does not drift
// with the seed; the seed picks only the order and the constants.
class Deck {
 public:
  explicit Deck(const std::vector<std::pair<int, int>>& counts) {
    for (const auto& [kind, n] : counts)
      for (int i = 0; i < n; i++) cards_.push_back(kind);
    next_ = cards_.size();
  }
  int Draw(xdb::Random* rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; i--)
        std::swap(cards_[i - 1], cards_[rng->Uniform(i)]);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  size_t next_ = 0;
};

struct Probe {
  std::string collection;
  std::string xpath;
};

struct LoadInfo {
  uint64_t docs = 0;
  uint64_t xml_bytes = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const { return 1; }
  virtual int query_threads() const { return 1; }
  /// Checkpoint after every this many client operations (all clients).
  virtual uint64_t checkpoint_every() const = 0;
  virtual std::vector<std::string> collections() const = 0;
  /// Builds every input from the seed (not timed).
  virtual void Generate(uint64_t seed) = 0;
  /// Collections, index DDL and the initial corpus; resets the ledger.
  virtual Status Load(Ctx& c, LoadInfo* info) = 0;
  /// Learns node-id templates after the load (part of set-up).
  virtual Status Learn() = 0;
  /// One closed-loop client operation.
  virtual void Op(Ctx& c) = 0;
  /// Queries whose answers the checks compare.
  virtual std::vector<Probe> Probes() const = 0;
  /// Ledger checks after the window: doc counts, updated text reads back.
  virtual void CheckLedger(Engine* e, std::vector<std::string>* errors) = 0;
  /// Also compare parallel answers with serial ones.
  virtual bool compare_parallel() const { return false; }
};

void CheckCount(Engine* e, const std::string& name, uint64_t expect,
                std::vector<std::string>* errors) {
  auto coll = e->GetCollection(name);
  auto n = coll.ok() ? coll.value()->DocCount() : Result<uint64_t>(coll.status());
  if (!n.ok() || n.value() != expect) {
    errors->push_back(name + ": doc count " +
                      (n.ok() ? std::to_string(n.value()) : n.status().ToString()) +
                      " != ledger " + std::to_string(expect));
  }
}

// oltp_mixed: small catalog documents, three clients, the ROADMAP's mix.
class OltpMixed : public Workload {
 public:
  static constexpr int kClients = 3;
  static constexpr int kInitialDocs = 300;
  static constexpr int kPoolDocs = 128;

  int clients() const override { return kClients; }
  uint64_t checkpoint_every() const override { return 2000; }
  std::vector<std::string> collections() const override { return {"catalog"}; }

  void Generate(uint64_t seed) override {
    xdb::Random rng(seed);
    xdb::workload::CatalogOptions opts;  // 2 categories x 10 products
    initial_.clear();
    for (int i = 0; i < kInitialDocs; i++)
      initial_.push_back(xdb::workload::GenCatalogXml(&rng, opts));
    for (auto& pool : pool_) {
      pool.clear();
      for (int i = 0; i < kPoolDocs; i++)
        pool.push_back(xdb::workload::GenCatalogXml(&rng, opts));
    }
    // ProductName equality constants: names that exist in the corpus.
    names_.clear();
    for (size_t i = 0; i < initial_.size() && names_.size() < 16; i += 17) {
      const std::string& x = initial_[i];
      const size_t b = x.find("<ProductName>") + 13;
      names_.push_back(x.substr(b, x.find("</ProductName>", b) - b));
    }
  }

  Status Load(Ctx& c, LoadInfo* info) override {
    xdb::CollectionOptions copts;
    copts.buffer_pages = 512;
    XDB_ASSIGN_OR_RETURN(coll_, c.engine->CreateCollection("catalog", copts));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"regprice", "/Catalog/Categories/Product/RegPrice",
         xdb::ValueType::kDecimal, 128}));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"productname", "/Catalog/Categories/Product/ProductName",
         xdb::ValueType::kString, 64}));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"discount", "//Discount", xdb::ValueType::kDecimal, 128}));
    for (Part& p : parts_) p = Part{};
    for (int i = 0; i < kInitialDocs; i++) {
      Tracer::Scope s(c.tracer, "load.insert");
      XDB_ASSIGN_OR_RETURN(uint64_t id, InsertDoc(c, coll_, initial_[i]));
      parts_[i % kClients].docs.push_back(id);
      info->docs++;
      info->xml_bytes += initial_[i].size();
    }
    return Status::OK();
  }

  Status Learn() override {
    XDB_ASSIGN_OR_RETURN(QueryResult cats,
                         coll_->Query(nullptr, "/Catalog/Categories"));
    categories_ = FirstDocIds(cats);
    XDB_ASSIGN_OR_RETURN(
        QueryResult prices,
        coll_->Query(nullptr, "/Catalog/Categories/Product/RegPrice/text()"));
    prices_ = FirstDocIds(prices);
    if (categories_.size() != 2 || prices_.size() != 20)
      return Status::Corruption("unexpected catalog node-id templates");
    return Status::OK();
  }

  void Op(Ctx& c) override {
    Part& p = parts_[c.client];
    xdb::Random& rng = *c.rng;
    int kind = p.deck.Draw(&rng);
    if (kind == kPrune && p.products.empty()) kind = kGraft;
    if (kind == kDel && p.docs.size() <= kInitialDocs / kClients / 2) kind = kIns;
    const std::string base = "/Catalog/Categories/Product";
    std::string q;
    switch (kind) {
      case kRange:  // selective range, exact RegPrice index match
        q = base + "[RegPrice > " + std::to_string(480 + 4 * rng.Uniform(5)) + "]";
        break;
      case kNameEq:  // string equality
        q = base + "[ProductName = \"" + names_[rng.Uniform(names_.size())] + "\"]";
        break;
      case kAnd:  // ANDing RegPrice with Discount
        q = base + "[RegPrice > " + std::to_string(300 + 50 * rng.Uniform(3)) +
            " and Discount > 0.4" + std::to_string(rng.Uniform(2) * 5) + "]";
        break;
      case kContain:  // //Discount containment: filter + recheck
        q = base + "[Discount > 0.4" + std::to_string(6 + 2 * rng.Uniform(2)) + "]";
        break;
    }
    if (!q.empty()) {
      Timed(c, kQuery, kKindNames[kind],
            [&] { return RunQuery(c, coll_, q).status(); });
    } else if (kind == kGet) {
      const uint64_t doc = p.docs[rng.Uniform(p.docs.size())];
      Timed(c, kFetch, "fetch", [&]() -> Status {
        Tracer::Scope s(c.tracer, "engine.get_document_text");
        XDB_ASSIGN_OR_RETURN(std::string text,
                             coll_->GetDocumentText(nullptr, doc));
        if (text.rfind("<Catalog>", 0) != 0)
          c.log->mismatches.push_back("fetch of doc " + std::to_string(doc) +
                                      " returned no catalog");
        return Status::OK();
      });
    } else if (kind == kText || kind == kGraft || kind == kPrune) {
      Update(c, &p, kind);
    } else if (kind == kIns) {
      const std::string& xml = pool_[c.client][p.next_pool++ % kPoolDocs];
      uint64_t id = 0;
      if (Timed(c, kInsert, "insert", [&]() -> Status {
            XDB_ASSIGN_OR_RETURN(id, InsertDoc(c, coll_, xml));
            return Status::OK();
          })) {
        p.docs.push_back(id);
        p.inserted++;
      }
    } else {
      const size_t idx = rng.Uniform(p.docs.size());
      const uint64_t doc = p.docs[idx];
      if (Timed(c, kDelete, "delete", [&] {
            Tracer::Scope s(c.tracer, "engine.delete_doc");
            return coll_->DeleteDocument(nullptr, doc);
          })) {
        p.docs[idx] = p.docs.back();
        p.docs.pop_back();
        p.deleted++;
        Forget(&p, doc);
      }
    }
  }

  std::vector<Probe> Probes() const override {
    std::vector<Probe> out;
    const std::string base = "/Catalog/Categories/Product";
    for (int t : {480, 496}) out.push_back({"catalog", base + "[RegPrice > " + std::to_string(t) + "]"});
    for (size_t i = 0; i < 2 && i < names_.size(); i++)
      out.push_back({"catalog", base + "[ProductName = \"" + names_[i] + "\"]"});
    out.push_back({"catalog", base + "[RegPrice > 300 and Discount > 0.4]"});
    out.push_back({"catalog", base + "[RegPrice > 400 and Discount > 0.45]"});
    out.push_back({"catalog", base + "[Discount > 0.46]"});
    out.push_back({"catalog", base + "[Discount > 0.48]/ProductName"});
    return out;
  }

  void CheckLedger(Engine* e, std::vector<std::string>* errors) override {
    int64_t expect = kInitialDocs;
    for (const Part& p : parts_) expect += p.inserted - p.deleted;
    CheckCount(e, "catalog", static_cast<uint64_t>(expect), errors);
    // Every price a client wrote reads back from its node.
    for (const Part& p : parts_) {
      for (const auto& [key, value] : p.prices) {
        auto text = coll_->SerializeSubtree(nullptr, key.first,
                                            prices_[key.second]);
        if (!text.ok() || text.value() != value) {
          errors->push_back("updated price of doc " + std::to_string(key.first) +
                            " reads back as '" +
                            (text.ok() ? text.value() : text.status().ToString()) +
                            "', wrote '" + value + "'");
          return;
        }
      }
    }
  }

 private:
  enum Kind { kRange, kNameEq, kAnd, kContain, kGet, kText, kGraft, kPrune, kIns, kDel };
  static constexpr const char* kKindNames[] = {
      "query.range", "query.name_eq", "query.and", "query.containment", "fetch",
      "update.text", "update.insert_subtree", "update.delete_subtree", "insert",
      "delete"};

  struct Part {
    // 60% queries (4 shapes), 15% fetches, 15% updates (3 kinds), 5%
    // inserts, 5% deletes.
    Deck deck{{{kRange, 3}, {kNameEq, 3}, {kAnd, 3}, {kContain, 3}, {kGet, 3},
               {kText, 1}, {kGraft, 1}, {kPrune, 1}, {kIns, 1}, {kDel, 1}}};
    std::vector<uint64_t> docs;
    // (doc, node id) of <Product>s this client grafted with InsertSubtree.
    std::vector<std::pair<uint64_t, std::string>> products;
    // (doc, price slot) -> last value written.
    std::map<std::pair<uint64_t, size_t>, std::string> prices;
    uint64_t next_pool = 0;
    int64_t inserted = 0, deleted = 0;
  };

  void Update(Ctx& c, Part* p, int kind) {
    xdb::Random& rng = *c.rng;
    const uint64_t doc = p->docs[rng.Uniform(p->docs.size())];
    if (kind == kText) {
      const size_t slot = rng.Uniform(prices_.size());
      const std::string value = Money(&rng, 1, 500);
      if (Timed(c, kUpdate, kKindNames[kind], [&] {
            Tracer::Scope s(c.tracer, "engine.update_text");
            return coll_->UpdateTextNode(nullptr, doc, prices_[slot], value);
          }))
        p->prices[{doc, slot}] = value;
    } else if (kind == kGraft) {
      const std::string& parent = categories_[rng.Uniform(categories_.size())];
      const std::string frag = "<Product id=\"N" + std::to_string(rng.Uniform(100000)) +
                               "\"><ProductName>new-" + std::to_string(rng.Uniform(1000)) +
                               "</ProductName><RegPrice>" + Money(&rng, 1, 500) +
                               "</RegPrice></Product>";
      std::string id;
      if (Timed(c, kUpdate, kKindNames[kind], [&]() -> Status {
            Tracer::Scope s(c.tracer, "engine.insert_subtree");
            XDB_ASSIGN_OR_RETURN(id, coll_->InsertSubtree(nullptr, doc, parent,
                                                          xdb::Slice(), frag));
            return Status::OK();
          }))
        p->products.emplace_back(doc, id);
    } else {
      const auto [pdoc, id] = p->products.back();
      if (Timed(c, kUpdate, kKindNames[kind], [&] {
            Tracer::Scope s(c.tracer, "engine.delete_subtree");
            return coll_->DeleteSubtree(nullptr, pdoc, id);
          }))
        p->products.pop_back();
    }
  }

  static void Forget(Part* p, uint64_t doc) {
    std::erase_if(p->products, [&](const auto& e) { return e.first == doc; });
    std::erase_if(p->prices, [&](const auto& e) { return e.first.first == doc; });
  }

  std::vector<std::string> initial_;
  std::vector<std::string> pool_[kClients];
  std::vector<std::string> names_;
  Collection* coll_ = nullptr;
  std::vector<std::string> categories_;  // template ids of the 2 <Categories>
  std::vector<std::string> prices_;      // template ids of the 20 price texts
  Part parts_[kClients];
};

// scan_large: XMark-shaped documents at 8x+ the buffer pool, read-only.
class ScanLarge : public Workload {
 public:
  static constexpr int kDocs = 160;
  static constexpr size_t kBufferPages = 64;
  /// Small packing budget: each document spans many records.
  static constexpr size_t kRecordBudget = 1024;

  int query_threads() const override { return 4; }
  uint64_t checkpoint_every() const override { return 25; }
  std::vector<std::string> collections() const override { return {"auction"}; }
  bool compare_parallel() const override { return true; }

  void Generate(uint64_t seed) override {
    docs_.clear();
    for (int i = 0; i < kDocs; i++)
      docs_.push_back(GenAuctionXml(seed, static_cast<uint64_t>(i), AuctionOptions{}));
    // Price-range thresholds taken from the corpus, so a range returns the
    // same number of auctions for every seed: its cost follows the result
    // count (about one buffer miss each), which fixed thresholds would let
    // vary with the seed.
    std::vector<double> prices;
    for (const std::string& xml : docs_) {
      for (size_t at = xml.find("<price>"); at != std::string::npos;
           at = xml.find("<price>", at + 1))
        prices.push_back(std::strtod(xml.c_str() + at + 7, nullptr));
    }
    std::sort(prices.begin(), prices.end(), std::greater<>());
    for (size_t i = 0; i < kRangeResults.size(); i++) {
      const double t = prices[kRangeResults[i]];
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", t);
      thresholds_[i] = buf;
      // kRangeResults[i], less any auctions tied with the threshold.
      range_expect_[i] = static_cast<int64_t>(
          std::count_if(prices.begin(), prices.end(), [&](double p) { return p > t; }));
    }
  }

  Status Load(Ctx& c, LoadInfo* info) override {
    xdb::CollectionOptions copts;
    copts.buffer_pages = kBufferPages;
    copts.record_budget = kRecordBudget;
    XDB_ASSIGN_OR_RETURN(coll_, c.engine->CreateCollection("auction", copts));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"person_id", "/site/people/person/@id", xdb::ValueType::kString, 64}));
    XDB_RETURN_NOT_OK(coll_->CreateValueIndex(
        {"closed_price", "/site/closed_auctions/closed_auction/price",
         xdb::ValueType::kDecimal, 128}));
    XDB_RETURN_NOT_OK(coll_->CreateStructuralIndex({"structure", ""}));
    for (const std::string& xml : docs_) {
      Tracer::Scope s(c.tracer, "load.insert");
      XDB_RETURN_NOT_OK(InsertDoc(c, coll_, xml).status());
      info->docs++;
      info->xml_bytes += xml.size();
    }
    return Status::OK();
  }

  Status Learn() override { return Status::OK(); }

  void Op(Ctx& c) override {
    xdb::Random& rng = *c.rng;
    const int kind = deck_.Draw(&rng);
    std::string q;
    int64_t expect = -1;
    switch (kind) {
      case kPoint:  // point lookup through the @id value index
        q = "/site/people/person[@id=\"" +
            PersonId(rng.Uniform(kDocs), static_cast<uint32_t>(rng.Uniform(kAuctionPeople))) +
            "\"]";
        expect = 1;
        break;
      case kPrice: {  // price range
        const size_t i = rng.Uniform(kRangeResults.size());
        q = "/site/closed_auctions/closed_auction[price > " + thresholds_[i] + "]/date";
        expect = range_expect_[i];
        break;
      }
      case kItemMail:  // descendant steps: structural index
        q = "//item//mail";
        break;
      case kMailKeyword:
        q = "//mail//keyword";
        break;
      default:  // deep, unindexed: a full QuickXScan scan
        q = "/site/regions/" + std::string(rng.Uniform(2) == 0 ? "europe" : "asia") +
            "/item/description/parlist/listitem/parlist/listitem/text[keyword = \"" +
            AuctionWord(static_cast<int>(rng.Uniform(kAuctionWordCount))) + "\"]";
    }
    Timed(c, kQuery, kKindNames[kind], [&]() -> Status {
      XDB_ASSIGN_OR_RETURN(QueryResult res, RunQuery(c, coll_, q));
      if (expect >= 0 && res.nodes.size() != static_cast<size_t>(expect))
        c.log->mismatches.push_back(q + " returned " +
                                    std::to_string(res.nodes.size()) + " nodes");
      return Status::OK();
    });
  }

  std::vector<Probe> Probes() const override {
    return {
        {"auction", "/site/people/person[@id=\"" + PersonId(3, 2) + "\"]"},
        {"auction", "/site/closed_auctions/closed_auction[price > 990]/date"},
        {"auction", "/site/closed_auctions/closed_auction[price > 900]"},
        {"auction", "//item//mail"},
        {"auction", "//mail//keyword"},
        {"auction", "/site/regions/europe/item/description/parlist/listitem/"
                    "parlist/listitem/text[keyword = \"amber\"]"},
    };
  }

  void CheckLedger(Engine* e, std::vector<std::string>* errors) override {
    CheckCount(e, "auction", kDocs, errors);
    // The workload is defined by a corpus well beyond the buffer pool.
    if (coll_->storage_bytes() < 8 * kBufferPages * xdb::kDefaultPageSize)
      errors->push_back("scan_large corpus is smaller than 8x its buffer pool");
  }

 private:
  enum Kind { kPoint, kPrice, kItemMail, kMailKeyword, kDeep };
  static constexpr const char* kKindNames[] = {
      "query.point", "query.price_range", "query.item_mail",
      "query.mail_keyword", "query.deep_scan"};

  // 40% point lookups, 25% price ranges, 25% descendant, 10% deep scans.
  Deck deck_{{{kPoint, 8}, {kPrice, 5}, {kItemMail, 3}, {kMailKeyword, 2}, {kDeep, 2}}};
  // Closed auctions a price range returns, one threshold each.
  static constexpr std::array<size_t, 4> kRangeResults = {5, 10, 15, 20};
  std::array<std::string, 4> thresholds_;
  std::array<int64_t, 4> range_expect_{};
  std::vector<std::string> docs_;
  Collection* coll_ = nullptr;
};

// ingest: a validated catalog stream and an auction stream, steady size.
class Ingest : public Workload {
 public:
  static constexpr int kCatalogTarget = 150;
  static constexpr int kAuctionTarget = 30;
  static constexpr int kCatalogRing = 128;
  static constexpr int kAuctionRing = 48;

  uint64_t checkpoint_every() const override { return 250; }
  std::vector<std::string> collections() const override {
    return {"catalog", "auction"};
  }

  void Generate(uint64_t seed) override {
    xdb::Random rng(seed);
    xdb::workload::CatalogOptions opts;
    catalog_ring_.clear();
    for (int i = 0; i < kCatalogRing; i++)
      catalog_ring_.push_back(xdb::workload::GenCatalogXml(&rng, opts));
    auction_ring_.clear();
    for (int i = 0; i < kAuctionRing; i++)
      auction_ring_.push_back(GenAuctionXml(seed, static_cast<uint64_t>(i), AuctionOptions{}));
  }

  Status Load(Ctx& c, LoadInfo* info) override {
    Engine* e = c.engine;
    XDB_RETURN_NOT_OK(e->RegisterSchema("catalog", xdb::workload::CatalogSchemaText()));
    xdb::CollectionOptions copts;
    copts.schema = "catalog";
    XDB_ASSIGN_OR_RETURN(catalog_, e->CreateCollection("catalog", copts));
    XDB_RETURN_NOT_OK(catalog_->CreateValueIndex(
        {"regprice", "/Catalog/Categories/Product/RegPrice",
         xdb::ValueType::kDecimal, 128}));
    XDB_RETURN_NOT_OK(catalog_->CreateValueIndex(
        {"productname", "/Catalog/Categories/Product/ProductName",
         xdb::ValueType::kString, 64}));
    xdb::CollectionOptions aopts;
    aopts.record_budget = ScanLarge::kRecordBudget;
    XDB_ASSIGN_OR_RETURN(auction_, e->CreateCollection("auction", aopts));
    XDB_RETURN_NOT_OK(auction_->CreateValueIndex(
        {"closed_price", "/site/closed_auctions/closed_auction/price",
         xdb::ValueType::kDecimal, 128}));
    XDB_RETURN_NOT_OK(auction_->CreateStructuralIndex({"structure", ""}));
    live_catalog_.clear();
    live_auction_.clear();
    subtrees_.clear();
    next_catalog_ = next_auction_ = 0;
    pending_delete_ = nullptr;
    inserted_[0] = inserted_[1] = deleted_[0] = deleted_[1] = 0;
    for (int i = 0; i < kCatalogTarget + kAuctionTarget; i++) {
      const bool auction = i % 6 == 5 || i >= kCatalogTarget + kAuctionTarget - 5;
      Tracer::Scope s(c.tracer, "load.insert");
      const std::string& xml = Next(auction);
      XDB_ASSIGN_OR_RETURN(uint64_t id, InsertDoc(c, auction ? auction_ : catalog_, xml));
      (auction ? live_auction_ : live_catalog_).push_back(id);
      info->docs++;
      info->xml_bytes += xml.size();
    }
    loaded_[0] = live_catalog_.size();
    loaded_[1] = live_auction_.size();
    return Status::OK();
  }

  Status Learn() override {
    XDB_ASSIGN_OR_RETURN(
        QueryResult r,
        auction_->Query(nullptr, "/site/open_auctions/open_auction"));
    open_auctions_ = FirstDocIds(r);
    if (open_auctions_.empty())
      return Status::Corruption("no open_auction node-id template");
    return Status::OK();
  }

  void Op(Ctx& c) override {
    xdb::Random& rng = *c.rng;
    if (pending_delete_ != nullptr) {  // pair each insert with a delete
      const bool auction = pending_delete_ == auction_;
      std::deque<uint64_t>& live = auction ? live_auction_ : live_catalog_;
      const uint64_t doc = live.front();
      Collection* coll = pending_delete_;
      pending_delete_ = nullptr;
      if (Timed(c, kDelete, auction ? "delete.auction" : "delete.catalog", [&] {
            Tracer::Scope s(c.tracer, "engine.delete_doc");
            return coll->DeleteDocument(nullptr, doc);
          })) {
        live.pop_front();
        deleted_[auction]++;
        std::erase_if(subtrees_, [&](const Subtree& t) { return t.doc == doc; });
      }
      return;
    }
    const int kind = deck_.Draw(&rng);
    if (kind == kBidder) {  // append a <bidder> to an open_auction
      const uint64_t doc = live_auction_[rng.Uniform(live_auction_.size())];
      const std::string& parent = open_auctions_[rng.Uniform(open_auctions_.size())];
      const std::string frag = GenBidderXml(rng.Next(), rng.Uniform(1000));
      std::string id;
      if (Timed(c, kUpdate, "update.insert_subtree", [&]() -> Status {
            Tracer::Scope s(c.tracer, "engine.insert_subtree");
            XDB_ASSIGN_OR_RETURN(id, auction_->InsertSubtree(nullptr, doc, parent,
                                                             xdb::Slice(), frag));
            return Status::OK();
          })) {
        subtrees_.push_back({doc, id, frag});
        if (subtrees_.size() > 64) subtrees_.pop_front();
      }
      return;
    }
    const bool auction = kind == kAuction;
    Collection* coll = auction ? auction_ : catalog_;
    const std::string& xml = Next(auction);
    uint64_t id = 0;
    if (Timed(c, kInsert, auction ? "insert.auction" : "insert.catalog", [&]() -> Status {
          XDB_ASSIGN_OR_RETURN(id, InsertDoc(c, coll, xml));
          return Status::OK();
        })) {
      (auction ? live_auction_ : live_catalog_).push_back(id);
      inserted_[auction]++;
      pending_delete_ = coll;
    }
  }

  std::vector<Probe> Probes() const override {
    const std::string base = "/Catalog/Categories/Product";
    return {
        {"catalog", base + "[RegPrice > 490]"},
        {"catalog", base + "[RegPrice > 450]/ProductName"},
        {"auction", "/site/closed_auctions/closed_auction[price > 990]"},
        {"auction", "//open_auction/bidder/increase"},
        {"auction", "//item//mail"},
    };
  }

  void CheckLedger(Engine* e, std::vector<std::string>* errors) override {
    const char* names[2] = {"catalog", "auction"};
    for (int i = 0; i < 2; i++) {
      const uint64_t expect = loaded_[i] + inserted_[i] - deleted_[i];
      CheckCount(e, names[i], expect, errors);
    }
    // Grafted bidders read back as written.
    for (const Subtree& t : subtrees_) {
      auto text = auction_->SerializeSubtree(nullptr, t.doc, t.id);
      if (!text.ok() || text.value() != t.xml) {
        errors->push_back("inserted bidder in doc " + std::to_string(t.doc) +
                          " reads back as '" +
                          (text.ok() ? text.value() : text.status().ToString()) +
                          "'");
        return;
      }
    }
  }

 private:
  enum Kind { kCatalog, kAuction, kBidder };
  // Inserts 3:1 catalog to auction (each followed by the delete of its
  // collection's oldest document); one op in ten grafts a bidder.
  Deck deck_{{{kCatalog, 27}, {kAuction, 9}, {kBidder, 4}}};

  struct Subtree {
    uint64_t doc;
    std::string id;
    std::string xml;
  };

  const std::string& Next(bool auction) {
    return auction ? auction_ring_[next_auction_++ % kAuctionRing]
                   : catalog_ring_[next_catalog_++ % kCatalogRing];
  }

  std::vector<std::string> catalog_ring_, auction_ring_;
  uint64_t next_catalog_ = 0, next_auction_ = 0;
  Collection* catalog_ = nullptr;
  Collection* auction_ = nullptr;
  std::deque<uint64_t> live_catalog_, live_auction_;  // oldest first
  std::vector<std::string> open_auctions_;  // template ids
  std::deque<Subtree> subtrees_;
  Collection* pending_delete_ = nullptr;
  uint64_t loaded_[2] = {}, inserted_[2] = {}, deleted_[2] = {};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "oltp_mixed") return std::make_unique<OltpMixed>();
  if (name == "scan_large") return std::make_unique<ScanLarge>();
  if (name == "ingest") return std::make_unique<Ingest>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Running a workload: set-up, window, checks.

bool SameNodes(const QueryResult& a, const QueryResult& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (size_t i = 0; i < a.nodes.size(); i++) {
    if (a.nodes[i].doc_id != b.nodes[i].doc_id ||
        a.nodes[i].node_id != b.nodes[i].node_id)
      return false;
  }
  return true;
}

// Peak resident set of this process image, from VmHWM in /proc/self/status.
// (getrusage's ru_maxrss would start at the launching process's size: it
// carries over fork and exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
  }
  return 0;
}

// One primary engine with its WAL shipper, attached from Open on.
// Members are destroyed in reverse order: the shipper (which removes its WAL
// retain hook) before the transport, both before the engine.
struct Primary {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<xdb::repl::InProcessTransport> transport;
  std::unique_ptr<xdb::repl::WalShipper> shipper;
};

Status OpenPrimary(const std::string& dir, int query_threads, Primary* p) {
  xdb::EngineOptions opts;
  opts.dir = dir;
  opts.enable_wal = true;
  opts.sync_commits = false;
  opts.num_query_threads = query_threads;
  XDB_ASSIGN_OR_RETURN(p->engine, Engine::Open(opts));
  p->transport = std::make_unique<xdb::repl::InProcessTransport>();
  p->shipper = std::make_unique<xdb::repl::WalShipper>(p->engine.get(),
                                                       p->transport.get());
  return Status::OK();
}

// What one pass (set-up, window, and optionally checks) measured.
struct Pass {
  std::vector<double> setup_s;
  double window_s = 0;
  ClientLog log;
  CounterDelta load;      // around the initial load (last set-up)
  CounterDelta window;    // around the measured window
  LoadInfo load_info;
  uint64_t wal_load_bytes = 0;
  double replica_catchup_s = 0;
  double ship_bytes = 0, apply_bytes = 0;
  double bytes_per_user_byte = 0;
  double peak_rss_mb = 0;  // after the last set-up
  Tracer tracer{false, 0};
};

// Engine::Open to ready: index DDL, the load, node-id templates, a warm-up
// pass over the probe queries. Timed; the directory wipe before it and the
// checkpoint after it (which makes the load durable before the window) are
// not.
Status SetUp(Workload* wl, const std::string& dir, Tracer* tracer, Primary* p,
             Pass* pass) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto t0 = Clock::now();
  XDB_RETURN_NOT_OK(OpenPrimary(dir, wl->query_threads(), p));
  ClientLog scratch;
  xdb::Random rng(1);
  Ctx c{p->engine.get(), tracer, &scratch, &rng, 0, Clock::now()};
  pass->load.before = p->engine->MetricsSnapshot();
  const uint64_t wal0 = p->engine->wal()->size();
  pass->load_info = LoadInfo{};
  XDB_RETURN_NOT_OK(wl->Load(c, &pass->load_info));
  pass->wal_load_bytes = p->engine->wal()->size() - wal0;
  pass->load.after = p->engine->MetricsSnapshot();
  XDB_RETURN_NOT_OK(wl->Learn());
  // Warm-up: plans cached, hot pages resident, statistics settled.
  for (const Probe& pr : wl->Probes()) {
    XDB_ASSIGN_OR_RETURN(Collection * coll, p->engine->GetCollection(pr.collection));
    XDB_RETURN_NOT_OK(coll->Query(nullptr, pr.xpath).status());
  }
  pass->setup_s.push_back(SecondsSince(t0));
  // Memory of the loaded, warmed engine (with the inputs): taken here, not
  // after the window, where the benchmark's own latency samples would grow
  // it with the op count.
  pass->peak_rss_mb = PeakRssMb();
  return p->engine->Checkpoint();
}

void Window(Workload* wl, Engine* e, uint64_t seed, double seconds, bool traced,
            Pass* pass) {
  const int n = wl->clients();
  std::vector<ClientLog> logs(static_cast<size_t>(n));
  std::vector<Tracer> tracers;
  for (int i = 0; i < n; i++) tracers.emplace_back(traced, static_cast<uint32_t>(i + 1));
  std::atomic<uint64_t> ops{0};
  const uint64_t every = wl->checkpoint_every();
  pass->window.before = e->MetricsSnapshot();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  auto client = [&](int id) {
    xdb::Random rng(seed * 1000003ULL + static_cast<uint64_t>(id) * 7919ULL + 17);
    Ctx c{e, &tracers[static_cast<size_t>(id)], &logs[static_cast<size_t>(id)], &rng, id, t0};
    while (Clock::now() < deadline) {
      wl->Op(c);
      if ((ops.fetch_add(1) + 1) % every == 0) {
        Tracer::Scope s(c.tracer, "engine.checkpoint");
        const auto c0 = Clock::now();
        Status st = e->Checkpoint();
        if (!st.ok()) {
          c.log->Fail("checkpoint", st);
        } else {
          c.log->checkpoint_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - c0).count());
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < n; i++) threads.emplace_back(client, i);
  client(0);
  for (std::thread& t : threads) t.join();
  pass->window_s = SecondsSince(t0);
  pass->window.after = e->MetricsSnapshot();
  for (int i = 0; i < n; i++) {
    pass->log.Merge(logs[static_cast<size_t>(i)]);
    pass->tracer.Merge(tracers[static_cast<size_t>(i)]);
  }
}

// Checks after the window: ledger, auto plan vs full scan, parallel vs
// serial, then replica catch-up and replica vs primary answers.
void CheckAndReplicate(Workload* wl, Primary* p, const std::string& dir,
                       Pass* pass, RunResult* result) {
  Engine* e = p->engine.get();
  std::vector<std::string>& errors = result->errors;
  Status st = e->Checkpoint();
  if (!st.ok()) errors.push_back("final checkpoint: " + st.ToString());

  // Table-space bytes against the XML bytes of the live documents.
  double table_bytes = 0, xml_bytes = 0;
  for (const std::string& name : wl->collections()) {
    auto coll = e->GetCollection(name);
    if (!coll.ok()) {
      errors.push_back(name + ": " + coll.status().ToString());
      continue;
    }
    table_bytes += static_cast<double>(coll.value()->storage_bytes());
    auto ids = coll.value()->ListDocIds();
    if (!ids.ok()) {
      errors.push_back(name + ": " + ids.status().ToString());
      continue;
    }
    for (uint64_t id : ids.value()) {
      auto text = coll.value()->GetDocumentText(nullptr, id);
      if (!text.ok()) {
        errors.push_back(name + " doc " + std::to_string(id) + ": " +
                         text.status().ToString());
        break;
      }
      xml_bytes += static_cast<double>(text.value().size());
    }
  }
  pass->bytes_per_user_byte = xml_bytes > 0 ? table_bytes / xml_bytes : 0;

  wl->CheckLedger(e, &errors);

  std::vector<QueryResult> primary_answers;
  for (const Probe& pr : wl->Probes()) {
    Collection* coll = e->GetCollection(pr.collection).value();
    QueryOptions scan;
    scan.force = xdb::ForceMethod::kScan;
    auto a = coll->Query(nullptr, pr.xpath);
    auto b = coll->Query(nullptr, pr.xpath, scan);
    if (!a.ok() || !b.ok()) {
      errors.push_back(pr.xpath + ": " + (a.ok() ? b.status() : a.status()).ToString());
      primary_answers.emplace_back();
      continue;
    }
    if (!SameNodes(a.value(), b.value()))
      errors.push_back(pr.xpath + ": planned answer (" +
                       std::to_string(a.value().nodes.size()) +
                       " nodes) != full-scan answer (" +
                       std::to_string(b.value().nodes.size()) + ")");
    if (wl->compare_parallel()) {
      QueryOptions serial;
      serial.parallelism = 1;
      QueryOptions parallel;
      parallel.parallelism = wl->query_threads();
      auto s1 = coll->Query(nullptr, pr.xpath, serial);
      auto pn = coll->Query(nullptr, pr.xpath, parallel);
      if (!s1.ok() || !pn.ok() || !SameNodes(s1.value(), pn.value()))
        errors.push_back(pr.xpath + ": parallel answer != serial answer");
    }
    primary_answers.push_back(std::move(a).MoveValue());
  }

  // Replica catch-up: ship the whole stream, then apply it into a fresh
  // replica (the transport has held every segment since Open).
  const double ship0 = static_cast<double>(e->MetricsSnapshot().Value("repl.ship.bytes"));
  const auto s0 = Clock::now();
  for (;;) {
    Tracer::Scope s(&pass->tracer, "repl.ship_once");
    auto more = p->shipper->ShipOnce();
    if (!more.ok()) {
      errors.push_back("ship: " + more.status().ToString());
      return;
    }
    if (!more.value()) break;
  }
  const double ship_s = SecondsSince(s0);
  pass->ship_bytes = static_cast<double>(e->MetricsSnapshot().Value("repl.ship.bytes")) - ship0;
  {
    const std::string rdir = dir + "/replica";
    std::filesystem::remove_all(rdir);
    std::filesystem::create_directories(rdir);
    xdb::EngineOptions ro;
    ro.dir = rdir;
    ro.replica = true;
    auto rep = Engine::Open(ro);
    if (!rep.ok()) {
      errors.push_back("replica open: " + rep.status().ToString());
      return;
    }
    std::unique_ptr<Engine> replica = std::move(rep).MoveValue();
    auto attached = xdb::repl::ReplicaApplier::Attach(replica.get(), p->transport.get());
    if (!attached.ok()) {
      errors.push_back("replica attach: " + attached.status().ToString());
      return;
    }
    std::unique_ptr<xdb::repl::ReplicaApplier> applier = std::move(attached).MoveValue();
    const auto a0 = Clock::now();
    for (;;) {
      Tracer::Scope s(&pass->tracer, "repl.apply_once");
      auto more = applier->ApplyOnce();
      if (!more.ok()) {
        errors.push_back("apply: " + more.status().ToString());
        return;
      }
      if (!more.value()) break;
    }
    pass->replica_catchup_s = ship_s + SecondsSince(a0);
    pass->apply_bytes = static_cast<double>(replica->MetricsSnapshot().Value("repl.apply.bytes"));
    // The replica holds what the primary holds.
    for (const std::string& name : wl->collections()) {
      auto pc = e->GetCollection(name);
      auto rc = replica->GetCollection(name);
      if (!pc.ok() || !rc.ok()) {
        errors.push_back("replica lacks collection " + name);
        continue;
      }
      auto pn = pc.value()->DocCount();
      auto rn = rc.value()->DocCount();
      if (!pn.ok() || !rn.ok() || pn.value() != rn.value())
        errors.push_back("replica doc count of " + name + " differs from the primary's");
    }
    const std::vector<Probe> probes = wl->Probes();
    for (size_t i = 0; i < probes.size() && i < primary_answers.size(); i++) {
      auto rc = replica->GetCollection(probes[i].collection);
      if (!rc.ok()) continue;
      auto ra = rc.value()->Query(nullptr, probes[i].xpath);
      if (!ra.ok() || !SameNodes(ra.value(), primary_answers[i]))
        errors.push_back("replica answer differs: " + probes[i].xpath);
    }
    applier.reset();
    replica.reset();
    std::filesystem::remove_all(rdir);
  }
}

// Set-up repeats of an untraced pass: one warm-up, then at least kMinSetups
// measured ones, and more until kSetupBudgetS of measured set-up time has
// accumulated (at most kMaxSetups), so a short set-up is averaged over many
// samples.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 30;
constexpr double kSetupBudgetS = 3.0;

// One pass: the set-ups (all but the last torn down; a single one when
// `repeat_setup` is off), the window, and when `check` is set the checks
// and replica catch-up.
bool RunPass(Workload* wl, const RunConfig& cfg, const std::string& dir,
             bool repeat_setup, bool traced, bool check, Pass* pass,
             RunResult* result) {
  pass->tracer = Tracer(traced, 0);
  std::unique_ptr<Primary> primary;
  double measured_s = 0;
  for (int i = 0;; i++) {
    primary.reset();  // closes the previous set-up's engine, untimed
    primary = std::make_unique<Primary>();
    Status st = SetUp(wl, dir + "/primary", &pass->tracer, primary.get(), pass);
    if (!st.ok()) {
      result->errors.push_back("set-up: " + st.ToString());
      return false;
    }
    if (!repeat_setup) break;
    if (i > 0) measured_s += pass->setup_s.back();
    if (i >= kMaxSetups || (i >= kMinSetups && measured_s >= kSetupBudgetS)) break;
  }
  Window(wl, primary->engine.get(), cfg.seed, cfg.seconds, traced, pass);
  if (check) CheckAndReplicate(wl, primary.get(), dir, pass, result);
  return true;
}

// Throughput is a trimmed mean over kSlices equal time slices of the window,
// so a burst of interference from outside the process moves one slice, not
// the result.
constexpr int kSlices = 10;

// Mean of the middle 60% of `v`: the lowest and highest fifth are dropped,
// so outliers do not move it, and unlike a median it moves smoothly when `v`
// mixes two groups of values (0 when empty).
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t trim = v.size() / 5;
  double sum = 0;
  for (size_t i = trim; i < v.size() - trim; i++) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

void AddLatencyMetrics(const ClientLog& log, double seconds, MetricTable* m) {
  std::vector<double> all;
  for (int c = 0; c < kClasses; c++) {
    std::vector<double> v = log.lat_us[c];
    if (v.empty()) continue;
    all.insert(all.end(), v.begin(), v.end());
    m->Set(std::string(kClassNames[c]) + "_p50_us", Quantile(&v, 0.5), "us");
    if (PercentileSupported(v.size(), 0.99))
      m->Set(std::string(kClassNames[c]) + "_p99_us", Quantile(&v, 0.99), "us");
  }
  // The typical op: geometric mean over op kinds of each kind's trimmed
  // mean. A percentile over the whole mix can sit on the step between two
  // kinds' latencies and jump with the mix; so can one kind's median, when
  // the constants it draws cost differently (scan_large's price ranges).
  double log_sum = 0;
  int kinds = 0;
  for (const auto& [kind, v] : log.kind_us) {
    log_sum += std::log(std::max(TrimmedMean(v), 1e-3));
    kinds++;
  }
  m->Set("typical_op_us", kinds > 0 ? std::exp(log_sum / kinds) : 0.0, "us");
  m->Set("latency_p90_us", Quantile(&all, 0.9), "us");
  std::vector<double> ops_s(kSlices, 0.0);
  for (double at : log.done_at) {
    const int i = static_cast<int>(at / seconds * kSlices);
    ops_s[static_cast<size_t>(std::clamp(i, 0, kSlices - 1))] += kSlices / seconds;
  }
  m->Set("throughput_ops_s", TrimmedMean(ops_s), "1/s");
}

void AddLayerMetrics(const Pass& pass, double untraced_ops_s, MetricTable* m) {
  const auto spans = SummarizeSpans(pass.tracer.spans());
  auto mean = [&](const char* name, bool self) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return (self ? it->second.self_us : it->second.total_us) /
           static_cast<double>(it->second.count);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const ClientLog& log = pass.log;
  const double ops = static_cast<double>(log.attempted);
  const double queries = static_cast<double>(log.queries);
  const CounterDelta& w = pass.window;
  const CounterDelta& l = pass.load;
  const double docs = static_cast<double>(pass.load_info.docs);

  // Write path.
  m->Set("xml.parse_us", mean("xml.parse", false), "us");
  m->Set("schema.validate_us", mean("schema.validate", false), "us");
  m->Set("engine.insert_tokens_us", mean("engine.insert_tokens", true), "us");
  m->Set("record.inserts_per_doc", ratio(l.Value("record.inserts"), docs), "count");
  m->Set("index.structural.entries_per_doc",
         ratio(l.Value("index.structural.entries_added"), docs), "count");
  m->Set("wal.bytes_per_user_byte",
         ratio(static_cast<double>(pass.wal_load_bytes),
               static_cast<double>(pass.load_info.xml_bytes)),
         "ratio");
  const double checkpoints = static_cast<double>(log.checkpoint_ms.size());
  m->Set("engine.checkpoint_ms", mean("engine.checkpoint", false) / 1000.0, "ms");
  m->Set("buffer.writebacks_per_checkpoint",
         ratio(w.Value("buffer.writebacks"), checkpoints), "count");
  m->Set("engine.update_text_us", mean("engine.update_text", true), "us");
  m->Set("engine.insert_subtree_us", mean("engine.insert_subtree", true), "us");
  m->Set("engine.delete_subtree_us", mean("engine.delete_subtree", true), "us");
  m->Set("engine.delete_doc_us", mean("engine.delete_doc", true), "us");

  // Read path.
  const double hits = w.Value("query.plan_cache.hits");
  m->Set("query.plan_cache.hit_ratio",
         ratio(hits, hits + w.Value("query.plan_cache.misses")), "frac");
  const double profiled = static_cast<double>(log.profiled);
  for (const char* phase : {"plan", "probe", "merge", "recheck", "eval"}) {
    auto it = spans.find(std::string("query.") + phase);
    const double total = it == spans.end() ? 0.0 : it->second.total_us;
    m->Set(std::string("query.") + phase + "_us", ratio(total, profiled), "us");
  }
  const double results = static_cast<double>(log.results);
  m->Set("query.postings_per_result", ratio(static_cast<double>(log.postings), results), "count");
  m->Set("query.docs_evaluated_per_result",
         ratio(static_cast<double>(log.docs_evaluated), results), "count");
  m->Set("query.records_fetched_per_result",
         ratio(static_cast<double>(log.records_fetched), results), "count");
  m->Set("xpath.scan_events_per_query", ratio(static_cast<double>(log.scan_events), queries),
         "count");
  for (int i = 0; i < kMethods; i++) {
    m->Set(std::string("query.method_share.") + kMethodNames[i],
           ratio(static_cast<double>(log.methods[i]), queries), "frac");
  }
  m->Set("query.parallel_share",
         ratio(w.Value("query.parallel_executions"), w.Value("query.executions")),
         "frac");
  m->Set("query.chunks_per_query", ratio(static_cast<double>(log.chunks), profiled),
         "count");

  // Storage and waits over the window, per client operation (on scan_large
  // every operation is a query).
  const double bh = w.Value("buffer.hits");
  const double bm = w.Value("buffer.misses");
  m->Set("buffer.hit_ratio", ratio(bh, bh + bm), "frac");
  m->Set("buffer.misses_per_op", ratio(bm, ops), "count");
  m->Set("buffer.evictions_per_op", ratio(w.Value("buffer.evictions"), ops), "count");
  m->Set("io.reads_per_op", ratio(w.Value("io.reads"), ops), "count");
  m->Set("wait.buffer_io_us_per_op", ratio(w.HistSum("wait.buffer_io.us"), ops), "us");
  m->Set("lock.waits_per_op", ratio(w.Value("lock.waits"), ops), "count");
  m->Set("lock.timeouts", w.Value("lock.timeouts"), "count");
  m->Set("lock.deadlocks", w.Value("lock.deadlocks"), "count");
  m->Set("wait.lock_wait_us_per_op", ratio(w.HistSum("wait.lock_wait.us"), ops), "us");
  m->Set("wait.latch_us_per_op", ratio(w.HistSum("wait.latch.us"), ops), "us");

  // Replication.
  auto it_ship = spans.find("repl.ship_once");
  auto it_apply = spans.find("repl.apply_once");
  m->Set("repl.ship_us_per_mb",
         ratio(it_ship == spans.end() ? 0.0 : it_ship->second.total_us,
               pass.ship_bytes / 1e6),
         "us");
  m->Set("repl.apply_us_per_mb",
         ratio(it_apply == spans.end() ? 0.0 : it_apply->second.total_us,
               pass.apply_bytes / 1e6),
         "us");

  const double traced_ops_s = ratio(ops, pass.window_s);
  m->Set("trace.overhead_frac", ratio(untraced_ops_s - traced_ops_s, untraced_ops_s),
         "frac");
}

}  // namespace

bool RunWorkload(const RunConfig& cfg, RunResult* result) {
  std::unique_ptr<Workload> wl = MakeWorkload(cfg.workload);
  if (wl == nullptr) {
    result->errors.push_back("unknown workload '" + cfg.workload + "'");
    return false;
  }
  wl->Generate(cfg.seed);
  std::filesystem::remove_all(cfg.work_dir);
  bool ok = true;
  MetricTable& m = result->metrics;
  if (!cfg.trace) {
    // The first set-up warms the machine up (CPU clocks, allocator, file
    // cache); setup_s summarizes the others, and the last one is measured.
    // Set-up times come in two modes a third apart, in episodes of several
    // set-ups (the host's, not the engine's), so a median flips between
    // them from run to run; a trimmed mean moves smoothly with their mix.
    Pass pass;
    ok = RunPass(wl.get(), cfg, cfg.work_dir, true, false, true, &pass, result);
    if (ok) {
      m.Set("setup_s", TrimmedMean({pass.setup_s.begin() + 1, pass.setup_s.end()}), "s");
      AddLatencyMetrics(pass.log, cfg.seconds, &m);
      m.Set("checkpoint_p50_ms", Median(pass.log.checkpoint_ms), "ms");
      m.Set("replica_catchup_s", pass.replica_catchup_s, "s");
      m.Set("bytes_per_user_byte", pass.bytes_per_user_byte, "ratio");
      m.Set("peak_rss_mb", pass.peak_rss_mb, "MB");
      m.Set("failed_ops_frac",
            pass.log.attempted > 0 ? static_cast<double>(pass.log.failed) /
                                         static_cast<double>(pass.log.attempted)
                                   : 0.0,
            "frac");
    }
    result->attempted = pass.log.attempted;
    result->failed = pass.log.failed;
    result->failures = pass.log.errors;
    result->errors.insert(result->errors.end(), pass.log.mismatches.begin(),
                          pass.log.mismatches.end());
  } else {
    // Untraced pass for the overhead baseline, then the traced pass.
    Pass plain;
    ok = RunPass(wl.get(), cfg, cfg.work_dir + "/untraced", false, false, false,
                 &plain, result);
    Pass traced;
    if (ok) {
      ok = RunPass(wl.get(), cfg, cfg.work_dir + "/traced", false, true, true,
                   &traced, result);
    }
    if (ok) {
      AddLayerMetrics(traced, static_cast<double>(plain.log.attempted) / plain.window_s, &m);
      if (!cfg.spans_out.empty()) {
        std::ofstream out(cfg.spans_out, std::ios::binary | std::ios::trunc);
        out << traced.tracer.ToTsv();
      }
    }
    result->attempted = plain.log.attempted + traced.log.attempted;
    result->failed = plain.log.failed + traced.log.failed;
    for (const Pass* p : {&plain, &traced}) {
      result->failures.insert(result->failures.end(), p->log.errors.begin(),
                              p->log.errors.end());
      result->errors.insert(result->errors.end(), p->log.mismatches.begin(),
                            p->log.mismatches.end());
    }
  }
  result->correct = ok && result->errors.empty();

  std::filesystem::remove_all(cfg.work_dir);
  return ok;
}

}  // namespace xdb_bench
