// Quickstart: open an engine, store XML documents, query them with XPath.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"
#include "xml/node_id.h"

using namespace xdb;

#define CHECK_OK(expr)                                        \
  do {                                                        \
    ::xdb::Status _st = (expr);                               \
    if (!_st.ok()) {                                          \
      std::fprintf(stderr, "FATAL at %s:%d: %s\n", __FILE__,  \
                   __LINE__, _st.ToString().c_str());         \
      std::exit(1);                                           \
    }                                                         \
  } while (0)

template <typename T>
T Unwrap(Result<T> res, const char* what) {
  if (!res.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return res.MoveValue();
}

int main() {
  // An in-memory engine; pass a directory (and drop in_memory) for a
  // persistent database with WAL recovery.
  EngineOptions options;
  options.in_memory = true;
  options.enable_wal = false;
  auto engine = Unwrap(Engine::Open(options), "open engine");

  // A collection is an XML column's internal table (Figure 2 of the paper)
  // and its NodeID index, which also lists the documents.
  Collection* notes = Unwrap(engine->CreateCollection("notes"),
                             "create collection");

  // Insert documents. Parsing produces the buffered token stream, which is
  // packed into tree records bottom-up — no intermediate DOM.
  uint64_t doc1 = Unwrap(
      notes->InsertDocument(
          nullptr,
          "<note priority=\"high\"><to>Ada</to><body>Ship it!</body></note>"),
      "insert");
  uint64_t doc2 = Unwrap(
      notes->InsertDocument(
          nullptr,
          "<note priority=\"low\"><to>Brin</to><body>Maybe later.</body>"
          "</note>"),
      "insert");
  std::printf("stored documents %llu and %llu\n",
              static_cast<unsigned long long>(doc1),
              static_cast<unsigned long long>(doc2));

  // Query with XPath. Without indexes this runs QuickXScan — one streaming
  // pass — over each stored document.
  QueryOptions q;
  q.want_values = true;
  q.explain = true;
  auto result = Unwrap(
      notes->Query(nullptr, "/note[@priority = \"high\"]/body", q), "query");
  std::printf("plan:\n%s", result.PlanText().c_str());
  for (const ResultNode& node : result.nodes) {
    std::printf("  doc %llu node %s value \"%s\"\n",
                static_cast<unsigned long long>(node.doc_id),
                nodeid::ToString(node.node_id).c_str(),
                node.string_value.c_str());
  }

  // Round-trip a whole document back to XML text.
  std::string text = Unwrap(notes->GetDocumentText(nullptr, doc2), "fetch");
  std::printf("document %llu: %s\n", static_cast<unsigned long long>(doc2),
              text.c_str());

  // Update a single text node in place (subdocument update: the paper's
  // reason XML columns are not LOBs).
  auto body = Unwrap(notes->Query(nullptr, "/note/body/text()", {}),
                     "find text node");
  for (const ResultNode& n : body.nodes) {
    if (n.doc_id == doc2) {
      CHECK_OK(notes->UpdateTextNode(nullptr, doc2, n.node_id,
                                     "Actually, now."));
    }
  }
  std::printf("after update: %s\n",
              Unwrap(notes->GetDocumentText(nullptr, doc2), "fetch").c_str());

  CHECK_OK(notes->DeleteDocument(nullptr, doc1));
  std::printf("deleted doc %llu; %llu document(s) remain\n",
              static_cast<unsigned long long>(doc1),
              static_cast<unsigned long long>(
                  Unwrap(notes->DocCount(), "count")));
  return 0;
}
