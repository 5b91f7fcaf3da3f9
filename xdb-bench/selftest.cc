// Self-test of the benchmark's own pieces: generator determinism, the
// percentile rule, self-time arithmetic. Exits 0 when every check passes.
// test_bench.py runs it, together with the checks of the printed metric
// names against BENCHMARK.json.
#include <cstdio>
#include <string>
#include <vector>

#include "auction.h"
#include "report.h"
#include "tracer.h"
#include "xml/name_dictionary.h"
#include "xml/parser.h"
#include "xml/token_stream.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    failures++;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestGeneratorDeterministic() {
  using namespace xdb_bench;
  AuctionOptions o;
  const std::string a = GenAuctionXml(42, 7, o);
  Expect(a == GenAuctionXml(42, 7, o), "same seed and ordinal give the same bytes");
  Expect(a != GenAuctionXml(43, 7, o), "another seed gives other bytes");
  Expect(a != GenAuctionXml(42, 8, o), "another ordinal gives other bytes");
  // Document k does not depend on what was generated before it.
  (void)GenAuctionXml(42, 1, o);
  Expect(a == GenAuctionXml(42, 7, o), "generation is stateless");
  AuctionOptions big = o;
  big.scale = 3;
  Expect(GenAuctionXml(42, 7, big).size() > 2 * a.size(), "scale grows documents");
  Expect(GenBidderXml(5, 9) == GenBidderXml(5, 9), "bidder fragment is deterministic");

  // Well-formed, with the shapes the queries name.
  xdb::NameDictionary dict;
  xdb::Parser parser(&dict);
  xdb::TokenWriter tokens;
  Expect(parser.Parse(a, &tokens).ok(), "auction document parses");
  for (const char* part :
       {"<site><regions><africa><item id=\"i7.0\">", "<parlist><listitem><parlist>",
        "<keyword>", "<person id=\"p7.0\">", "<open_auction id=\"a7.0\">",
        "<bidder>", "<closed_auction>", "<price>", "<mailbox><mail>"}) {
    Expect(a.find(part) != std::string::npos, std::string("document has ") + part);
  }
  Expect(PersonId(7, 0) == "p7.0", "PersonId matches the generator");
}

void TestPercentileRule() {
  using xdb_bench::PercentileSupported;
  using xdb_bench::Quantile;
  Expect(!PercentileSupported(999, 0.99), "999 samples do not support a p99");
  Expect(PercentileSupported(1000, 0.99), "1000 samples support a p99");
  Expect(!PercentileSupported(99, 0.9), "99 samples do not support a p90");
  Expect(PercentileSupported(100, 0.9), "100 samples support a p90");
  Expect(PercentileSupported(20, 0.5), "20 samples support a median");
  Expect(!PercentileSupported(19, 0.5), "19 samples do not support a median");
  std::vector<double> v;
  for (int i = 100; i >= 1; i--) v.push_back(i);
  Expect(Quantile(&v, 0.5) == 50, "nearest-rank median of 1..100 is 50");
  Expect(Quantile(&v, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(Quantile(&v, 1.0) == 100, "p100 is the maximum");
  std::vector<double> empty;
  Expect(Quantile(&empty, 0.5) == 0, "quantile of nothing is 0");
}

void TestSelfTime() {
  using xdb_bench::Span;
  // op [0,100]: children [10,30] and [20,50] overlap, [90,120] sticks out.
  // The grandchild [15,20] is inside [10,30] and only reduces that child.
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},     {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 90, 120, 0, 1},      {"a.x", 15, 20, 1, 1},
  };
  const std::vector<uint64_t> self = xdb_bench::SelfTimesNs(spans);
  Expect(self[0] == 50, "op self = 100 - |[10,50] u [90,100]| = 50");
  Expect(self[1] == 15, "a self = 20 - 5 = 15");
  Expect(self[2] == 30, "b self = 30 (no children)");
  Expect(self[4] == 5, "leaf self = its duration");
  const auto stats = xdb_bench::SummarizeSpans(spans);
  Expect(stats.at("op").count == 1 && stats.at("op").self_us == 0.05,
         "summary carries self time in us");

  // The live tracer nests spans and shares op ids within an operation.
  xdb_bench::Tracer t(true, 3);
  {
    xdb_bench::Tracer::Scope op(&t, "op");
    { xdb_bench::Tracer::Scope child(&t, "child"); }
    t.AddChild("phase", xdb_bench::Tracer::NowNs(), xdb_bench::Tracer::NowNs());
  }
  { xdb_bench::Tracer::Scope op2(&t, "op"); }
  Expect(t.spans().size() == 4, "four spans recorded");
  Expect(t.spans()[1].parent == 0 && t.spans()[2].parent == 0, "children point at the op");
  Expect(t.spans()[1].op_id == t.spans()[0].op_id, "children share the op id");
  Expect(t.spans()[3].op_id != t.spans()[0].op_id, "next op gets a new id");
  Expect((t.spans()[0].op_id >> 48) == 3, "op id carries the thread tag");
  const std::vector<uint64_t> live = xdb_bench::SelfTimesNs(t.spans());
  Expect(live[0] <= t.spans()[0].end_ns - t.spans()[0].start_ns,
         "self time never exceeds duration");
  xdb_bench::Tracer off(false, 1);
  { xdb_bench::Tracer::Scope s(&off, "op"); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  TestGeneratorDeterministic();
  TestPercentileRule();
  TestSelfTime();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
