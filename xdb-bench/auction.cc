#include "auction.h"

#include <cstdio>

namespace xdb_bench {

namespace {

// Element counts of one document at scale 1.
constexpr uint32_t kItemsPerRegion = 3;
constexpr uint32_t kOpenAuctions = 4;
constexpr uint32_t kClosedAuctions = 6;
// Nesting depth of description/parlist/listitem/parlist/..., listitems per
// parlist level, bidders per open_auction, mails per item mailbox.
constexpr uint32_t kParlistDepth = 3;
constexpr uint32_t kListitems = 2;
constexpr uint32_t kBidders = 3;
constexpr uint32_t kMails = 1;

const char* const kWords[kAuctionWordCount] = {
    "amber",  "basalt", "cobalt", "dune",   "ember", "fjord",
    "garnet", "harbor", "indigo", "jasper", "kelp",  "lagoon",
    "marble", "nectar", "onyx",   "prism"};
const char* const kRegions[] = {"africa", "asia", "europe", "namerica"};
const char* const kPayments[] = {"Cash", "Creditcard", "Money order",
                                 "Personal check"};

// One seed per document, so document k's bytes do not depend on how many
// documents were generated before it.
uint64_t DocSeed(uint64_t seed, uint64_t ordinal) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + ordinal + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Date(xdb::Random* rng) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d/%02d/%04d",
                static_cast<int>(rng->Range(1, 12)),
                static_cast<int>(rng->Range(1, 28)),
                static_cast<int>(rng->Range(1998, 2001)));
  return buf;
}

void Words(xdb::Random* rng, int n, std::string* out) {
  for (int i = 0; i < n; i++) {
    if (i > 0) out->push_back(' ');
    out->append(kWords[rng->Uniform(kAuctionWordCount)]);
  }
}

// <text> with mixed content: words around one <keyword> (and sometimes an
// <emph>), as XMark's description text.
void Text(xdb::Random* rng, std::string* out) {
  out->append("<text>");
  Words(rng, 6, out);
  out->append(" <keyword>");
  Words(rng, 1, out);
  out->append("</keyword> ");
  Words(rng, 4, out);
  if (rng->OneIn(2)) {
    out->append(" <emph>");
    Words(rng, 2, out);
    out->append("</emph>");
  }
  out->append("</text>");
}

void Parlist(xdb::Random* rng, uint32_t depth, std::string* out) {
  out->append("<parlist>");
  for (uint32_t i = 0; i < kListitems; i++) {
    out->append("<listitem>");
    // The first listitem of each level recurses until the depth runs out,
    // the rest carry text: every level has both shapes.
    if (i == 0 && depth > 1) {
      Parlist(rng, depth - 1, out);
    } else {
      Text(rng, out);
    }
    out->append("</listitem>");
  }
  out->append("</parlist>");
}

void Item(xdb::Random* rng, uint64_t ordinal, uint32_t n, std::string* out) {
  out->append("<item id=\"i" + std::to_string(ordinal) + "." +
              std::to_string(n) + "\">");
  out->append("<location>");
  Words(rng, 1, out);
  out->append("</location><quantity>" + std::to_string(rng->Range(1, 5)) +
              "</quantity><name>");
  Words(rng, 2, out);
  out->append("</name><payment>");
  out->append(kPayments[rng->Uniform(4)]);
  out->append("</payment><description>");
  Parlist(rng, kParlistDepth, out);
  out->append("</description><shipping>");
  Words(rng, 3, out);
  out->append("</shipping><mailbox>");
  for (uint32_t m = 0; m < kMails; m++) {
    out->append("<mail><from>");
    Words(rng, 2, out);
    out->append("</from><to>");
    Words(rng, 2, out);
    out->append("</to><date>" + Date(rng) + "</date>");
    Text(rng, out);
    out->append("</mail>");
  }
  out->append("</mailbox></item>");
}

}  // namespace

const char* AuctionWord(int i) { return kWords[i % kAuctionWordCount]; }

std::string Money(xdb::Random* rng, double lo, double hi) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", lo + rng->NextDouble() * (hi - lo));
  return buf;
}

std::string PersonId(uint64_t ordinal, uint32_t n) {
  return "p" + std::to_string(ordinal) + "." + std::to_string(n);
}

std::string GenAuctionXml(uint64_t seed, uint64_t ordinal,
                          const AuctionOptions& options) {
  xdb::Random rng(DocSeed(seed, ordinal));
  const uint32_t s = options.scale == 0 ? 1 : options.scale;
  std::string out;
  out.reserve(4096 * s);
  out.append("<site><regions>");
  uint32_t item_no = 0;
  for (const char* region : kRegions) {
    out.append("<");
    out.append(region);
    out.append(">");
    for (uint32_t i = 0; i < kItemsPerRegion * s; i++)
      Item(&rng, ordinal, item_no++, &out);
    out.append("</");
    out.append(region);
    out.append(">");
  }
  out.append("</regions><people>");
  const uint32_t people = kAuctionPeople * s;
  for (uint32_t p = 0; p < people; p++) {
    out.append("<person id=\"" + PersonId(ordinal, p) + "\"><name>");
    Words(&rng, 2, &out);
    out.append("</name><emailaddress>mailto:");
    Words(&rng, 1, &out);
    out.append("@example.com</emailaddress><profile income=\"" +
               Money(&rng, 10000, 99999) + "\"><age>" +
               std::to_string(rng.Range(18, 80)) + "</age></profile></person>");
  }
  out.append("</people><open_auctions>");
  for (uint32_t a = 0; a < kOpenAuctions * s; a++) {
    out.append("<open_auction id=\"a" + std::to_string(ordinal) + "." +
               std::to_string(a) + "\"><initial>" + Money(&rng, 1, 300) +
               "</initial>");
    for (uint32_t b = 0; b < kBidders; b++) {
      out.append("<bidder><date>" + Date(&rng) + "</date><personref person=\"" +
                 PersonId(ordinal, static_cast<uint32_t>(rng.Uniform(people))) +
                 "\"/><increase>" + Money(&rng, 1, 50) + "</increase></bidder>");
    }
    out.append("<current>" + Money(&rng, 300, 600) + "</current><itemref item=\"i" +
               std::to_string(ordinal) + "." +
               std::to_string(rng.Uniform(item_no)) + "\"/></open_auction>");
  }
  out.append("</open_auctions><closed_auctions>");
  for (uint32_t c = 0; c < kClosedAuctions * s; c++) {
    out.append("<closed_auction><seller person=\"" +
               PersonId(ordinal, static_cast<uint32_t>(rng.Uniform(people))) +
               "\"/><buyer person=\"" +
               PersonId(ordinal, static_cast<uint32_t>(rng.Uniform(people))) +
               "\"/><itemref item=\"i" + std::to_string(ordinal) + "." +
               std::to_string(rng.Uniform(item_no)) + "\"/><price>" +
               Money(&rng, 1, 1000) + "</price><date>" + Date(&rng) +
               "</date><quantity>1</quantity></closed_auction>");
  }
  out.append("</closed_auctions></site>");
  return out;
}

std::string GenBidderXml(uint64_t seed, uint64_t n) {
  xdb::Random rng(DocSeed(seed ^ 0xB1DDE5ULL, n));
  return "<bidder><date>" + Date(&rng) + "</date><personref person=\"p" +
         std::to_string(n) + ".0\"/><increase>" + Money(&rng, 1, 50) +
         "</increase></bidder>";
}

}  // namespace xdb_bench
