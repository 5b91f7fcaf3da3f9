// XMark-shaped auction documents (Schmidt et al., "XMark: A Benchmark for
// XML Data Management", VLDB 2002), cited for the schema only: nothing is
// downloaded and the generator is not XMark's xmlgen.
//
// One document is one <site>:
//
//   site/regions/{africa,asia,europe,namerica}/item[@id]
//       name, location, quantity, payment,
//       description/parlist/listitem/(text[keyword] | parlist/...)  (recursive)
//       mailbox/mail/(from, to, date, text)
//   site/people/person[@id]/(name, emailaddress, profile[@income]/age)
//   site/open_auctions/open_auction[@id]/(initial, bidder/(date, personref,
//       increase)*, current, itemref)
//   site/closed_auctions/closed_auction/(seller, buyer, itemref, price,
//       date, quantity)
//
// Every name, path and value the benchmark queries stays inside the engine's
// XPath subset (child, descendant, attribute, text(), value predicates,
// not()). Output is a pure function of (seed, ordinal, options): the same
// arguments give byte-identical text.
#ifndef XDB_BENCH_AUCTION_H_
#define XDB_BENCH_AUCTION_H_

#include <cstdint>
#include <string>

#include "common/random.h"

namespace xdb_bench {

struct AuctionOptions {
  /// Scale knob: multiplies the items per region, people, open auctions and
  /// closed auctions of a document.
  uint32_t scale = 1;
};

/// <person>s per document at scale 1.
constexpr uint32_t kAuctionPeople = 6;

/// Document `ordinal` of the stream drawn from `seed`. Ids embed the ordinal
/// (item "i<ordinal>.<n>", person "p<ordinal>.<n>", open_auction
/// "a<ordinal>.<n>"), so they are unique across a corpus.
std::string GenAuctionXml(uint64_t seed, uint64_t ordinal,
                          const AuctionOptions& options);

/// The id of person `n` of document `ordinal` (matches GenAuctionXml).
std::string PersonId(uint64_t ordinal, uint32_t n);

/// A <bidder> fragment for InsertSubtree under an open_auction.
std::string GenBidderXml(uint64_t seed, uint64_t n);

/// Words the generator draws keywords and text from; queries pick from the
/// same pool.
constexpr int kAuctionWordCount = 16;
const char* AuctionWord(int i);

/// A price in [lo, hi) with two decimals, as "123.45".
std::string Money(xdb::Random* rng, double lo, double hi);

}  // namespace xdb_bench

#endif  // XDB_BENCH_AUCTION_H_
