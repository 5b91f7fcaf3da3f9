// Unit tests for the common layer: Status/Result, Slice, codings, Decimal,
// Arena, Random.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/coding.h"
#include "common/decimal.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace xdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsSetCodes) {
  EXPECT_EQ(Status::Corruption().code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::InvalidArgument().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(Status::IOError().code(), Status::Code::kIOError);
  EXPECT_EQ(Status::NotSupported().code(), Status::Code::kNotSupported);
  EXPECT_EQ(Status::Busy().code(), Status::Code::kBusy);
  EXPECT_EQ(Status::Deadlock().code(), Status::Code::kDeadlock);
  EXPECT_EQ(Status::ParseError().code(), Status::Code::kParseError);
  EXPECT_EQ(Status::ValidationError().code(), Status::Code::kValidationError);
  EXPECT_EQ(Status::Full().code(), Status::Code::kFull);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::IOError("disk"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Status::Code::kIOError);
}

TEST(SliceTest, CompareIsBytewise) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("").Compare(Slice("a")), 0);
  // Unsigned comparison: 0x80 > 0x7F.
  char hi = static_cast<char>(0x80);
  char lo = 0x7F;
  EXPECT_GT(Slice(&hi, 1).Compare(Slice(&lo, 1)), 0);
}

TEST(SliceTest, StartsWithAndPrefixRemoval) {
  Slice s("hello world");
  EXPECT_TRUE(s.StartsWith("hello"));
  EXPECT_FALSE(s.StartsWith("world"));
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(CodingTest, FixedWidthRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xBEEF);
  EXPECT_EQ(DecodeFixed32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 6), 0x0123456789ABCDEFull);
}

TEST(CodingTest, BigEndianOrdersNumerically) {
  std::string a, b;
  PutBig64(&a, 100);
  PutBig64(&b, 200);
  EXPECT_LT(Slice(a).Compare(Slice(b)), 0);
  EXPECT_EQ(DecodeBig64(a.data()), 100u);
  std::string c, d;
  PutBig32(&c, 7);
  PutBig32(&d, 0x01000000u);
  EXPECT_LT(Slice(c).Compare(Slice(d)), 0);
  EXPECT_EQ(DecodeBig32(d.data()), 0x01000000u);
}

TEST(CodingTest, VarintRoundTrip) {
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    uint64_t decoded;
    size_t n = GetVarint64(buf.data(), buf.data() + buf.size(), &decoded);
    EXPECT_EQ(n, buf.size());
    EXPECT_EQ(decoded, v);
  }
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  uint64_t v;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + 2, &v), 0u);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());

  // A damaged length of 2^64-1 in front of 3 bytes: n + len would wrap.
  std::string damaged;
  PutVarint64(&damaged, ~uint64_t{0});
  damaged += "abc";
  Slice bad(damaged), out;
  EXPECT_FALSE(GetLengthPrefixed(&bad, &out));
  EXPECT_EQ(bad.size(), damaged.size());
}

TEST(CodingTest, OrderedDoublePreservesOrder) {
  std::vector<double> values = {-1e300, -42.5, -1.0, -1e-30, 0.0,
                                1e-30,  1.0,   3.14, 42.5,   1e300};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    std::string a, b;
    PutOrderedDouble(&a, values[i]);
    PutOrderedDouble(&b, values[i + 1]);
    EXPECT_LT(Slice(a).Compare(Slice(b)), 0)
        << values[i] << " vs " << values[i + 1];
    EXPECT_DOUBLE_EQ(DecodeOrderedDouble(a.data()), values[i]);
  }
}

TEST(DecimalTest, ParseAndToString) {
  auto dec = [](const char* s) {
    auto r = Decimal::FromString(s);
    EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
    return r.value();
  };
  EXPECT_EQ(dec("0").ToString(), "0");
  EXPECT_EQ(dec("42").ToString(), "42");
  EXPECT_EQ(dec("-3.14").ToString(), "-3.14");
  EXPECT_EQ(dec("0.001").ToString(), "0.001");
  EXPECT_EQ(dec("1e3").ToString(), "1000");
  EXPECT_EQ(dec("1.5e-2").ToString(), "0.015");
  EXPECT_EQ(dec("  7.25  ").ToString(), "7.25");
  EXPECT_EQ(dec("100.00").ToString(), "100");
}

TEST(DecimalTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Decimal::FromString("").ok());
  EXPECT_FALSE(Decimal::FromString("abc").ok());
  EXPECT_FALSE(Decimal::FromString("1.2.3").ok());
  EXPECT_FALSE(Decimal::FromString("1e").ok());
  EXPECT_FALSE(Decimal::FromString("12x").ok());
}

TEST(DecimalTest, ExactComparisonBeyondDoublePrecision) {
  // Two values a double cannot distinguish.
  auto a = Decimal::FromString("100000000000000.01").value();
  auto b = Decimal::FromString("100000000000000.02").value();
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(DecimalTest, CompareMixedSignsAndMagnitudes) {
  auto d = [](const char* s) { return Decimal::FromString(s).value(); };
  EXPECT_LT(d("-5").Compare(d("3")), 0);
  EXPECT_LT(d("-50").Compare(d("-5")), 0);
  EXPECT_LT(d("0.5").Compare(d("5")), 0);
  EXPECT_LT(d("0").Compare(d("0.0001")), 0);
  EXPECT_GT(d("0").Compare(d("-0.0001")), 0);
  EXPECT_EQ(d("2.50").Compare(d("2.5")), 0);
}

TEST(DecimalTest, KeyEncodingOrdersNumerically) {
  Random rng(11);
  std::vector<Decimal> values;
  for (int i = 0; i < 300; i++) {
    int64_t coeff = static_cast<int64_t>(rng.Next() % 2000000) - 1000000;
    int32_t exp = static_cast<int32_t>(rng.Uniform(9)) - 4;
    values.push_back(Decimal(coeff, exp));
  }
  for (int i = 0; i < 300; i++) {
    const Decimal& a = values[rng.Uniform(values.size())];
    const Decimal& b = values[rng.Uniform(values.size())];
    std::string ka, kb;
    a.EncodeKey(&ka);
    b.EncodeKey(&kb);
    int key_cmp = Slice(ka).Compare(Slice(kb));
    int num_cmp = a.Compare(b);
    if (num_cmp < 0) {
      EXPECT_LT(key_cmp, 0) << a.ToString() << " " << b.ToString();
    } else if (num_cmp > 0) {
      EXPECT_GT(key_cmp, 0) << a.ToString() << " " << b.ToString();
    } else {
      EXPECT_EQ(key_cmp, 0) << a.ToString() << " " << b.ToString();
    }
  }
}

TEST(DecimalTest, KeyRoundTrip) {
  for (const char* s : {"0", "1", "-1", "123.456", "-0.001", "99999999", "1e10"}) {
    Decimal d = Decimal::FromString(s).value();
    std::string key;
    d.EncodeKey(&key);
    Slice in(key);
    auto back = Decimal::DecodeKey(&in);
    ASSERT_TRUE(back.ok()) << s;
    EXPECT_EQ(back.value().Compare(d), 0) << s;
    EXPECT_TRUE(in.empty());
  }
}

TEST(ArenaTest, AllocatesAlignedAndTracksUsage) {
  Arena arena;
  char* p1 = arena.Allocate(1);
  char* p2 = arena.Allocate(13);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 8, 0u);
  EXPECT_GT(arena.MemoryUsage(), 0u);
  // Large allocations get their own block.
  char* big = arena.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[(1 << 20) - 1] = 'y';
  EXPECT_GE(arena.MemoryUsage(), 1u << 20);
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(42), b(42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(10), 10u);
    int64_t v = r.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace xdb
