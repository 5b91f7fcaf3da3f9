// Schema subsystem tests: language parsing, Glushkov-DFA compilation, binary
// round trip, and validation-VM behaviour (content models, attributes,
// simple types, annotations).
#include <gtest/gtest.h>

#include <cmath>

#include "common/coding.h"
#include "schema/schema_compiler.h"
#include "schema/schema_parser.h"
#include "schema/validator_vm.h"
#include "util/workload.h"
#include "xml/parser.h"
#include "xdm/item.h"

namespace xdb {
namespace schema {
namespace {

const char* kSchemaText = R"(
schema shop;
root Order;
element Order {
  attribute id: integer required;
  attribute priority: string optional;
  content: Customer, Item+, (GiftNote | Coupon)?;
}
element Customer { text: string; }
element Item {
  attribute sku: string required;
  content: Qty, Price;
}
element Qty { text: integer; }
element Price { text: decimal; }
element GiftNote { mixed; }
element Coupon { empty; }
)";

TEST(SchemaParserTest, ParsesDeclarations) {
  auto doc = ParseSchema(kSchemaText);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().name, "shop");
  EXPECT_EQ(doc.value().root, "Order");
  EXPECT_EQ(doc.value().elements.size(), 7u);
  const ElementDecl& order = doc.value().elements[0];
  EXPECT_EQ(order.name, "Order");
  ASSERT_EQ(order.attrs.size(), 2u);
  EXPECT_TRUE(order.attrs[0].required);
  EXPECT_EQ(order.attrs[0].type, SimpleType::kInteger);
  EXPECT_FALSE(order.attrs[1].required);
  EXPECT_EQ(order.content, ContentKind::kChildren);
}

TEST(SchemaParserTest, RejectsUndeclaredReferences) {
  EXPECT_FALSE(ParseSchema("element A { content: Missing; }").ok());
  EXPECT_FALSE(ParseSchema("root Nope; element A { empty; }").ok());
  EXPECT_FALSE(
      ParseSchema("element A { empty; } element A { empty; }").ok());
  EXPECT_FALSE(ParseSchema("element A { text: bogustype; }").ok());
}

TEST(SchemaCompilerTest, DfaAcceptsAndRejects) {
  auto cs = CompileSchemaText(kSchemaText).MoveValue();
  int order = cs.FindElement("Order");
  ASSERT_GE(order, 0);
  const CompiledElement& e = cs.elements()[order];
  EXPECT_EQ(e.content, ContentKind::kChildren);
  EXPECT_GE(e.symbols.size(), 4u);  // Customer, Item, GiftNote, Coupon
  EXPECT_GT(e.trans.size(), 1u);
  EXPECT_EQ(cs.FindElement("NoSuch"), -1);
}

class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cs_ = CompileSchemaText(kSchemaText).MoveValue();
  }

  Status Validate(const std::string& xml, TokenWriter* out = nullptr) {
    Parser parser(&dict_);
    TokenWriter tokens;
    XDB_RETURN_NOT_OK(parser.Parse(xml, &tokens));
    TokenWriter local;
    ValidatorVm vm(&cs_, &dict_);
    return vm.Validate(tokens.data(), out != nullptr ? out : &local);
  }

  CompiledSchema cs_;
  NameDictionary dict_;
};

TEST_F(ValidatorTest, AcceptsValidDocument) {
  Status st = Validate(
      "<Order id=\"42\"><Customer>Ann</Customer>"
      "<Item sku=\"X\"><Qty>2</Qty><Price>9.99</Price></Item>"
      "<Item sku=\"Y\"><Qty>1</Qty><Price>3.50</Price></Item>"
      "<GiftNote>Happy <b>day</b>!</GiftNote></Order>");
  // GiftNote is mixed but <b> is undeclared -> that IS an error; use only
  // declared elements inside mixed content.
  EXPECT_FALSE(st.ok());
  st = Validate(
      "<Order id=\"42\"><Customer>Ann</Customer>"
      "<Item sku=\"X\"><Qty>2</Qty><Price>9.99</Price></Item>"
      "<GiftNote>Happy day!</GiftNote></Order>");
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(ValidatorTest, OptionalTailAndEmptyElement) {
  EXPECT_TRUE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                       "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                       "<Coupon/></Order>")
                  .ok());
  EXPECT_TRUE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                       "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                       "</Order>")
                  .ok());
}

TEST_F(ValidatorTest, RejectsOrderViolations) {
  // Item before Customer.
  EXPECT_FALSE(Validate("<Order id=\"1\">"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "<Customer>B</Customer></Order>")
                   .ok());
  // Missing required Item.
  EXPECT_FALSE(Validate("<Order id=\"1\"><Customer>B</Customer></Order>").ok());
  // Both GiftNote and Coupon (only one allowed).
  EXPECT_FALSE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "<GiftNote>x</GiftNote><Coupon/></Order>")
                   .ok());
}

TEST_F(ValidatorTest, RejectsAttributeViolations) {
  // Missing required id.
  EXPECT_FALSE(Validate("<Order><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "</Order>")
                   .ok());
  // Undeclared attribute.
  EXPECT_FALSE(Validate("<Order id=\"1\" bogus=\"x\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "</Order>")
                   .ok());
  // id must be an integer.
  EXPECT_FALSE(Validate("<Order id=\"forty-two\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "</Order>")
                   .ok());
}

TEST_F(ValidatorTest, RejectsTypeViolations) {
  EXPECT_FALSE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>lots</Qty><Price>1</Price></Item>"
                        "</Order>")
                   .ok());
  EXPECT_FALSE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>cheap</Price>"
                        "</Item></Order>")
                   .ok());
}

TEST_F(ValidatorTest, RejectsTextInElementContent) {
  EXPECT_FALSE(Validate("<Order id=\"1\">stray text<Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "</Order>")
                   .ok());
  // Whitespace between children is fine.
  EXPECT_TRUE(Validate("<Order id=\"1\">\n  <Customer>B</Customer>\n  "
                       "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>\n"
                       "</Order>")
                  .ok());
}

TEST_F(ValidatorTest, RejectsWrongRootAndUnknownElements) {
  EXPECT_FALSE(Validate("<Customer>hi</Customer>").ok());
  EXPECT_FALSE(Validate("<Order id=\"1\"><Customer>B</Customer>"
                        "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item>"
                        "<Martian/></Order>")
                   .ok());
}

TEST_F(ValidatorTest, AnnotatesTypes) {
  TokenWriter out;
  ASSERT_TRUE(Validate("<Order id=\"7\"><Customer>B</Customer>"
                       "<Item sku=\"s\"><Qty>3</Qty><Price>19.99</Price>"
                       "</Item></Order>",
                       &out)
                  .ok());
  TokenReader reader(out.data());
  Token t;
  bool saw_decimal_text = false, saw_integer_attr = false;
  for (;;) {
    auto more = reader.Next(&t);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    if (t.kind == TokenKind::kText && t.type == TypeAnno::kDecimal)
      saw_decimal_text = true;
    if (t.kind == TokenKind::kAttribute && t.type == TypeAnno::kInteger)
      saw_integer_attr = true;
  }
  EXPECT_TRUE(saw_decimal_text);
  EXPECT_TRUE(saw_integer_attr);
}

TEST_F(ValidatorTest, BinaryRoundTripValidatesIdentically) {
  std::string binary;
  cs_.Serialize(&binary);
  auto reloaded = CompiledSchema::Deserialize(binary);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  const std::string good =
      "<Order id=\"1\"><Customer>B</Customer>"
      "<Item sku=\"s\"><Qty>1</Qty><Price>1</Price></Item></Order>";
  const std::string bad =
      "<Order id=\"1\"><Customer>B</Customer></Order>";

  Parser parser(&dict_);
  for (const auto& [xml, expect_ok] :
       {std::pair{good, true}, std::pair{bad, false}}) {
    TokenWriter tokens, out;
    ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
    ValidatorVm vm(&reloaded.value(), &dict_);
    EXPECT_EQ(vm.Validate(tokens.data(), &out).ok(), expect_ok);
  }
}

// An xs:double has an exponent and a sign in its lexical space, which
// XPath's number grammar (StringToNumber) lacks: the validator keeps
// reading doubles as XML Schema does.
TEST(ValidatorDoubleTest, AcceptsSchemaDoublesXPathReadsAsNaN) {
  CompiledSchema cs =
      CompileSchemaText("root V; element V { text: double; }").MoveValue();
  NameDictionary dict;
  Parser parser(&dict);
  auto valid = [&](const std::string& text) {
    TokenWriter tokens, out;
    EXPECT_TRUE(parser.Parse("<V>" + text + "</V>", &tokens).ok());
    ValidatorVm vm(&cs, &dict);
    return vm.Validate(tokens.data(), &out).ok();
  };
  for (const char* v : {"1e5", "+5", "-2.5E-3", " 7 ", ".5", "5."})
    EXPECT_TRUE(valid(v)) << v;
  for (const char* v : {"five", "1e", "NaN", "0x"}) EXPECT_FALSE(valid(v)) << v;
  EXPECT_TRUE(std::isnan(StringToNumber("1e5")));
  EXPECT_TRUE(std::isnan(StringToNumber("+5")));
}

// A damaged name length of 2^64-1 must read as Corruption, not as a name
// running past the binary.
TEST(SchemaCompilerTest, DeserializeRejectsWrappingLength) {
  std::string binary;
  PutFixed32(&binary, 0x58534348);  // the compiled-schema magic
  PutVarint64(&binary, ~uint64_t{0});
  binary += "abc";
  auto cs = CompiledSchema::Deserialize(binary);
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.status().IsCorruption()) << cs.status().ToString();
}

TEST(CatalogSchemaTest, MatchesGeneratedCatalogs) {
  auto cs = CompileSchemaText(workload::CatalogSchemaText()).MoveValue();
  NameDictionary dict;
  Parser parser(&dict);
  Random rng(31);
  workload::CatalogOptions opts;
  opts.categories = 2;
  opts.products_per_category = 8;
  for (int i = 0; i < 5; i++) {
    std::string xml = workload::GenCatalogXml(&rng, opts);
    TokenWriter tokens, out;
    ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
    ValidatorVm vm(&cs, &dict);
    Status st = vm.Validate(tokens.data(), &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(GlushkovTest, StarPlusOptCombinations) {
  auto cs = CompileSchemaText(R"(
root R;
element R { content: (A, B?)+, C*; }
element A { empty; }
element B { empty; }
element C { empty; }
)")
                .MoveValue();
  NameDictionary dict;
  Parser parser(&dict);
  auto check = [&](const std::string& xml, bool expect_ok) {
    TokenWriter tokens, out;
    ASSERT_TRUE(parser.Parse(xml, &tokens).ok());
    ValidatorVm vm(&cs, &dict);
    EXPECT_EQ(vm.Validate(tokens.data(), &out).ok(), expect_ok) << xml;
  };
  check("<R><A/></R>", true);
  check("<R><A/><B/></R>", true);
  check("<R><A/><B/><A/><C/><C/></R>", true);
  check("<R><A/><A/><A/></R>", true);
  check("<R></R>", false);       // at least one A
  check("<R><B/></R>", false);   // B cannot lead
  check("<R><A/><C/><A/></R>", false);  // A cannot follow C
  check("<R><C/></R>", false);
}

}  // namespace
}  // namespace schema
}  // namespace xdb
