// common::json: the one strict reader and the writer every wire document
// goes through. Pins the RFC 8259 grammar edges the reader rejects, exact
// integer conversion, string escapes both ways, the Writer's two layouts,
// and the Reader's unknown-key check.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/fields.hpp"

namespace {

using namespace aimes::common;

/// The error text for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  auto doc = json::Node::parse("doc", text);
  return doc ? "" : doc.error();
}

TEST(JsonReader, RejectsGrammarViolationsWithOffsets) {
  const struct {
    const char* text;
    const char* what;
  } cases[] = {
      {"", "at byte 0: unexpected end of document"},
      {"[1, 2]", "at byte 0: expected a JSON object"},
      {"{\"a\": 1} x", "at byte 9: unexpected bytes after the document"},
      {"{\"a\": 1,}", "at byte 8: trailing comma"},
      {"{\"a\": [1,]}", "field 'a' at byte 9: trailing comma"},
      {"{\"a\": 1 \"b\": 2}", "field 'a' at byte 8: expected ',' or '}'"},
      {"{\"a\" 1}", "field 'a' at byte 5: expected ':'"},
      {"{\"a\": 01}", "field 'a' at byte 7: expected ',' or '}'"},
      {"{\"a\": 1.}", "field 'a' at byte 8: expected a digit after '.'"},
      {"{\"a\": -}", "field 'a' at byte 6: expected a value"},
      {"{\"a\": nul}", "field 'a' at byte 6: expected a value"},
      {"{\"a\": \"x\ty\"}", "field 'a' at byte 8: unescaped control character"},
      {"{\"a\": \"\\x\"}", "field 'a' at byte 7: invalid escape"},
      {"{\"a\": \"\\ud800\"}", "field 'a' at byte 7: unpaired surrogate"},
      {"{\"a\": \"abc}", "field 'a' at byte 6: unterminated string"},
      {"{\"a\": {\"b\": 1, \"b\": 2}}", "field 'a.b' at byte 20: duplicate key"},
  };
  for (const auto& c : cases) {
    const std::string error = parse_error(c.text);
    EXPECT_NE(error.find(c.what), std::string::npos) << c.text << " -> " << error;
    EXPECT_EQ(error.rfind("doc: ", 0), 0u) << error;
  }
}

TEST(JsonReader, DeepNestingIsATypedErrorNotAStackOverflow) {
  const std::string deep = "{\"a\": " + std::string(1 << 20, '[');
  const std::string error = parse_error(deep);
  EXPECT_NE(error.find("nesting deeper than 64 levels"), std::string::npos) << error;

  std::string nested = "{";
  for (int i = 0; i < json::kMaxDepth - 1; ++i) nested += "\"a\": {";
  nested += std::string(json::kMaxDepth, '}');
  EXPECT_EQ(parse_error(nested), "");
}

TEST(JsonReader, IntegersConvertExactlyOrFailTyped) {
  auto doc = json::Node::parse(
      "doc", "{\"max\": 18446744073709551615, \"big\": 1e25, \"neg\": -1, \"frac\": 64.9,"
             " \"exp\": 1e3, \"int\": 2147483648, \"hex\": \"00000000deadbeef\","
             " \"badhex\": \"0x12\", \"longhex\": \"00000000000000001\"}");
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->get("max").integer<std::uint64_t>().value_or(0), 18446744073709551615ULL);
  EXPECT_FALSE(doc->get("big").integer<std::uint64_t>().ok());
  EXPECT_FALSE(doc->get("neg").integer<std::uint64_t>().ok());
  EXPECT_EQ(doc->get("neg").integer<std::int64_t>().value_or(0), -1);
  const auto frac = doc->get("frac").integer<std::int64_t>();
  ASSERT_FALSE(frac.ok());
  EXPECT_NE(frac.error().find("field 'frac' at byte"), std::string::npos) << frac.error();
  EXPECT_EQ(doc->get("exp").integer<std::int64_t>().value_or(0), 1000);
  EXPECT_FALSE(doc->get("int").integer<int>().ok());
  std::uint64_t checksum = 0;
  EXPECT_TRUE(json::parse_hex16(doc->get("hex").text().value_or(""), checksum).ok());
  EXPECT_EQ(checksum, 0xdeadbeefULL);
  EXPECT_FALSE(json::parse_hex16(doc->get("badhex").text().value_or(""), checksum).ok());
  EXPECT_FALSE(json::parse_hex16(doc->get("longhex").text().value_or(""), checksum).ok());
  EXPECT_FALSE(doc->get("max").text().ok());
  EXPECT_FALSE(doc->get("missing").number().ok());
}

TEST(JsonReader, DecodesEveryEscapeIncludingSurrogatePairs) {
  auto doc = json::Node::parse(
      "doc", R"({"s": "q\" b\\ s\/ \b\f\n\r\t \u0001 \u00e9 \ud83d\ude00"})");
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->get("s").text().value_or(""),
            "q\" b\\ s/ \b\f\n\r\t \x01 \xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonEscape, EveryControlByteQuoteAndBackslashRoundTrip) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/ plain";
  const std::string escaped = json::escape(all);
  for (const char c : escaped) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  EXPECT_NE(escaped.find("\\r"), std::string::npos);
  EXPECT_NE(escaped.find("\\b"), std::string::npos);
  EXPECT_NE(escaped.find("\\f"), std::string::npos);
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  auto doc = json::Node::parse("doc", "{\"s\": \"" + escaped + "\"}");
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->get("s").text().value_or(""), all);
}

TEST(JsonWriter, PrettyAndCompactLayouts) {
  json::Writer pretty(/*pretty=*/true);
  pretty("a", 1);
  pretty("g.b", "x");
  pretty("g.c", true);
  pretty("d", 0.5);
  EXPECT_EQ(pretty.finish(),
            "{\n  \"a\": 1,\n  \"g\": {\n    \"b\": \"x\",\n    \"c\": true\n  },\n"
            "  \"d\": 0.5\n}");

  const std::uint64_t checksum = 0xabcULL;
  json::Writer compact(/*pretty=*/false);
  compact("n", std::uint64_t{18446744073709551615ULL});
  compact("h", json::hex(checksum));
  compact.raw("o", "{\"x\": 1}");
  EXPECT_EQ(compact.finish(),
            "{\"n\": 18446744073709551615, \"h\": \"0000000000000abc\", \"o\": {\"x\": 1}}");
}

TEST(JsonReader, FieldListRejectsUnknownKeysInEveryObject) {
  auto doc = json::Node::parse("doc", "{\"tasks\": 3, \"g\": {\"pilots\": 2, \"piolts\": 1}}");
  ASSERT_TRUE(doc.ok()) << doc.error();
  int tasks = 0;
  int pilots = 0;
  json::Reader in(*doc);
  in("tasks", tasks);
  in("g.pilots", pilots);
  const auto st = in.finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().find("field 'g.piolts' at byte 42: unknown field"), std::string::npos)
      << st.error();
  EXPECT_EQ(tasks, 3);

  json::Reader required(*doc, /*require_all=*/true);
  int absent = 0;
  required("absent", absent);
  const auto missing = required.finish();
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("missing field 'absent'"), std::string::npos);
}

}  // namespace
