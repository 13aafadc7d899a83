#include "feeds/xml.h"

#include <cctype>
#include <clocale>
#include <string>

#include <gtest/gtest.h>

namespace pullmon {
namespace {

TEST(XmlParserTest, SimpleDocument) {
  auto root = ParseXml("<a><b>text</b><c x=\"1\"/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name, "a");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0].name, "b");
  EXPECT_EQ(root->children[0].text, "text");
  EXPECT_EQ(root->children[1].name, "c");
  ASSERT_NE(root->children[1].Attribute("x"), nullptr);
  EXPECT_EQ(*root->children[1].Attribute("x"), "1");
}

TEST(XmlParserTest, DeclarationCommentsAndDoctypeSkipped) {
  auto root = ParseXml(
      "<?xml version=\"1.0\"?>\n<!DOCTYPE html>\n<!-- note -->\n"
      "<root/>\n<!-- after -->");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name, "root");
}

TEST(XmlParserTest, NestedElements) {
  auto root = ParseXml("<a><b><c><d>deep</d></c></b></a>");
  ASSERT_TRUE(root.ok());
  const XmlNode* d = root->children[0].children[0].FirstChild("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->text, "deep");
}

TEST(XmlParserTest, PredefinedEntities) {
  auto root = ParseXml("<t>&lt;a&gt; &amp; &quot;b&quot; &apos;c&apos;</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "<a> & \"b\" 'c'");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto root = ParseXml("<t>&#65;&#x42;&#x20AC;</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "AB\xE2\x82\xAC");  // A, B, euro sign
}

TEST(XmlParserTest, EntitiesInAttributes) {
  auto root = ParseXml("<t a=\"x&amp;y\" b='q&lt;r'/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root->Attribute("a"), "x&y");
  EXPECT_EQ(*root->Attribute("b"), "q<r");
}

TEST(XmlParserTest, CdataSections) {
  auto root = ParseXml("<t><![CDATA[<raw> & stuff]]></t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "<raw> & stuff");
}

TEST(XmlParserTest, CommentsInsideContent) {
  auto root = ParseXml("<t>a<!-- skip -->b</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "ab");
}

TEST(XmlParserTest, MixedContentKeepsAllText) {
  auto root = ParseXml("<t>pre<b>bold</b>post</t>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "prepost");
  EXPECT_EQ(root->children[0].text, "bold");
}

TEST(XmlParserTest, SelfClosingWithAttributes) {
  auto root = ParseXml("<link href=\"http://x\" rel=\"alternate\"/>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->children.size(), 0u);
  EXPECT_EQ(*root->Attribute("href"), "http://x");
}

TEST(XmlParserTest, PrefixedNamesKeptVerbatim) {
  auto root = ParseXml("<atom:feed><atom:id>x</atom:id></atom:feed>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->name, "atom:feed");
  EXPECT_EQ(root->ChildText("atom:id"), "x");
}

TEST(XmlParserTest, MalformedDocumentsRejected) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("just text").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                  // unclosed
  EXPECT_FALSE(ParseXml("<a></b>").ok());              // mismatch
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());       // crossed
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());     // bad entity
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());             // unquoted attr
  EXPECT_FALSE(ParseXml("<a x=\"1/>").ok());           // unterminated
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());             // two roots
  EXPECT_FALSE(ParseXml("<a><![CDATA[x</a>").ok());    // open CDATA
  EXPECT_FALSE(ParseXml("<a>&#xZZ;</a>").ok());        // bad numeric
}

TEST(XmlParserTest, ScannerClassesMatchCLocaleCtypeOnEveryByte) {
  // Both parsers share SkipWhitespace and ScanName, so the arena-vs-
  // allocating differential cannot see a change in them; pin each
  // byte's class through one-byte probes of tiny documents instead.
  ASSERT_STREQ(std::setlocale(LC_CTYPE, nullptr), "C");
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    const auto u = static_cast<unsigned char>(b);
    const bool space = std::isspace(u) != 0;
    const bool name_start = std::isalpha(u) != 0 || b == '_' || b == ':';
    const bool name_char =
        name_start || std::isdigit(u) != 0 || b == '-' || b == '.';
    // Only whitespace may sit between '=' and the quoted value.
    EXPECT_EQ(ParseXml("<a x=" + c + "'1'/>").ok(), space) << "byte " << b;
    // Only whitespace may precede the root element.
    EXPECT_EQ(ParseXml(c + "<a/>").ok(), space) << "byte " << b;
    EXPECT_EQ(ParseXml("<" + c + "/>").ok(), name_start) << "byte " << b;
    EXPECT_EQ(ParseXml("<a" + c + "b/>").ok(), name_char) << "byte " << b;
  }
}

TEST(XmlNodeTest, ChildrenAndChildText) {
  auto root = ParseXml("<r><i>1</i><i>2</i><j>  3  </j></r>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->Children("i").size(), 2u);
  EXPECT_EQ(root->ChildText("j"), "3");  // trimmed
  EXPECT_EQ(root->ChildText("missing"), "");
  EXPECT_EQ(root->FirstChild("missing"), nullptr);
}

TEST(XmlEscapeTest, EscapesSpecials) {
  EXPECT_EQ(XmlEscape("a<b>&\"'c"),
            "a&lt;b&gt;&amp;&quot;&apos;c");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(XmlWriterTest, ProducesParsableDocument) {
  XmlWriter writer;
  writer.Open("rss", {{"version", "2.0"}});
  writer.Open("channel");
  writer.Leaf("title", "Bids & <stuff>");
  writer.Close();
  writer.Close();
  auto parsed = ParseXml(writer.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "rss");
  EXPECT_EQ(parsed->children[0].ChildText("title"), "Bids & <stuff>");
}

TEST(XmlRoundTripTest, EscapeThenParse) {
  std::string nasty = "<tag attr=\"v\"> & 'quotes' \"d\" </tag>";
  XmlWriter writer;
  writer.Open("t");
  writer.Leaf("payload", nasty);
  writer.Close();
  auto parsed = ParseXml(writer.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(std::string(parsed->children[0].text), nasty);
}

}  // namespace
}  // namespace pullmon
