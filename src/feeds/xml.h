#ifndef PULLMON_FEEDS_XML_H_
#define PULLMON_FEEDS_XML_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/status.h"

namespace pullmon {

/// One element of a parsed XML document. The parser covers the subset of
/// XML 1.0 needed for Web feeds: elements, attributes, character data,
/// the five predefined entities plus numeric character references,
/// comments, CDATA sections, processing instructions and an XML
/// declaration. Namespaces are not resolved; prefixed names are kept
/// verbatim (sufficient for RSS 2.0 / Atom 1.0 documents).
struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<XmlNode> children;
  /// Concatenated character data (text + CDATA) directly under this
  /// element, entity-decoded, in document order.
  std::string text;

  /// First direct child with the given element name, or nullptr.
  const XmlNode* FirstChild(std::string_view child_name) const;

  /// All direct children with the given element name, in order.
  std::vector<const XmlNode*> Children(std::string_view child_name) const;

  /// Attribute value by name, or nullptr.
  const std::string* Attribute(std::string_view attr_name) const;

  /// Text of the first child with the given name, or "" when absent —
  /// the dominant access pattern for feed fields.
  std::string ChildText(std::string_view child_name) const;
};

/// Parses a complete document and returns its root element. ParseError
/// on malformed input (mismatched tags, bad entities, truncation, ...).
Result<XmlNode> ParseXml(std::string_view input);

/// Offset of the first byte at or after `pos` that is not whitespace, a
/// comment, a processing instruction or a DOCTYPE: everything allowed
/// outside the root element. Both ParseXml overloads skip the prolog
/// and the epilog with it, so `input.substr(SkipXmlMisc(input, 0))`
/// starts with the tag they take as the root (input.size() when an
/// unterminated comment or PI runs to the end).
std::size_t SkipXmlMisc(std::string_view input, std::size_t pos);

/// One attribute of an arena-parsed element, an intrusive list entry.
struct ArenaXmlAttr {
  std::string_view name;
  std::string_view value;
  const ArenaXmlAttr* next = nullptr;
};

/// An element of an arena-parsed document: the zero-copy counterpart of
/// XmlNode. Names, attribute values and character data are
/// `std::string_view`s pointing either into the *input buffer* (the
/// common case: no entities, one contiguous text run) or into the
/// arena (decoded entities, concatenated mixed content). Children and
/// attributes are intrusive singly-linked lists in document order, so a
/// parse performs no allocations besides arena bumps.
///
/// Lifetime: nodes and every view they expose are valid until the
/// arena's next Reset() — and only while the input buffer outlives
/// them (see Arena's lifetime rules).
struct ArenaXmlNode {
  std::string_view name;
  /// Concatenated character data (text + CDATA) directly under this
  /// element, entity-decoded, in document order.
  std::string_view text;
  const ArenaXmlNode* first_child = nullptr;
  const ArenaXmlNode* next_sibling = nullptr;
  const ArenaXmlAttr* first_attr = nullptr;

  /// First direct child with the given element name, or nullptr.
  const ArenaXmlNode* FirstChild(std::string_view child_name) const;

  /// Attribute value by name, or nullptr.
  const std::string_view* Attribute(std::string_view attr_name) const;

  /// Trimmed text of the first child with the given name, or "" when
  /// absent — the dominant access pattern for feed fields.
  std::string_view ChildText(std::string_view child_name) const;
};

/// Arena overload of ParseXml: parses in-situ over `input` into
/// caller-owned arena storage. Accepts and rejects exactly the same
/// documents as the allocating overload and produces an equivalent
/// tree (differentially fuzz-tested); the returned node is arena-owned.
Result<const ArenaXmlNode*> ParseXml(std::string_view input,
                                     Arena* arena);

/// Escapes &, <, >, " and ' for use in text content or attribute values.
std::string XmlEscape(std::string_view text);

/// Incremental writer producing indented XML, used by the feed
/// serializers. Owns its buffer by default, or writes into a
/// caller-provided one so serialization can reuse capacity across
/// documents (the proxy hot path).
class XmlWriter {
 public:
  XmlWriter() : out_(&owned_) { Start(); }

  /// External-buffer mode: clears `*out` and writes into it. The
  /// buffer must outlive the writer; its capacity is retained.
  explicit XmlWriter(std::string* out) : out_(out) { Start(); }

  /// Fragment mode: appends to `*out` (neither cleared nor given an XML
  /// declaration) as if the elements `open`, outermost first, were
  /// already open; Close() closes them in turn. A document written in
  /// pieces this way is byte-identical to the one-writer output.
  XmlWriter(std::string* out, std::vector<std::string> open)
      : out_(out), stack_(std::move(open)) {}

  /// Opens <name attr1="v1" ...>; attributes are escaped.
  void Open(std::string_view name,
            const std::vector<std::pair<std::string, std::string>>&
                attributes = {});

  /// Writes <name>text</name> as a leaf (escaped).
  void Leaf(std::string_view name, std::string_view text);

  /// Closes the most recently opened element.
  void Close();

  /// The document so far; valid once all elements are closed.
  const std::string& str() const { return *out_; }

 private:
  void Start() {
    out_->clear();
    *out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  }
  void Indent();

  std::string owned_;
  std::string* out_;
  std::vector<std::string> stack_;
};

}  // namespace pullmon

#endif  // PULLMON_FEEDS_XML_H_
