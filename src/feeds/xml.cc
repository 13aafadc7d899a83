#include "feeds/xml.h"

#include <cstring>

#include "util/string_util.h"

namespace pullmon {

namespace {

// ---------------------------------------------------------------------
// Scanning helpers shared by the allocating and the arena parser, so
// the two accept exactly the same documents (the arena parser is
// differentially fuzz-tested against the allocating one).
// ---------------------------------------------------------------------

bool MatchAt(std::string_view input, std::size_t pos,
             std::string_view token) {
  return input.substr(pos, token.size()) == token;
}

void SkipWhitespace(std::string_view input, std::size_t* pos) {
  while (*pos < input.size() && IsAsciiSpace(input[*pos])) ++*pos;
}

bool IsNameStart(char c) { return IsAsciiAlpha(c) || c == '_' || c == ':'; }
bool IsNameChar(char c) {
  return IsNameStart(c) || IsAsciiDigit(c) || c == '-' || c == '.';
}

/// Scans an XML name at *pos; returns a view into the input.
Result<std::string_view> ScanName(std::string_view input,
                                  std::size_t* pos) {
  if (*pos >= input.size() || !IsNameStart(input[*pos])) {
    return Status::ParseError(
        StringFormat("expected XML name at offset %zu", *pos));
  }
  std::size_t start = *pos;
  while (*pos < input.size() && IsNameChar(input[*pos])) ++*pos;
  return input.substr(start, *pos - start);
}

void AppendUtf8(uint32_t code, char* buf, std::size_t* len) {
  if (code < 0x80) {
    buf[(*len)++] = static_cast<char>(code);
  } else if (code < 0x800) {
    buf[(*len)++] = static_cast<char>(0xC0 | (code >> 6));
    buf[(*len)++] = static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    buf[(*len)++] = static_cast<char>(0xE0 | (code >> 12));
    buf[(*len)++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buf[(*len)++] = static_cast<char>(0x80 | (code & 0x3F));
  } else {
    buf[(*len)++] = static_cast<char>(0xF0 | (code >> 18));
    buf[(*len)++] = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    buf[(*len)++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buf[(*len)++] = static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Decodes one entity reference starting at '&' (== input[*pos]);
/// writes the decoded bytes (at most 4) into `buf`, advances *pos past
/// the ';'.
Status DecodeEntity(std::string_view input, std::size_t* pos, char* buf,
                    std::size_t* len) {
  *len = 0;
  std::size_t end = input.find(';', *pos);
  if (end == std::string_view::npos || end - *pos > 12) {
    return Status::ParseError(
        StringFormat("unterminated entity at offset %zu", *pos));
  }
  std::string_view entity = input.substr(*pos + 1, end - *pos - 1);
  if (entity == "lt") {
    buf[(*len)++] = '<';
  } else if (entity == "gt") {
    buf[(*len)++] = '>';
  } else if (entity == "amp") {
    buf[(*len)++] = '&';
  } else if (entity == "apos") {
    buf[(*len)++] = '\'';
  } else if (entity == "quot") {
    buf[(*len)++] = '"';
  } else if (!entity.empty() && entity[0] == '#') {
    bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
    uint32_t code = 0;
    std::size_t i = hex ? 2 : 1;
    if (i >= entity.size()) {
      return Status::ParseError("empty numeric character reference");
    }
    for (; i < entity.size(); ++i) {
      char c = entity[i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (hex && c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a' + 10);
      } else if (hex && c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Status::ParseError("bad numeric character reference: " +
                                  std::string(entity));
      }
      code = code * (hex ? 16 : 10) + digit;
      if (code > 0x10FFFF) {
        return Status::ParseError("character reference out of range");
      }
    }
    AppendUtf8(code, buf, len);
  } else {
    return Status::ParseError("unknown entity: &" + std::string(entity) +
                              ";");
  }
  *pos = end + 1;
  return Status::OK();
}

// ---------------------------------------------------------------------
// Allocating recursive-descent parser (the seed implementation, now on
// the shared scanning helpers).
// ---------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<XmlNode> ParseDocument() {
    pos_ = SkipXmlMisc(input_, pos_);
    if (AtEnd()) return Status::ParseError("XML document has no root element");
    XmlNode root;
    PULLMON_RETURN_NOT_OK(ParseElement(&root));
    pos_ = SkipXmlMisc(input_, pos_);
    if (!AtEnd()) {
      return Status::ParseError("trailing content after XML root element");
    }
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) const {
    return MatchAt(input_, pos_, token);
  }
  void Advance(std::size_t count = 1) { pos_ += count; }

  Result<std::string> ParseName() {
    PULLMON_ASSIGN_OR_RETURN(std::string_view name,
                             ScanName(input_, &pos_));
    return std::string(name);
  }

  Status AppendEntity(std::string* out) {
    char buf[4];
    std::size_t len = 0;
    PULLMON_RETURN_NOT_OK(DecodeEntity(input_, &pos_, buf, &len));
    out->append(buf, len);
    return Status::OK();
  }

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Status::ParseError(
          StringFormat("expected quoted attribute value at offset %zu",
                       pos_));
    }
    char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        PULLMON_RETURN_NOT_OK(AppendEntity(&value));
      } else if (Peek() == '<') {
        return Status::ParseError("raw '<' in attribute value");
      } else {
        value.push_back(Peek());
        Advance();
      }
    }
    if (AtEnd()) return Status::ParseError("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  Status ParseElement(XmlNode* node) {
    if (AtEnd() || Peek() != '<') {
      return Status::ParseError(
          StringFormat("expected '<' at offset %zu", pos_));
    }
    Advance();
    PULLMON_ASSIGN_OR_RETURN(node->name, ParseName());
    // Attributes.
    while (true) {
      SkipWhitespace(input_, &pos_);
      if (AtEnd()) return Status::ParseError("truncated element tag");
      if (Peek() == '>' || Match("/>")) break;
      PULLMON_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace(input_, &pos_);
      if (AtEnd() || Peek() != '=') {
        return Status::ParseError("expected '=' after attribute " +
                                  attr_name);
      }
      Advance();
      SkipWhitespace(input_, &pos_);
      PULLMON_ASSIGN_OR_RETURN(std::string attr_value,
                               ParseAttributeValue());
      node->attributes.emplace_back(std::move(attr_name),
                                    std::move(attr_value));
    }
    if (Match("/>")) {
      Advance(2);
      return Status::OK();
    }
    Advance();  // '>'

    // Content: text, children, comments, CDATA.
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unexpected end inside element <" +
                                  node->name + ">");
      }
      if (Match("</")) {
        Advance(2);
        PULLMON_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != node->name) {
          return Status::ParseError("mismatched closing tag </" +
                                    close_name + "> for <" + node->name +
                                    ">");
        }
        SkipWhitespace(input_, &pos_);
        if (AtEnd() || Peek() != '>') {
          return Status::ParseError("malformed closing tag </" +
                                    close_name + ">");
        }
        Advance();
        return Status::OK();
      }
      if (Match("<!--")) {
        std::size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (Match("<![CDATA[")) {
        std::size_t end = input_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA section");
        }
        node->text.append(input_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (Match("<?")) {
        std::size_t end = input_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated processing instruction");
        }
        pos_ = end + 2;
        continue;
      }
      if (Peek() == '<') {
        XmlNode child;
        PULLMON_RETURN_NOT_OK(ParseElement(&child));
        node->children.push_back(std::move(child));
        continue;
      }
      if (Peek() == '&') {
        PULLMON_RETURN_NOT_OK(AppendEntity(&node->text));
        continue;
      }
      node->text.push_back(Peek());
      Advance();
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Arena parser: same grammar, zero-copy output. Text and attribute
// values that need no decoding stay views into the input buffer; mixed
// or entity-bearing runs are assembled from arena-held chunks. Content
// is scanned a run at a time: memchr finds the next '<' and then any
// '&' before it, and markup dispatches once on the byte after the '<'.
// ---------------------------------------------------------------------

class ArenaParser {
 public:
  ArenaParser(std::string_view input, Arena* arena)
      : input_(input), arena_(arena) {}

  Result<const ArenaXmlNode*> ParseDocument() {
    pos_ = SkipXmlMisc(input_, pos_);
    if (AtEnd()) return Status::ParseError("XML document has no root element");
    ArenaXmlNode* root = arena_->New<ArenaXmlNode>();
    PULLMON_RETURN_NOT_OK(ParseElement(root));
    pos_ = SkipXmlMisc(input_, pos_);
    if (!AtEnd()) {
      return Status::ParseError("trailing content after XML root element");
    }
    return static_cast<const ArenaXmlNode*>(root);
  }

 private:
  /// A run of decoded character data; elements concatenate their runs
  /// once at close time, so a single-run text (the common feed case)
  /// ends up a direct view with no copy at all.
  struct Chunk {
    std::string_view piece;
    Chunk* next = nullptr;
  };

  /// Accumulates views/decoded runs and renders them into one view. The
  /// first piece is held inline, so a single-run text costs no arena
  /// chunk; later pieces are chained in the arena.
  class ChunkList {
   public:
    explicit ChunkList(Arena* arena) : arena_(arena) {}

    void Add(std::string_view piece) {
      if (piece.empty()) return;
      total_ += piece.size();
      if (first_.empty()) {
        first_ = piece;
        return;
      }
      Chunk* chunk = arena_->New<Chunk>();
      chunk->piece = piece;
      if (tail_ == nullptr) {
        head_ = chunk;
      } else {
        tail_->next = chunk;
      }
      tail_ = chunk;
    }

    /// Copies at most 4 decoded bytes into the arena and appends them.
    void AddDecoded(const char* buf, std::size_t len) {
      if (len == 0) return;
      Add(arena_->CopyString(std::string_view(buf, len)));
    }

    std::string_view Render() const {
      if (head_ == nullptr) return first_;
      char* out = static_cast<char*>(arena_->Allocate(total_, 1));
      std::memcpy(out, first_.data(), first_.size());
      std::size_t at = first_.size();
      for (const Chunk* chunk = head_; chunk != nullptr;
           chunk = chunk->next) {
        std::memcpy(out + at, chunk->piece.data(), chunk->piece.size());
        at += chunk->piece.size();
      }
      return std::string_view(out, total_);
    }

   private:
    Arena* arena_;
    std::string_view first_;
    Chunk* head_ = nullptr;  // the pieces after the first
    Chunk* tail_ = nullptr;
    std::size_t total_ = 0;
  };

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view token) const {
    return MatchAt(input_, pos_, token);
  }
  void Advance(std::size_t count = 1) { pos_ += count; }

  Result<std::string_view> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Status::ParseError(
          StringFormat("expected quoted attribute value at offset %zu",
                       pos_));
    }
    char quote = Peek();
    Advance();
    ChunkList value(arena_);
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        char buf[4];
        std::size_t len = 0;
        PULLMON_RETURN_NOT_OK(DecodeEntity(input_, &pos_, buf, &len));
        value.AddDecoded(buf, len);
      } else if (Peek() == '<') {
        return Status::ParseError("raw '<' in attribute value");
      } else {
        // A raw run: everything until the quote, an entity, or a '<'.
        std::size_t start = pos_;
        while (!AtEnd() && Peek() != quote && Peek() != '&' &&
               Peek() != '<') {
          Advance();
        }
        value.Add(input_.substr(start, pos_ - start));
      }
    }
    if (AtEnd()) return Status::ParseError("unterminated attribute value");
    Advance();  // closing quote
    return value.Render();
  }

  Status ParseElement(ArenaXmlNode* node) {
    if (AtEnd() || Peek() != '<') {
      return Status::ParseError(
          StringFormat("expected '<' at offset %zu", pos_));
    }
    Advance();
    PULLMON_ASSIGN_OR_RETURN(node->name, ScanName(input_, &pos_));
    // Attributes.
    ArenaXmlAttr* last_attr = nullptr;
    while (true) {
      SkipWhitespace(input_, &pos_);
      if (AtEnd()) return Status::ParseError("truncated element tag");
      if (Peek() == '>' || Match("/>")) break;
      PULLMON_ASSIGN_OR_RETURN(std::string_view attr_name,
                               ScanName(input_, &pos_));
      SkipWhitespace(input_, &pos_);
      if (AtEnd() || Peek() != '=') {
        return Status::ParseError("expected '=' after attribute " +
                                  std::string(attr_name));
      }
      Advance();
      SkipWhitespace(input_, &pos_);
      PULLMON_ASSIGN_OR_RETURN(std::string_view attr_value,
                               ParseAttributeValue());
      ArenaXmlAttr* attr = arena_->New<ArenaXmlAttr>();
      attr->name = attr_name;
      attr->value = attr_value;
      if (last_attr == nullptr) {
        node->first_attr = attr;
      } else {
        last_attr->next = attr;
      }
      last_attr = attr;
    }
    if (Match("/>")) {
      Advance(2);
      return Status::OK();
    }
    Advance();  // '>'

    // Content: text, children, comments, CDATA.
    ChunkList text(arena_);
    ArenaXmlNode* last_child = nullptr;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unexpected end inside element <" +
                                  std::string(node->name) + ">");
      }
      if (Peek() != '<') {
        PULLMON_RETURN_NOT_OK(ScanText(&text));
        continue;
      }
      // Dispatch on the byte after '<'. A "<!" that opens neither a
      // comment nor CDATA, and a '<' that ends the input, take the
      // child path and fail in ScanName.
      char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
      if (next == '/') {
        Advance(2);
        PULLMON_ASSIGN_OR_RETURN(std::string_view close_name,
                                 ScanName(input_, &pos_));
        if (close_name != node->name) {
          return Status::ParseError("mismatched closing tag </" +
                                    std::string(close_name) + "> for <" +
                                    std::string(node->name) + ">");
        }
        SkipWhitespace(input_, &pos_);
        if (AtEnd() || Peek() != '>') {
          return Status::ParseError("malformed closing tag </" +
                                    std::string(close_name) + ">");
        }
        Advance();
        node->text = text.Render();
        return Status::OK();
      }
      if (next == '!' && Match("<!--")) {
        std::size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (next == '!' && Match("<![CDATA[")) {
        std::size_t end = input_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA section");
        }
        text.Add(input_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (next == '?') {
        std::size_t end = input_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated processing instruction");
        }
        pos_ = end + 2;
        continue;
      }
      ArenaXmlNode* child = arena_->New<ArenaXmlNode>();
      PULLMON_RETURN_NOT_OK(ParseElement(child));
      if (last_child == nullptr) {
        node->first_child = child;
      } else {
        last_child->next_sibling = child;
      }
      last_child = child;
    }
  }

  /// Offset of the first `c` in [pos_, end), or `end` if there is none.
  /// Requires pos_ < end.
  std::size_t Find(char c, std::size_t end) const {
    const char* data = input_.data();
    const void* hit = std::memchr(data + pos_, c, end - pos_);
    return hit == nullptr
               ? end
               : static_cast<std::size_t>(static_cast<const char*>(hit) -
                                          data);
  }

  /// Character data from pos_ (not at '<') up to the next '<' or the end
  /// of the input: raw runs, each a view into the input, between decoded
  /// entity references.
  Status ScanText(ChunkList* text) {
    std::size_t end = Find('<', input_.size());
    while (pos_ < end) {
      if (Peek() == '&') {
        // Never passes `end`: no entity name holds a '<'.
        char buf[4];
        std::size_t len = 0;
        PULLMON_RETURN_NOT_OK(DecodeEntity(input_, &pos_, buf, &len));
        text->AddDecoded(buf, len);
        continue;
      }
      std::size_t run_end = Find('&', end);
      text->Add(input_.substr(pos_, run_end - pos_));
      pos_ = run_end;
    }
    return Status::OK();
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  Arena* arena_;
};

}  // namespace

std::size_t SkipXmlMisc(std::string_view input, std::size_t pos) {
  while (true) {
    SkipWhitespace(input, &pos);
    if (MatchAt(input, pos, "<!--")) {
      std::size_t end = input.find("-->", pos + 4);
      pos = end == std::string_view::npos ? input.size() : end + 3;
      continue;
    }
    if (MatchAt(input, pos, "<?")) {
      std::size_t end = input.find("?>", pos + 2);
      pos = end == std::string_view::npos ? input.size() : end + 2;
      continue;
    }
    if (MatchAt(input, pos, "<!DOCTYPE")) {
      std::size_t end = input.find('>', pos);
      pos = end == std::string_view::npos ? input.size() : end + 1;
      continue;
    }
    return pos;
  }
}

const XmlNode* XmlNode::FirstChild(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::Children(
    std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& child : children) {
    if (child.name == child_name) out.push_back(&child);
  }
  return out;
}

const std::string* XmlNode::Attribute(std::string_view attr_name) const {
  for (const auto& [name, value] : attributes) {
    if (name == attr_name) return &value;
  }
  return nullptr;
}

std::string XmlNode::ChildText(std::string_view child_name) const {
  const XmlNode* child = FirstChild(child_name);
  return child == nullptr ? std::string()
                          : std::string(Trim(child->text));
}

const ArenaXmlNode* ArenaXmlNode::FirstChild(
    std::string_view child_name) const {
  for (const ArenaXmlNode* child = first_child; child != nullptr;
       child = child->next_sibling) {
    if (child->name == child_name) return child;
  }
  return nullptr;
}

const std::string_view* ArenaXmlNode::Attribute(
    std::string_view attr_name) const {
  for (const ArenaXmlAttr* attr = first_attr; attr != nullptr;
       attr = attr->next) {
    if (attr->name == attr_name) return &attr->value;
  }
  return nullptr;
}

std::string_view ArenaXmlNode::ChildText(
    std::string_view child_name) const {
  const ArenaXmlNode* child = FirstChild(child_name);
  return child == nullptr ? std::string_view() : Trim(child->text);
}

Result<XmlNode> ParseXml(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

Result<const ArenaXmlNode*> ParseXml(std::string_view input,
                                     Arena* arena) {
  ArenaParser parser(input, arena);
  return parser.ParseDocument();
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
        break;
    }
  }
  return out;
}

void XmlWriter::Indent() {
  for (std::size_t i = 0; i < stack_.size(); ++i) *out_ += "  ";
}

void XmlWriter::Open(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  Indent();
  *out_ += "<";
  out_->append(name);
  for (const auto& [attr, value] : attributes) {
    *out_ += " " + attr + "=\"" + XmlEscape(value) + "\"";
  }
  *out_ += ">\n";
  stack_.emplace_back(name);
}

void XmlWriter::Leaf(std::string_view name, std::string_view text) {
  Indent();
  *out_ += "<";
  out_->append(name);
  *out_ += ">";
  *out_ += XmlEscape(text);
  *out_ += "</";
  out_->append(name);
  *out_ += ">\n";
}

void XmlWriter::Close() {
  if (stack_.empty()) return;
  std::string name = stack_.back();
  stack_.pop_back();
  Indent();
  *out_ += "</" + name + ">\n";
}

}  // namespace pullmon
