//===- Xml.cpp - Minimal XML parser ----------------------------*- C++ -*-===//

#include "xml/Xml.h"

#include "support/CharClass.h"

using namespace gator;
using namespace gator::xml;

const std::string *XmlNode::findAttr(std::string_view Name) const {
  for (const XmlAttr &A : Attrs)
    if (A.Name == Name)
      return &A.Value;
  return nullptr;
}

namespace {

/// Recursive-descent XML reader over a flat character buffer.
class Parser {
public:
  Parser(std::string_view Input, std::string_view FileName,
         DiagnosticEngine &Diags)
      : Input(Input), File(SourceLocation::internFile(FileName)),
        Diags(Diags) {}

  std::unique_ptr<XmlNode> parseDocument() {
    skipMisc();
    if (atEnd()) {
      error("empty document");
      return nullptr;
    }
    std::unique_ptr<XmlNode> Root = parseElement();
    if (!Root)
      return nullptr;
    skipMisc();
    if (!atEnd())
      error("trailing content after root element");
    return Root;
  }

private:
  bool atEnd() const { return Pos >= Input.size(); }
  char peek() const { return atEnd() ? '\0' : Input[Pos]; }
  char peekAt(size_t Offset) const {
    return Pos + Offset >= Input.size() ? '\0' : Input[Pos + Offset];
  }

  char advance() {
    char C = Input[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  SourceLocation here() const { return SourceLocation(File, Line, Col); }

  void error(const std::string &Message) { Diags.error(here(), Message); }

  bool startsWith(std::string_view Prefix) const {
    return Input.substr(Pos, Prefix.size()) == Prefix;
  }

  void skipN(size_t N) {
    for (size_t I = 0; I < N && !atEnd(); ++I)
      advance();
  }

  void skipWhitespace() {
    while (!atEnd() && charclass::isSpace(peek()))
      advance();
  }

  /// Skips whitespace, comments, and processing instructions / prolog.
  void skipMisc() {
    for (;;) {
      skipWhitespace();
      if (startsWith("<!--")) {
        skipN(4);
        while (!atEnd() && !startsWith("-->"))
          advance();
        if (atEnd()) {
          error("unterminated comment");
          return;
        }
        skipN(3);
        continue;
      }
      if (startsWith("<?")) {
        skipN(2);
        while (!atEnd() && !startsWith("?>"))
          advance();
        if (atEnd()) {
          error("unterminated processing instruction");
          return;
        }
        skipN(2);
        continue;
      }
      return;
    }
  }

  static bool isNameChar(char C) {
    return charclass::isAlnum(C) || C == '_' || C == '-' || C == '.' ||
           C == ':';
  }

  std::string parseName() {
    std::string Name;
    while (!atEnd() && isNameChar(peek()))
      Name.push_back(advance());
    return Name;
  }

  /// Parses `name="value"` or `name='value'`; true on success.
  bool parseAttr(XmlNode &Node) {
    std::string Name = parseName();
    if (Name.empty()) {
      error("expected attribute name");
      return false;
    }
    skipWhitespace();
    if (peek() != '=') {
      error("expected '=' after attribute name '" + Name + "'");
      return false;
    }
    advance();
    skipWhitespace();
    char Quote = peek();
    if (Quote != '"' && Quote != '\'') {
      error("expected quoted value for attribute '" + Name + "'");
      return false;
    }
    advance();
    std::string Value;
    while (!atEnd() && peek() != Quote)
      Value.push_back(advance());
    if (atEnd()) {
      error("unterminated value for attribute '" + Name + "'");
      return false;
    }
    advance(); // closing quote
    Node.addAttr(std::move(Name), std::move(Value));
    return true;
  }

  std::unique_ptr<XmlNode> parseElement() {
    SourceLocation Loc = here();
    if (peek() != '<') {
      error("expected '<'");
      return nullptr;
    }
    advance();
    std::string Tag = parseName();
    if (Tag.empty()) {
      error("expected element name");
      return nullptr;
    }
    auto Node = std::make_unique<XmlNode>(Tag, Loc);

    for (;;) {
      skipWhitespace();
      if (atEnd()) {
        error("unterminated start tag for <" + Tag + ">");
        return nullptr;
      }
      if (startsWith("/>")) {
        skipN(2);
        return Node; // self-closing
      }
      if (peek() == '>') {
        advance();
        break;
      }
      if (!parseAttr(*Node))
        return nullptr;
    }

    // Content: children, character data, comments; until </Tag>.
    for (;;) {
      if (atEnd()) {
        error("missing closing tag for <" + Tag + ">");
        return nullptr;
      }
      if (startsWith("<!--")) {
        skipMisc();
        continue;
      }
      if (startsWith("</")) {
        skipN(2);
        std::string CloseTag = parseName();
        skipWhitespace();
        if (peek() != '>') {
          error("malformed closing tag");
          return nullptr;
        }
        advance();
        if (CloseTag != Tag) {
          error("mismatched closing tag: expected </" + Tag + ">, found </" +
                CloseTag + ">");
          return nullptr;
        }
        return Node;
      }
      if (peek() == '<') {
        std::unique_ptr<XmlNode> Child = parseElement();
        if (!Child)
          return nullptr;
        Node->addChild(std::move(Child));
        continue;
      }
      // Character data.
      std::string Chunk;
      while (!atEnd() && peek() != '<')
        Chunk.push_back(advance());
      Node->appendText(Chunk);
    }
  }

  std::string_view Input;
  SourceLocation::FileRef File;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace

std::unique_ptr<XmlNode> gator::xml::parseXml(std::string_view Input,
                                              const std::string &FileName,
                                              DiagnosticEngine &Diags) {
  return Parser(Input, FileName, Diags).parseDocument();
}
