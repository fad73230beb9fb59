#include "ecodb/sql/lexer.h"

#include <cctype>
#include <charconv>

#include "ecodb/util/strings.h"

namespace ecodb::sql {

bool Token::IsKeyword(const char* kw) const {
  return kind == TokenKind::kIdent && upper == kw;
}

bool Token::IsSymbol(const char* s) const {
  return kind == TokenKind::kSymbol && text == s;
}

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  auto peek = [&](size_t k) { return i + k < n ? input[i + k] : '\0'; };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.pos = i;
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      t.text = input.substr(start, i - start);
      const char* first = input.data() + start;
      const char* last = input.data() + i;
      std::from_chars_result parsed;
      if (is_double) {
        t.kind = TokenKind::kDouble;
        parsed = std::from_chars(first, last, t.dbl_value);
      } else {
        t.kind = TokenKind::kInt;
        parsed = std::from_chars(first, last, t.int_value);
      }
      if (parsed.ec != std::errc()) {
        return Status::ParseError(StrFormat(
            "numeric literal '%s' out of range at offset %zu",
            t.text.c_str(), t.pos));
      }
      out.push_back(std::move(t));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      t.kind = TokenKind::kIdent;
      t.text = input.substr(start, i - start);
      t.upper = ToUpper(t.text);
      out.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (peek(1) == '\'') {  // escaped quote
            s += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        s += input[i++];
      }
      if (!closed) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %zu", t.pos));
      }
      t.kind = TokenKind::kString;
      t.text = std::move(s);
      out.push_back(std::move(t));
      continue;
    }
    // Symbols, longest first.
    static const char* kTwoChar[] = {"<>", "!=", "<=", ">="};
    bool matched = false;
    for (const char* sym : kTwoChar) {
      if (c == sym[0] && peek(1) == sym[1]) {
        t.kind = TokenKind::kSymbol;
        t.text = sym;
        i += 2;
        out.push_back(std::move(t));
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kOneChar = "(),.*/+-=<>;";
    if (kOneChar.find(c) != std::string::npos) {
      t.kind = TokenKind::kSymbol;
      t.text = std::string(1, c);
      ++i;
      out.push_back(std::move(t));
      continue;
    }
    return Status::ParseError(
        StrFormat("unexpected character '%c' at offset %zu", c, i));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.pos = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace ecodb::sql
