#include "sql/lexer.h"

#include <cctype>

namespace sqleq {
namespace sql {

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> out;
  out.reserve(input.size() / 4 + 1);
  size_t i = 0;
  while (true) {
    while (i < input.size() && std::isspace(static_cast<unsigned char>(input[i]))) ++i;
    size_t pos = i;
    if (i >= input.size()) {
      out.push_back({TokenKind::kEnd, {}, pos});
      return out;
    }
    char c = input[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < input.size() && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                                  input[i] == '_')) {
        ++i;
      }
      out.push_back({TokenKind::kIdent, input.substr(start, i - start), pos});
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < input.size() &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < input.size() && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      out.push_back({TokenKind::kNumber, input.substr(start, i - start), pos});
    } else if (c == '\'') {
      ++i;
      size_t start = i;
      while (i < input.size() && input[i] != '\'') ++i;
      if (i >= input.size()) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(pos));
      }
      out.push_back({TokenKind::kString, input.substr(start, i - start), pos});
      ++i;
    } else {
      TokenKind kind;
      switch (c) {
        case '(':
          kind = TokenKind::kLParen;
          break;
        case ')':
          kind = TokenKind::kRParen;
          break;
        case ',':
          kind = TokenKind::kComma;
          break;
        case '.':
          kind = TokenKind::kDot;
          break;
        case '=':
          kind = TokenKind::kEquals;
          break;
        case '*':
          kind = TokenKind::kStar;
          break;
        case ';':
          kind = TokenKind::kSemicolon;
          break;
        default:
          return Status::InvalidArgument(std::string("unexpected character '") + c +
                                         "' at offset " + std::to_string(pos));
      }
      out.push_back({kind, input.substr(i, 1), pos});
      ++i;
    }
  }
}

}  // namespace sql
}  // namespace sqleq
