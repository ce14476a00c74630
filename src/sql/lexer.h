// SQL tokenizer for the supported fragment.
#ifndef SQLEQ_SQL_LEXER_H_
#define SQLEQ_SQL_LEXER_H_

#include <string_view>
#include <vector>

#include "util/status.h"

namespace sqleq {
namespace sql {

enum class TokenKind {
  kIdent,    // unquoted identifier or keyword (case preserved; match
             // case-insensitively)
  kNumber,   // integer literal, optional leading '-'
  kString,   // 'single quoted'
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEquals,
  kStar,
  kSemicolon,
  kEnd,
};

/// `text` views the tokenized input (for kString, the characters between the
/// quotes), so tokens are valid only while that input is.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  size_t pos = 0;
};

/// Tokenizes `input`; always ends with a kEnd token on success. The tokens
/// view `input`.
Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace sql
}  // namespace sqleq

#endif  // SQLEQ_SQL_LEXER_H_
