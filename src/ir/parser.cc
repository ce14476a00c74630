#include "ir/parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <string>

#include "util/string_util.h"

namespace sqleq {
namespace {

enum class TokKind {
  kIdent,
  kNumber,
  kString,
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kColonDash,  // :-
  kArrow,      // ->
  kEquals,
  kColon,
  kStar,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      size_t pos = i_;
      if (i_ >= input_.size()) {
        out.push_back({TokKind::kEnd, "", pos});
        return out;
      }
      char c = input_[i_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i_;
        while (i_ < input_.size() && (std::isalnum(static_cast<unsigned char>(input_[i_])) ||
                                      input_[i_] == '_' || input_[i_] == '#')) {
          ++i_;
        }
        out.push_back({TokKind::kIdent, std::string(input_.substr(start, i_ - start)), pos});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && i_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[i_ + 1])))) {
        size_t start = i_;
        if (c == '-') ++i_;
        while (i_ < input_.size() && std::isdigit(static_cast<unsigned char>(input_[i_]))) {
          ++i_;
        }
        out.push_back({TokKind::kNumber, std::string(input_.substr(start, i_ - start)), pos});
      } else if (c == '\'') {
        ++i_;
        size_t start = i_;
        while (i_ < input_.size() && input_[i_] != '\'') ++i_;
        if (i_ >= input_.size()) {
          return Status::InvalidArgument("unterminated string literal at offset " +
                                         std::to_string(pos));
        }
        out.push_back({TokKind::kString, std::string(input_.substr(start, i_ - start)), pos});
        ++i_;
      } else if (c == '(') {
        ++i_;
        out.push_back({TokKind::kLParen, "(", pos});
      } else if (c == ')') {
        ++i_;
        out.push_back({TokKind::kRParen, ")", pos});
      } else if (c == ',') {
        ++i_;
        out.push_back({TokKind::kComma, ",", pos});
      } else if (c == '.') {
        ++i_;
        out.push_back({TokKind::kPeriod, ".", pos});
      } else if (c == '*') {
        ++i_;
        out.push_back({TokKind::kStar, "*", pos});
      } else if (c == '=') {
        ++i_;
        out.push_back({TokKind::kEquals, "=", pos});
      } else if (c == ':') {
        if (i_ + 1 < input_.size() && input_[i_ + 1] == '-') {
          i_ += 2;
          out.push_back({TokKind::kColonDash, ":-", pos});
        } else {
          ++i_;
          out.push_back({TokKind::kColon, ":", pos});
        }
      } else if (c == '-') {
        if (i_ + 1 < input_.size() && input_[i_ + 1] == '>') {
          i_ += 2;
          out.push_back({TokKind::kArrow, "->", pos});
        } else {
          return Status::InvalidArgument("unexpected '-' at offset " + std::to_string(pos));
        }
      } else {
        return Status::InvalidArgument(std::string("unexpected character '") + c +
                                       "' at offset " + std::to_string(pos));
      }
    }
  }

 private:
  void SkipSpace() {
    while (i_ < input_.size() && std::isspace(static_cast<unsigned char>(input_[i_]))) ++i_;
  }

  std::string_view input_;
  size_t i_ = 0;
};

bool IsVariableName(const std::string& ident) {
  return !ident.empty() && (std::isupper(static_cast<unsigned char>(ident[0])) ||
                            ident[0] == '_');
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[i_]; }
  const Token& Next() { return tokens_[i_++]; }
  bool At(TokKind k) const { return Peek().kind == k; }

  bool AtKeyword(std::string_view kw) const {
    return At(TokKind::kIdent) && EqualsIgnoreCase(Peek().text, kw);
  }

  Status Expect(TokKind k, std::string_view what) {
    if (!At(k)) {
      return Status::InvalidArgument("expected " + std::string(what) + " near offset " +
                                     std::to_string(Peek().pos));
    }
    Next();
    return Status::OK();
  }

  /// term := IDENT | NUMBER | STRING
  Result<Term> ParseOneTerm() {
    const Token& t = Peek();
    if (t.kind == TokKind::kIdent) {
      Next();
      if (IsVariableName(t.text)) return Term::Var(t.text);
      return Term::Str(t.text);
    }
    if (t.kind == TokKind::kNumber) {
      Next();
      int64_t v = 0;
      auto [end, ec] = std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
      if (ec != std::errc() || end != t.text.data() + t.text.size()) {
        return Status::InvalidArgument("integer literal out of range near offset " +
                                       std::to_string(t.pos));
      }
      return Term::Int(v);
    }
    if (t.kind == TokKind::kString) {
      Next();
      return Term::Str(t.text);
    }
    return Status::InvalidArgument("expected a term near offset " + std::to_string(t.pos));
  }

  /// atom := IDENT '(' term (',' term)* ')'
  Result<Atom> ParseOneAtom() {
    if (!At(TokKind::kIdent)) {
      return Status::InvalidArgument("expected a predicate name near offset " +
                                     std::to_string(Peek().pos));
    }
    std::string pred = Next().text;
    SQLEQ_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    std::vector<Term> args;
    while (true) {
      SQLEQ_ASSIGN_OR_RETURN(Term t, ParseOneTerm());
      args.push_back(t);
      if (At(TokKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    SQLEQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return Atom(std::move(pred), std::move(args));
  }

  /// Skips an optional "EXISTS V1, V2, ... :" or "EXISTS V1 V2" prefix.
  Status SkipExistsPrefix() {
    if (!AtKeyword("EXISTS")) return Status::OK();
    Next();
    bool saw_var = false;
    while (At(TokKind::kIdent) && IsVariableName(Peek().text)) {
      Next();
      saw_var = true;
      if (At(TokKind::kComma)) Next();
    }
    if (!saw_var) {
      return Status::InvalidArgument("EXISTS must be followed by variables");
    }
    if (At(TokKind::kColon)) Next();
    return Status::OK();
  }

  /// conjunction := atom ((',' | AND) atom)*
  Result<std::vector<Atom>> ParseConjunction() {
    std::vector<Atom> atoms;
    while (true) {
      SQLEQ_ASSIGN_OR_RETURN(Atom a, ParseOneAtom());
      atoms.push_back(std::move(a));
      if (At(TokKind::kComma) || AtKeyword("AND")) {
        Next();
        continue;
      }
      break;
    }
    return atoms;
  }

  size_t i_ = 0;
  std::vector<Token> tokens_;
};

struct HeadItem {
  // Either a plain term, or an aggregate term alpha(Y) / count(*).
  std::optional<Term> term;
  std::optional<AggregateFunction> agg;
  std::optional<Term> agg_arg;
};

Result<std::optional<AggregateFunction>> AggregateFromName(const std::string& name) {
  if (EqualsIgnoreCase(name, "sum")) return std::optional(AggregateFunction::kSum);
  if (EqualsIgnoreCase(name, "count")) return std::optional(AggregateFunction::kCount);
  if (EqualsIgnoreCase(name, "max")) return std::optional(AggregateFunction::kMax);
  if (EqualsIgnoreCase(name, "min")) return std::optional(AggregateFunction::kMin);
  return std::optional<AggregateFunction>();
}

/// head := IDENT '(' head_item (',' head_item)* ')'
/// head_item := term | aggfn '(' term ')' | count '(' '*' ')'
Result<std::pair<std::string, std::vector<HeadItem>>> ParseHead(Parser* p) {
  if (!p->At(TokKind::kIdent)) {
    return Status::InvalidArgument("expected a query name");
  }
  std::string name = p->Next().text;
  SQLEQ_RETURN_IF_ERROR(p->Expect(TokKind::kLParen, "'(' after query name"));
  std::vector<HeadItem> items;
  while (true) {
    HeadItem item;
    if (p->At(TokKind::kIdent)) {
      std::string ident = p->Peek().text;
      SQLEQ_ASSIGN_OR_RETURN(std::optional<AggregateFunction> agg,
                             AggregateFromName(ident));
      // Lookahead: "sum(" is an aggregate term; a bare "sum" is a constant.
      if (agg.has_value() && p->tokens_[p->i_ + 1].kind == TokKind::kLParen) {
        p->Next();  // function name
        p->Next();  // '('
        if (p->At(TokKind::kStar)) {
          if (*agg != AggregateFunction::kCount) {
            return Status::InvalidArgument("only count may take '*'");
          }
          p->Next();
          item.agg = AggregateFunction::kCountStar;
        } else {
          SQLEQ_ASSIGN_OR_RETURN(Term t, p->ParseOneTerm());
          item.agg = *agg;
          item.agg_arg = t;
        }
        SQLEQ_RETURN_IF_ERROR(p->Expect(TokKind::kRParen, "')' after aggregate argument"));
        items.push_back(item);
        if (p->At(TokKind::kComma)) {
          p->Next();
          continue;
        }
        break;
      }
    }
    SQLEQ_ASSIGN_OR_RETURN(Term t, p->ParseOneTerm());
    item.term = t;
    items.push_back(item);
    if (p->At(TokKind::kComma)) {
      p->Next();
      continue;
    }
    break;
  }
  SQLEQ_RETURN_IF_ERROR(p->Expect(TokKind::kRParen, "')' after query head"));
  return std::make_pair(std::move(name), std::move(items));
}

Status FinishStatement(Parser* p) {
  if (p->At(TokKind::kPeriod)) p->Next();
  if (!p->At(TokKind::kEnd)) {
    return Status::InvalidArgument("trailing input near offset " +
                                   std::to_string(p->Peek().pos));
  }
  return Status::OK();
}

}  // namespace

Result<ParsedQueryParts> ParseQueryParts(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(auto head, ParseHead(&p));
  ParsedQueryParts parts;
  parts.name = std::move(head.first);
  for (const HeadItem& item : head.second) {
    if (item.agg.has_value()) {
      return Status::InvalidArgument(
          "aggregate term in a plain CQ head; use ParseAggregateQuery");
    }
    parts.head.push_back(*item.term);
  }
  SQLEQ_RETURN_IF_ERROR(p.Expect(TokKind::kColonDash, "':-'"));
  SQLEQ_ASSIGN_OR_RETURN(parts.body, p.ParseConjunction());
  SQLEQ_RETURN_IF_ERROR(FinishStatement(&p));
  return parts;
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(ParsedQueryParts parts, ParseQueryParts(text));
  return ConjunctiveQuery::Create(std::move(parts.name), std::move(parts.head),
                                  std::move(parts.body));
}

Result<AggregateQuery> ParseAggregateQuery(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(auto head, ParseHead(&p));
  std::vector<Term> grouping;
  std::optional<AggregateFunction> fn;
  std::optional<Term> agg_arg;
  for (size_t i = 0; i < head.second.size(); ++i) {
    const HeadItem& item = head.second[i];
    if (item.agg.has_value()) {
      if (i + 1 != head.second.size()) {
        return Status::InvalidArgument("the aggregate term must be last in the head");
      }
      fn = item.agg;
      agg_arg = item.agg_arg;
    } else {
      grouping.push_back(*item.term);
    }
  }
  if (!fn.has_value()) {
    return Status::InvalidArgument("aggregate query must have exactly one aggregate term");
  }
  SQLEQ_RETURN_IF_ERROR(p.Expect(TokKind::kColonDash, "':-'"));
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Atom> body, p.ParseConjunction());
  SQLEQ_RETURN_IF_ERROR(FinishStatement(&p));
  return AggregateQuery::Create(std::move(head.first), std::move(grouping), *fn, agg_arg,
                                std::move(body));
}

Result<ParsedDependency> ParseDependencyText(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  Parser p(std::move(tokens));
  ParsedDependency dep;
  SQLEQ_ASSIGN_OR_RETURN(dep.body, p.ParseConjunction());
  SQLEQ_RETURN_IF_ERROR(p.Expect(TokKind::kArrow, "'->'"));
  SQLEQ_RETURN_IF_ERROR(p.SkipExistsPrefix());
  // The conclusion is either equations (egd) or atoms (tgd). Disambiguate by
  // looking for '=' after the first item.
  while (true) {
    // Try an equation first: term '=' term.
    size_t save = p.i_;
    bool parsed_equation = false;
    {
      Result<Term> lhs = p.ParseOneTerm();
      if (lhs.ok() && p.At(TokKind::kEquals)) {
        p.Next();
        SQLEQ_ASSIGN_OR_RETURN(Term rhs, p.ParseOneTerm());
        dep.equations.emplace_back(*lhs, rhs);
        parsed_equation = true;
      } else {
        p.i_ = save;
      }
    }
    if (!parsed_equation) {
      SQLEQ_ASSIGN_OR_RETURN(Atom a, p.ParseOneAtom());
      dep.head_atoms.push_back(std::move(a));
    }
    if (p.At(TokKind::kComma) || p.AtKeyword("AND")) {
      p.Next();
      continue;
    }
    break;
  }
  if (!dep.equations.empty() && !dep.head_atoms.empty()) {
    return Status::InvalidArgument(
        "dependency conclusion mixes atoms and equations; split Σ into tgds and egds");
  }
  SQLEQ_RETURN_IF_ERROR(FinishStatement(&p));
  return dep;
}

Result<std::vector<Atom>> ParseAtoms(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Atom> atoms, p.ParseConjunction());
  SQLEQ_RETURN_IF_ERROR(FinishStatement(&p));
  return atoms;
}

Result<Term> ParseTerm(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(Term t, p.ParseOneTerm());
  SQLEQ_RETURN_IF_ERROR(FinishStatement(&p));
  return t;
}

}  // namespace sqleq
