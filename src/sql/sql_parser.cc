#include "sql/sql_parser.h"

#include <charconv>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace sqleq {
namespace sql {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const {
    size_t i = i_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[i_ < tokens_.size() - 1 ? i_++ : i_]; }
  bool At(TokenKind k) const { return Peek().kind == k; }
  bool AtKeyword(std::string_view kw) const {
    return At(TokenKind::kIdent) && EqualsIgnoreCase(Peek().text, kw);
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) return false;
    Next();
    return true;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::InvalidArgument("expected " + std::string(kw) + " near offset " +
                                     std::to_string(Peek().pos));
    }
    return Status::OK();
  }
  Status Expect(TokenKind k, std::string_view what) {
    if (!At(k)) {
      return Status::InvalidArgument("expected " + std::string(what) + " near offset " +
                                     std::to_string(Peek().pos));
    }
    Next();
    return Status::OK();
  }

  Result<std::string> ExpectIdent(std::string_view what) {
    if (!At(TokenKind::kIdent)) {
      return Status::InvalidArgument("expected " + std::string(what) + " near offset " +
                                     std::to_string(Peek().pos));
    }
    return std::string(Next().text);
  }

  Result<ColumnRef> ParseColumnRef() {
    SQLEQ_ASSIGN_OR_RETURN(std::string first, ExpectIdent("a column reference"));
    ColumnRef ref;
    if (At(TokenKind::kDot)) {
      Next();
      SQLEQ_ASSIGN_OR_RETURN(std::string col, ExpectIdent("a column name"));
      ref.qualifier = first;
      ref.column = col;
    } else {
      ref.column = first;
    }
    return ref;
  }

  Result<Literal> ParseLiteral() {
    if (At(TokenKind::kNumber)) {
      const Token& t = Next();
      int64_t v = 0;
      auto [end, ec] = std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
      if (ec != std::errc() || end != t.text.data() + t.text.size()) {
        return Status::InvalidArgument("integer literal out of range near offset " +
                                       std::to_string(t.pos));
      }
      return Literal{Value(v)};
    }
    if (At(TokenKind::kString)) {
      return Literal{Value(std::string(Next().text))};
    }
    return Status::InvalidArgument("expected a literal near offset " +
                                   std::to_string(Peek().pos));
  }

  bool AtLiteral() const {
    return At(TokenKind::kNumber) || At(TokenKind::kString);
  }

  bool AtAggregateCall() const {
    if (!At(TokenKind::kIdent) || Peek(1).kind != TokenKind::kLParen) return false;
    std::string_view f = Peek().text;
    return EqualsIgnoreCase(f, "SUM") || EqualsIgnoreCase(f, "COUNT") ||
           EqualsIgnoreCase(f, "MAX") || EqualsIgnoreCase(f, "MIN");
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (AtAggregateCall()) {
      item.kind = SelectItem::Kind::kAggregate;
      item.aggregate_function = ToUpper(Next().text);
      SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (At(TokenKind::kStar)) {
        if (item.aggregate_function != "COUNT") {
          return Status::InvalidArgument("only COUNT may take '*'");
        }
        Next();
        item.kind = SelectItem::Kind::kCountStar;
      } else {
        SQLEQ_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
      }
      SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    } else if (AtLiteral()) {
      item.kind = SelectItem::Kind::kLiteral;
      SQLEQ_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      item.literal = lit;
    } else {
      item.kind = SelectItem::Kind::kColumn;
      SQLEQ_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
    }
    if (ConsumeKeyword("AS")) {
      SQLEQ_ASSIGN_OR_RETURN(item.output_alias, ExpectIdent("an output alias"));
    }
    return item;
  }

  /// table_ref := IDENT [AS alias | alias]
  Status ParseTableRef(SelectStatement* stmt) {
    TableRef ref;
    SQLEQ_ASSIGN_OR_RETURN(ref.table, ExpectIdent("a table name"));
    if (ConsumeKeyword("AS")) {
      SQLEQ_ASSIGN_OR_RETURN(ref.alias, ExpectIdent("a table alias"));
    } else if (At(TokenKind::kIdent) && !AtKeyword("WHERE") && !AtKeyword("GROUP") &&
               !AtKeyword("JOIN") && !AtKeyword("INNER") && !AtKeyword("ON")) {
      ref.alias = std::string(Next().text);
    } else {
      ref.alias = ref.table;
    }
    stmt->from.push_back(std::move(ref));
    return Status::OK();
  }

  /// equality_chain := cond (AND cond)*; appended to stmt->where.
  Status ParseEqualityChain(SelectStatement* stmt) {
    while (true) {
      EqualityCondition cond;
      if (AtLiteral()) {
        SQLEQ_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        cond.lhs = lit;
      } else {
        SQLEQ_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        cond.lhs = ref;
      }
      SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kEquals, "'='"));
      if (AtLiteral()) {
        SQLEQ_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        cond.rhs = lit;
      } else {
        SQLEQ_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        cond.rhs = ref;
      }
      stmt->where.push_back(std::move(cond));
      if (ConsumeKeyword("AND")) continue;
      break;
    }
    return Status::OK();
  }

  Result<SelectStatement> ParseSelectBody() {
    SelectStatement stmt;
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (ConsumeKeyword("DISTINCT")) stmt.distinct = true;
    if (At(TokenKind::kStar)) {
      Next();
      stmt.select_star = true;
    } else {
      while (true) {
        SQLEQ_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
        stmt.items.push_back(std::move(item));
        if (At(TokenKind::kComma)) {
          Next();
          continue;
        }
        break;
      }
    }
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    while (true) {
      SQLEQ_RETURN_IF_ERROR(ParseTableRef(&stmt));
      // Explicit join syntax: [INNER] JOIN <table> ON <equality chain>.
      // The ON conditions land in the WHERE conjunction — identical
      // semantics for the inner-join fragment.
      while (AtKeyword("JOIN") || AtKeyword("INNER")) {
        if (ConsumeKeyword("INNER")) {
          SQLEQ_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        } else {
          SQLEQ_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        }
        SQLEQ_RETURN_IF_ERROR(ParseTableRef(&stmt));
        SQLEQ_RETURN_IF_ERROR(ExpectKeyword("ON"));
        SQLEQ_RETURN_IF_ERROR(ParseEqualityChain(&stmt));
      }
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    if (ConsumeKeyword("WHERE")) {
      SQLEQ_RETURN_IF_ERROR(ParseEqualityChain(&stmt));
    }
    if (ConsumeKeyword("GROUP")) {
      SQLEQ_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        SQLEQ_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
        stmt.group_by.push_back(std::move(ref));
        if (At(TokenKind::kComma)) {
          Next();
          continue;
        }
        break;
      }
    }
    return stmt;
  }

  Result<CreateTableStatement> ParseCreateTableBody() {
    CreateTableStatement stmt;
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    SQLEQ_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("a table name"));
    SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    while (true) {
      if (AtKeyword("PRIMARY") || AtKeyword("UNIQUE") || AtKeyword("FOREIGN")) {
        SQLEQ_ASSIGN_OR_RETURN(TableConstraint c, ParseTableConstraint());
        stmt.constraints.push_back(std::move(c));
      } else {
        ColumnDef col;
        SQLEQ_ASSIGN_OR_RETURN(col.name, ExpectIdent("a column name"));
        SQLEQ_ASSIGN_OR_RETURN(col.type, ExpectIdent("a column type"));
        // Optional VARCHAR(n)-style type argument.
        if (At(TokenKind::kLParen)) {
          Next();
          SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kNumber, "a type length"));
          SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        }
        while (true) {
          if (ConsumeKeyword("PRIMARY")) {
            SQLEQ_RETURN_IF_ERROR(ExpectKeyword("KEY"));
            col.primary_key = true;
          } else if (ConsumeKeyword("UNIQUE")) {
            col.unique = true;
          } else if (ConsumeKeyword("NOT")) {
            SQLEQ_RETURN_IF_ERROR(ExpectKeyword("NULL"));  // accepted, no-op
          } else {
            break;
          }
        }
        stmt.columns.push_back(std::move(col));
      }
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return stmt;
  }

  Result<TableConstraint> ParseTableConstraint() {
    TableConstraint c;
    if (ConsumeKeyword("PRIMARY")) {
      SQLEQ_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      c.kind = TableConstraint::Kind::kPrimaryKey;
      SQLEQ_ASSIGN_OR_RETURN(c.columns, ParseColumnNameList());
      return c;
    }
    if (ConsumeKeyword("UNIQUE")) {
      c.kind = TableConstraint::Kind::kUnique;
      SQLEQ_ASSIGN_OR_RETURN(c.columns, ParseColumnNameList());
      return c;
    }
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("FOREIGN"));
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("KEY"));
    c.kind = TableConstraint::Kind::kForeignKey;
    SQLEQ_ASSIGN_OR_RETURN(c.columns, ParseColumnNameList());
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("REFERENCES"));
    SQLEQ_ASSIGN_OR_RETURN(c.ref_table, ExpectIdent("a referenced table"));
    SQLEQ_ASSIGN_OR_RETURN(c.ref_columns, ParseColumnNameList());
    return c;
  }

  Result<std::vector<std::string>> ParseColumnNameList() {
    SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::vector<std::string> cols;
    while (true) {
      SQLEQ_ASSIGN_OR_RETURN(std::string col, ExpectIdent("a column name"));
      cols.push_back(std::move(col));
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return cols;
  }

  Result<InsertStatement> ParseInsertBody() {
    InsertStatement stmt;
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    SQLEQ_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("a table name"));
    SQLEQ_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      std::vector<Literal> row;
      while (true) {
        SQLEQ_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        row.push_back(std::move(lit));
        if (At(TokenKind::kComma)) {
          Next();
          continue;
        }
        break;
      }
      SQLEQ_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      stmt.rows.push_back(std::move(row));
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    return stmt;
  }

  Status FinishStatement() {
    if (At(TokenKind::kSemicolon)) Next();
    if (!At(TokenKind::kEnd)) {
      return Status::InvalidArgument("trailing input near offset " +
                                     std::to_string(Peek().pos));
    }
    return Status::OK();
  }

  size_t i_ = 0;
  std::vector<Token> tokens_;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser p(std::move(tokens));
  if (p.AtKeyword("CREATE")) {
    SQLEQ_ASSIGN_OR_RETURN(CreateTableStatement stmt, p.ParseCreateTableBody());
    SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
    return Statement(std::move(stmt));
  }
  if (p.AtKeyword("INSERT")) {
    SQLEQ_ASSIGN_OR_RETURN(InsertStatement stmt, p.ParseInsertBody());
    SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
    return Statement(std::move(stmt));
  }
  SQLEQ_ASSIGN_OR_RETURN(SelectStatement stmt, p.ParseSelectBody());
  SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
  return Statement(std::move(stmt));
}

Result<SelectStatement> ParseSelect(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(SelectStatement stmt, p.ParseSelectBody());
  SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
  return stmt;
}

Result<CreateTableStatement> ParseCreateTable(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(CreateTableStatement stmt, p.ParseCreateTableBody());
  SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
  return stmt;
}

Result<InsertStatement> ParseInsert(std::string_view text) {
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser p(std::move(tokens));
  SQLEQ_ASSIGN_OR_RETURN(InsertStatement stmt, p.ParseInsertBody());
  SQLEQ_RETURN_IF_ERROR(p.FinishStatement());
  return stmt;
}

Result<std::vector<Statement>> ParseScript(std::string_view text) {
  std::vector<Statement> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view piece = Trim(text.substr(start, end - start));
    if (!piece.empty()) {
      SQLEQ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(piece));
      out.push_back(std::move(stmt));
    }
    start = end + 1;
  }
  return out;
}

}  // namespace sql
}  // namespace sqleq
