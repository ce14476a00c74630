#include "chase/checkpoint.h"

#include <variant>

namespace sqleq {
namespace {

std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

std::string SerializeTerm(Term t) {
  if (t.IsVariable()) return "V:" + EscapeField(t.name());
  const Value& v = t.value();
  if (std::holds_alternative<int64_t>(v)) {
    return "I:" + std::to_string(std::get<int64_t>(v));
  }
  return "S:" + EscapeField(std::get<std::string>(v));
}

Result<Term> DeserializeTerm(std::string_view token) {
  if (token.size() < 2 || token[1] != ':') {
    return Status::InvalidArgument("checkpoint: malformed term token '" +
                                   std::string(token) + "'");
  }
  std::string_view payload = token.substr(2);
  switch (token[0]) {
    case 'V': {
      SQLEQ_ASSIGN_OR_RETURN(std::string name, UnescapeField(payload));
      return Term::Var(name);
    }
    case 'I': {
      int64_t value = 0;
      if (!ParseDecimal(payload, &value)) {
        return Status::InvalidArgument("checkpoint: bad integer token '" +
                                       std::string(token) + "'");
      }
      return Term::Int(value);
    }
    case 'S': {
      SQLEQ_ASSIGN_OR_RETURN(std::string s, UnescapeField(payload));
      return Term::Str(s);
    }
    default:
      return Status::InvalidArgument("checkpoint: unknown term tag '" +
                                     std::string(token) + "'");
  }
}

}  // namespace

std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      return Status::InvalidArgument("checkpoint: dangling escape");
    }
    ++i;
    switch (s[i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      default:
        return Status::InvalidArgument("checkpoint: unknown escape '\\" +
                                       std::string(1, s[i]) + "'");
    }
  }
  return out;
}

namespace {

/// Appends "\tA:<pred>\t<term>..." for each atom.
void AppendAtoms(const std::vector<Atom>& atoms, std::string* out) {
  for (const Atom& a : atoms) {
    *out += "\tA:" + EscapeField(a.predicate());
    for (Term t : a.args()) {
      *out += '\t';
      *out += SerializeTerm(t);
    }
  }
}

/// Parses the AppendAtoms fields of `fields` from index `i` to the end.
Result<std::vector<Atom>> DeserializeAtoms(const std::vector<std::string_view>& fields,
                                           size_t i) {
  std::vector<Atom> atoms;
  while (i < fields.size()) {
    if (fields[i].substr(0, 2) != "A:") {
      return Status::InvalidArgument("checkpoint: malformed atom field");
    }
    SQLEQ_ASSIGN_OR_RETURN(std::string pred, UnescapeField(fields[i].substr(2)));
    ++i;
    std::vector<Term> args;
    for (; i < fields.size() && fields[i].substr(0, 2) != "A:"; ++i) {
      SQLEQ_ASSIGN_OR_RETURN(Term t, DeserializeTerm(fields[i]));
      args.push_back(t);
    }
    atoms.emplace_back(std::move(pred), std::move(args));
  }
  return atoms;
}

}  // namespace

std::string SerializeQuery(const ConjunctiveQuery& q) {
  std::string out = "Q:" + EscapeField(q.name());
  out += "\tH";
  for (Term t : q.head()) {
    out += '\t';
    out += SerializeTerm(t);
  }
  AppendAtoms(q.body(), &out);
  return out;
}

Result<ConjunctiveQuery> DeserializeQuery(std::string_view line) {
  std::vector<std::string_view> fields = SplitTabs(line);
  if (fields.size() < 2 || fields[0].substr(0, 2) != "Q:" || fields[1] != "H") {
    return Status::InvalidArgument("checkpoint: malformed query line");
  }
  SQLEQ_ASSIGN_OR_RETURN(std::string name, UnescapeField(fields[0].substr(2)));
  std::vector<Term> head;
  size_t i = 2;
  for (; i < fields.size() && fields[i].substr(0, 2) != "A:"; ++i) {
    SQLEQ_ASSIGN_OR_RETURN(Term t, DeserializeTerm(fields[i]));
    head.push_back(t);
  }
  SQLEQ_ASSIGN_OR_RETURN(std::vector<Atom> body, DeserializeAtoms(fields, i));
  return ConjunctiveQuery::Make(std::move(name), std::move(head),
                                std::move(body));
}

std::string SerializeStepRecord(const ChaseStepRecord& record) {
  std::string out = EscapeField(record.dep_label);
  if (record.is_tgd) {
    out += "\tT";
    AppendAtoms(record.added, &out);
    return out;
  }
  out += record.failure() ? "\tF\t" : "\tE\t";
  out += SerializeTerm(record.from);
  out += '\t';
  out += SerializeTerm(record.to);
  if (record.before.has_value()) {
    out += '\t';
    out += SerializeQuery(*record.before);
  }
  return out;
}

Result<ChaseStepRecord> DeserializeStepRecord(std::string_view line) {
  std::vector<std::string_view> fields = SplitTabs(line);
  auto malformed = [] {
    return Status::InvalidArgument("checkpoint: malformed trace line");
  };
  if (fields.size() < 2) return malformed();
  ChaseStepRecord record;
  SQLEQ_ASSIGN_OR_RETURN(record.dep_label, UnescapeField(fields[0]));
  if (fields[1] == "T") {
    record.is_tgd = true;
    SQLEQ_ASSIGN_OR_RETURN(record.added, DeserializeAtoms(fields, 2));
    if (record.added.empty()) return malformed();
    return record;
  }
  const bool failure = fields[1] == "F";
  if (failure ? fields.size() != 4 : fields[1] != "E" || fields.size() < 6) {
    return malformed();
  }
  SQLEQ_ASSIGN_OR_RETURN(record.from, DeserializeTerm(fields[2]));
  SQLEQ_ASSIGN_OR_RETURN(record.to, DeserializeTerm(fields[3]));
  if (!failure) {
    // The snapshot is the rest of the line from the fifth field on.
    size_t at = 0;
    for (int tabs = 0; tabs < 4; ++tabs) at = line.find('\t', at) + 1;
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery before, DeserializeQuery(line.substr(at)));
    record.before = std::move(before);
  }
  return record;
}

void AppendTraceLines(const std::vector<ChaseStepRecord>& trace, std::string* out) {
  for (const ChaseStepRecord& record : trace) {
    *out += "trace ";
    *out += SerializeStepRecord(record);
    *out += '\n';
  }
}

std::string ChaseCheckpoint::Serialize() const {
  std::string out = "sqleq-chase-checkpoint v2\n";
  out += "phase " + phase + '\n';
  out += "subject " + EscapeField(subject) + '\n';
  out += "steps " + std::to_string(steps_done) + '\n';
  out += "state " + SerializeQuery(state) + '\n';
  AppendTraceLines(trace, &out);
  out += "end\n";
  return out;
}

Status ReadKeyedLines(std::string_view text, std::string_view what,
                      std::initializer_list<KeyedField> fields) {
  auto error = [&](std::string detail) {
    return Status::InvalidArgument(std::string(what) + ": " + detail);
  };
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    if (line == "end") return Status::OK();
    size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return error("malformed line '" + std::string(line) + "'");
    }
    std::string_view key = line.substr(0, space);
    const KeyedField* field = nullptr;
    for (const KeyedField& f : fields) {
      if (f.key == key) field = &f;
    }
    if (field == nullptr) return error("unknown key '" + std::string(key) + "'");
    SQLEQ_RETURN_IF_ERROR(field->parse(line.substr(space + 1)));
  }
  return error("truncated");
}

Result<ChaseCheckpoint> ChaseCheckpoint::Deserialize(std::string_view text) {
  constexpr std::string_view kHeader = "sqleq-chase-checkpoint v2";
  size_t nl = text.find('\n');
  if (text.substr(0, nl) != kHeader) {
    return Status::InvalidArgument("checkpoint: bad header");
  }
  std::string_view rest =
      nl == std::string_view::npos ? std::string_view() : text.substr(nl + 1);
  std::string phase;
  std::string subject;
  size_t steps = 0;
  std::optional<ConjunctiveQuery> state;
  std::vector<ChaseStepRecord> trace;
  SQLEQ_RETURN_IF_ERROR(ReadKeyedLines(
      rest, "checkpoint",
      {{"phase",
        [&](std::string_view value) {
          phase = std::string(value);
          return Status::OK();
        }},
       {"subject",
        [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(subject, UnescapeField(value));
          return Status::OK();
        }},
       {"steps",
        [&](std::string_view value) {
          return ParseDecimal(value, &steps)
                     ? Status::OK()
                     : Status::InvalidArgument("checkpoint: bad step count");
        }},
       {"state",
        [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, DeserializeQuery(value));
          state = std::move(q);
          return Status::OK();
        }},
       {"trace", [&](std::string_view value) -> Status {
          SQLEQ_ASSIGN_OR_RETURN(ChaseStepRecord record, DeserializeStepRecord(value));
          trace.push_back(std::move(record));
          return Status::OK();
        }}}));
  if (!state.has_value() || phase.empty()) {
    return Status::InvalidArgument("checkpoint: truncated");
  }
  return ChaseCheckpoint{std::move(phase), std::move(subject),
                         std::move(*state), std::move(trace), steps};
}

}  // namespace sqleq
