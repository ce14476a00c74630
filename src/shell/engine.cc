#include "shell/engine.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/sigma_graph.h"
#include "cache/semantic_cache.h"
#include "cache/view_advisor.h"
#include "equivalence/engine.h"
#include "equivalence/explain.h"
#include "ir/parser.h"
#include "reformulation/candb.h"
#include "service/fleet_client.h"
#include "service/protocol.h"
#include "service/routing.h"
#include "shell/lint.h"
#include "sql/render.h"
#include "sql/sql_parser.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace sqleq {
namespace shell {
namespace {

/// First whitespace-delimited word of `s`, and the remainder.
std::pair<std::string, std::string_view> SplitKeyword(std::string_view s) {
  s = Trim(s);
  size_t i = 0;
  while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return {std::string(s.substr(0, i)), Trim(s.substr(i))};
}

Result<Semantics> SemanticsFromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "S") || EqualsIgnoreCase(name, "SET")) {
    return Semantics::kSet;
  }
  if (EqualsIgnoreCase(name, "B") || EqualsIgnoreCase(name, "BAG")) {
    return Semantics::kBag;
  }
  if (EqualsIgnoreCase(name, "BS") || EqualsIgnoreCase(name, "BAGSET")) {
    return Semantics::kBagSet;
  }
  return Status::InvalidArgument("unknown semantics '" + std::string(name) +
                                 "' (use S, B, or BS)");
}

Result<size_t> ParseCount(const std::string& word, const char* what) {
  if (word.empty()) {
    return Status::InvalidArgument(std::string("missing ") + what + " value");
  }
  size_t value = 0;
  for (char c : word) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(std::string(what) + " must be a positive integer, got '" +
                                     word + "'");
    }
    size_t digit = static_cast<size_t>(c - '0');
    if (value > (std::numeric_limits<size_t>::max() - digit) / 10) {
      return Status::InvalidArgument(std::string(what) + " value '" + word +
                                     "' overflows");
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Parses the SET RETRY growth factor: a decimal number >= 1.
Result<double> ParseGrowth(const std::string& word) {
  if (word.empty()) return Status::InvalidArgument("missing RETRY growth value");
  for (char c : word) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.') {
      return Status::InvalidArgument("RETRY growth must be a number >= 1, got '" +
                                     word + "'");
    }
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(word.c_str(), &end);
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("RETRY growth must be a number >= 1, got '" +
                                   word + "'");
  }
  if (value < 1.0) {
    return Status::InvalidArgument("RETRY growth must be >= 1, got '" + word + "'");
  }
  return value;
}

/// Renders the anytime-stop annotation for a partial result.
std::string IncompleteLine(const std::optional<ExhaustionInfo>& exhaustion) {
  return "  (incomplete: " +
         (exhaustion.has_value() ? exhaustion->ToString()
                                 : std::string("stopped early")) +
         ")\n";
}

/// Human-readable rendering of a metrics snapshot for SHOW STATS: counters
/// as `name = value`, histograms with count/mean/p95/max, in name order.
std::string RenderStats(const MetricsSnapshot& snap) {
  if (snap.counters.empty() && snap.histograms.empty()) {
    return "no stats recorded yet (run EQUIV, MINIMIZE, or REWRITE)\n";
  }
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out += name + ": count=" + std::to_string(h.count) +
           " mean=" + std::to_string(static_cast<uint64_t>(h.Mean())) +
           " p95<=" + std::to_string(h.ApproxQuantile(0.95)) +
           " max=" + std::to_string(h.max) + "\n";
  }
  return out;
}

/// The shell's client robustness defaults (docs/robustness.md): bounded
/// dialing, a few retries with backoff on overloaded/draining responses, no
/// read deadline (an expensive check may legitimately run long; the server
/// bounds it via the request budget).
service::RetryPolicy ShellRetryPolicy() {
  service::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 50;
  policy.max_backoff_ms = 1000;
  policy.connect_timeout = std::chrono::milliseconds(2000);
  return policy;
}

/// One round-trip through the CONNECT fleet client (which pools, routes,
/// follows redirects, redials dropped connections, and backs off on
/// overloaded/draining servers). A response with "ok":false becomes a
/// Status carrying the server's error code and message, so remote failures
/// read like local ones.
Result<JsonValue> RemoteCall(service::FleetClient& client, const std::string& line) {
  SQLEQ_ASSIGN_OR_RETURN(JsonValue response, client.Call(line));
  const JsonValue* ok = response.Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    return Status::Internal("malformed response from server (missing \"ok\")");
  }
  if (!ok->boolean) {
    service::DecodedResponse decoded =
        service::DecodeResponseObject(std::move(response));
    std::string code = StatusCodeToString(decoded.error_code);
    std::string message = decoded.error_message.empty()
                              ? "server reported an error"
                              : decoded.error_message;
    return Status::FailedPrecondition("remote " + code + ": " + message);
  }
  return response;
}

/// RemoteCall for a RequestSpec (the v2 single-encoder path).
Result<JsonValue> RemoteCall(service::FleetClient& client,
                             const service::RequestSpec& spec) {
  SQLEQ_ASSIGN_OR_RETURN(std::string line, service::EncodeRequest(spec));
  return RemoteCall(client, line);
}

/// The string member `key` of a remote response, or "" when absent.
std::string ResponseString(const JsonValue& response, const char* key) {
  const JsonValue* v = response.Find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string();
}

/// Reassembles the server's exhaustion object into an ExhaustionInfo so
/// remote partial results render exactly like local ones.
std::optional<ExhaustionInfo> ResponseExhaustion(const JsonValue& response) {
  const JsonValue* e = response.Find("exhaustion");
  if (e == nullptr || e->kind != JsonValue::Kind::kObject) return std::nullopt;
  ExhaustionInfo info;
  info.limit = ResponseString(*e, "limit");
  info.phase = ResponseString(*e, "phase");
  info.progress = ResponseString(*e, "progress");
  return info;
}

/// Distinct terms (variables and constants) in a query's body — the
/// `query_terms` input of TerminationCertificate::StepBound.
size_t QueryTermCount(const ConjunctiveQuery& q) {
  std::set<std::string> terms;
  for (const Atom& a : q.body()) {
    for (const Term& t : a.args()) terms.insert(t.ToString());
  }
  return terms.size();
}

/// Renders a StepBound value; the saturated cap prints symbolically.
std::string RenderBound(uint64_t bound) {
  if (bound >= TerminationCertificate::kBoundCap) {
    return ">=2^62 (finite but astronomically large)";
  }
  return std::to_string(bound);
}

/// SET BUDGET AUTO clamps the certificate bound here so a sound but
/// astronomical bound still yields a usable interactive budget.
constexpr uint64_t kAutoBudgetCap = uint64_t{1} << 20;

/// Budget fields of a check/reformulate request; the server narrows its own
/// defaults to these, so SET BUDGET applies remotely too.
void AddBudgetFields(const ResourceBudget& budget, service::RequestSpec* req) {
  req->Int("max_chase_steps", budget.max_chase_steps)
      .Int("max_candidates", budget.max_candidates);
}

}  // namespace

ScriptEngine::ScriptEngine() = default;
ScriptEngine::~ScriptEngine() = default;

EngineContext ScriptEngine::Context() {
  EngineContext ctx;
  ctx.budget = budget_;
  ctx.metrics = &metrics_;
  ctx.trace = tracing_ ? &trace_ : nullptr;
  ctx.cancel = cancel_;
  return ctx;
}

Result<NamedQuery> ScriptEngine::GetQuery(const std::string& name) const {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query '" + name + "' (define it with QUERY)");
  }
  return it->second;
}

Result<std::pair<std::vector<std::string>, std::optional<Semantics>>>
ScriptEngine::ParseArgs(std::string_view rest) const {
  std::vector<std::string> names;
  std::optional<Semantics> semantics;
  std::string_view remaining = Trim(rest);
  while (!remaining.empty()) {
    auto [word, tail] = SplitKeyword(remaining);
    if (EqualsIgnoreCase(word, "UNDER")) {
      auto [sem_name, tail2] = SplitKeyword(tail);
      SQLEQ_ASSIGN_OR_RETURN(Semantics sem, SemanticsFromName(sem_name));
      semantics = sem;
      remaining = tail2;
      continue;
    }
    names.push_back(word);
    remaining = tail;
  }
  return std::make_pair(std::move(names), semantics);
}

Result<std::string> ScriptEngine::Execute(std::string_view statement) {
  statement = Trim(statement);
  if (statement.empty()) return std::string();
  auto [keyword, rest] = SplitKeyword(statement);
  if (EqualsIgnoreCase(keyword, "CREATE")) return ExecCreate(statement);
  if (EqualsIgnoreCase(keyword, "INSERT")) return ExecInsert(statement);
  if (EqualsIgnoreCase(keyword, "DEP")) return ExecDep(rest);
  if (EqualsIgnoreCase(keyword, "VIEW")) return ExecView(rest);
  if (EqualsIgnoreCase(keyword, "QUERY")) return ExecQuery(rest);
  if (EqualsIgnoreCase(keyword, "EVAL")) return ExecEval(rest);
  if (EqualsIgnoreCase(keyword, "EQUIV")) return ExecEquiv(rest, /*explain=*/false);
  if (EqualsIgnoreCase(keyword, "EXPLAIN")) return ExecEquiv(rest, /*explain=*/true);
  if (EqualsIgnoreCase(keyword, "MINIMIZE")) return ExecMinimize(rest);
  if (EqualsIgnoreCase(keyword, "REWRITE")) return ExecRewrite(rest);
  if (EqualsIgnoreCase(keyword, "LINT")) return ExecLint(rest);
  if (EqualsIgnoreCase(keyword, "SET")) return ExecSet(rest);
  if (EqualsIgnoreCase(keyword, "SHOW")) return ExecShow(rest);
  if (EqualsIgnoreCase(keyword, "TRACE")) return ExecTrace(rest);
  if (EqualsIgnoreCase(keyword, "CONNECT")) return ExecConnect(rest);
  if (EqualsIgnoreCase(keyword, "DISCONNECT")) return ExecDisconnect(rest);
  if (EqualsIgnoreCase(keyword, "WORKLOAD")) return ExecWorkload(rest);
  if (EqualsIgnoreCase(keyword, "CACHE")) return ExecCacheStats(rest);
  if (EqualsIgnoreCase(keyword, "ADVISE")) return ExecAdvise(rest);
  return Status::InvalidArgument("unknown command '" + keyword + "'");
}

Result<std::string> ScriptEngine::Run(std::string_view script) {
  std::string stripped = StripLineComments(script);
  script = stripped;
  std::string out;
  size_t start = 0;
  while (start < script.size()) {
    size_t end = script.find(';', start);
    if (end == std::string_view::npos) end = script.size();
    std::string_view piece = Trim(script.substr(start, end - start));
    if (!piece.empty()) {
      SQLEQ_ASSIGN_OR_RETURN(std::string piece_out, Execute(piece));
      out += piece_out;
    }
    start = end + 1;
  }
  return out;
}

Result<std::string> ScriptEngine::ExecCreate(std::string_view statement) {
  SQLEQ_ASSIGN_OR_RETURN(sql::CreateTableStatement stmt,
                         sql::ParseCreateTable(statement));
  sql::Catalog updated = catalog_;
  SQLEQ_RETURN_IF_ERROR(sql::ApplyCreateTable(stmt, &updated));
  // Rebuild the instance over the widened schema, carrying data over.
  Database rebuilt(updated.schema);
  for (const RelationInfo& info : database_.schema().Relations()) {
    SQLEQ_ASSIGN_OR_RETURN(RelationInstance rel, database_.GetRelation(info.name));
    for (const auto& [tuple, count] : rel.bag().counts()) {
      SQLEQ_RETURN_IF_ERROR(rebuilt.Insert(info.name, tuple, count));
    }
  }
  std::string out = "created table " + stmt.table + "\n";
  if (remote_ != nullptr) {
    // Mirror before committing locally, so a remote failure leaves the
    // session unchanged (the connection is dropped either way).
    service::RequestSpec req("ddl");
    req.Str("script", std::string(statement));
    SQLEQ_ASSIGN_OR_RETURN(std::string line, service::EncodeRequest(req));
    SQLEQ_RETURN_IF_ERROR(MirrorToRemote(line));
    out += "  (mirrored to " + remote_name_ + ")\n";
  }
  catalog_ = std::move(updated);
  database_ = std::move(rebuilt);
  return out;
}

Result<std::string> ScriptEngine::ExecInsert(std::string_view statement) {
  SQLEQ_ASSIGN_OR_RETURN(sql::InsertStatement stmt, sql::ParseInsert(statement));
  Database staged = database_;  // failed INSERTs leave the engine unchanged
  SQLEQ_RETURN_IF_ERROR(sql::ApplyInsert(stmt, &staged));
  database_ = std::move(staged);
  return "inserted " + std::to_string(stmt.rows.size()) + " row(s) into " +
         stmt.table + "\n";
}

Result<std::string> ScriptEngine::ExecDep(std::string_view rest) {
  SQLEQ_ASSIGN_OR_RETURN(
      std::vector<Dependency> deps,
      ParseDependency(rest, "user" + std::to_string(++dep_counter_)));
  // Mirror before committing locally, so a remote failure leaves the
  // session unchanged (the connection is dropped either way).
  std::string out;
  for (const Dependency& dep : deps) {
    out += "added dependency " + dep.ToString() + "\n";
    if (remote_ != nullptr) {
      // Dependency::ToString() prepends "[label] ", which ParseDependency
      // rejects; send the bare body->head text with the label alongside.
      service::RequestSpec req("dep");
      req.Str("text", dep.IsTgd() ? dep.tgd().ToString() : dep.egd().ToString())
          .Str("label", dep.label());
      SQLEQ_ASSIGN_OR_RETURN(std::string line, service::EncodeRequest(req));
      SQLEQ_RETURN_IF_ERROR(MirrorToRemote(line));
      out += "  (mirrored to " + remote_name_ + ")\n";
    }
  }
  for (Dependency& dep : deps) catalog_.sigma.push_back(std::move(dep));
  return out;
}

Result<std::string> ScriptEngine::ExecView(std::string_view rest) {
  SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, ParseQuery(rest));
  SQLEQ_RETURN_IF_ERROR(views_.Add(def));
  return "registered view " + def.ToString() + "\n";
}

Result<std::string> ScriptEngine::ExecQuery(std::string_view rest) {
  rest = Trim(rest);
  size_t assign = rest.find(":=");
  std::optional<ConjunctiveQuery> parsed;
  Semantics semantics = Semantics::kBagSet;
  std::string name;
  if (assign != std::string_view::npos) {
    // QUERY <name> := SELECT ...
    name = std::string(Trim(rest.substr(0, assign)));
    std::string_view select_text = Trim(rest.substr(assign + 2));
    SQLEQ_ASSIGN_OR_RETURN(sql::TranslatedQuery translated,
                           sql::TranslateSql(select_text, catalog_, name));
    if (translated.is_aggregate) {
      return Status::Unsupported(
          "aggregate queries are not yet supported in QUERY; use the "
          "AggregateCandB API directly");
    }
    parsed = *translated.cq;
    semantics = translated.semantics;
  } else {
    // QUERY <datalog text>, name from the head.
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery q, ParseQuery(rest));
    name = q.name();
    // SQL-standard semantics derivation: bags unless every base relation is
    // keyed (set valued).
    bool all_set_valued = true;
    for (const Atom& a : q.body()) {
      if (!catalog_.schema.IsSetValued(a.predicate())) all_set_valued = false;
    }
    parsed = std::move(q);
    semantics = all_set_valued ? Semantics::kBagSet : Semantics::kBag;
  }
  if (name.empty()) return Status::InvalidArgument("query name may not be empty");
  NamedQuery named{std::move(*parsed), semantics};
  queries_.erase(name);
  queries_.emplace(name, named);
  return "defined " + name + ": " + named.query.ToString() + "  [" +
         SemanticsToString(named.semantics) + "]\n";
}

Result<std::string> ScriptEngine::ExecEval(std::string_view rest) {
  SQLEQ_ASSIGN_OR_RETURN(auto args, ParseArgs(rest));
  if (args.first.size() != 1) {
    return Status::InvalidArgument("usage: EVAL <query> [UNDER S|B|BS]");
  }
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery named, GetQuery(args.first[0]));
  Semantics sem = args.second.value_or(named.semantics);
  SQLEQ_ASSIGN_OR_RETURN(Bag answer, Evaluate(named.query, database_, sem));
  return args.first[0] + "(D," + SemanticsToString(sem) + ") = " + answer.ToString() +
         "\n";
}

Result<std::string> ScriptEngine::ExecEquiv(std::string_view rest, bool explain) {
  if (explain) {
    auto [mode, tail] = SplitKeyword(rest);
    if (EqualsIgnoreCase(mode, "SLICE")) return ExecExplainSlice(tail);
  }
  SQLEQ_ASSIGN_OR_RETURN(auto args, ParseArgs(rest));
  if (args.first.size() != 2) {
    return Status::InvalidArgument("usage: EQUIV|EXPLAIN <q1> <q2> [UNDER S|B|BS]");
  }
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery a, GetQuery(args.first[0]));
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery b, GetQuery(args.first[1]));
  Semantics sem = args.second.value_or(a.semantics);
  if (explain) {
    ChaseOptions chase_options;
    chase_options.budget = budget_;
    SQLEQ_ASSIGN_OR_RETURN(EquivalenceExplanation e,
                           ExplainEquivalence(a.query, b.query, catalog_.sigma, sem,
                                              catalog_.schema, chase_options));
    return e.ToString();
  }
  if (remote_ != nullptr) {
    return RemoteEquiv(args.first[0], a, args.first[1], b, sem);
  }
  EquivalenceEngine engine;
  EquivRequest request{sem, catalog_.sigma, catalog_.schema, {}};
  request.context = Context();
  SQLEQ_ASSIGN_OR_RETURN(
      EquivVerdict verdict,
      retry_.has_value()
          ? engine.EquivalentWithRetry(a.query, b.query, request, *retry_)
          : engine.Equivalent(a.query, b.query, request));
  if (verdict.verdict == Verdict::kUnknown) {
    return args.first[0] + " ?? " + args.first[1] + "  under " +
           SemanticsToString(sem) + " semantics (given Sigma)\n" +
           IncompleteLine(verdict.exhaustion);
  }
  return args.first[0] + (verdict.equivalent ? " == " : " != ") + args.first[1] +
         "  under " + SemanticsToString(sem) + " semantics (given Sigma)\n";
}

Result<std::string> ScriptEngine::ExecExplainSlice(std::string_view rest) {
  auto [name, tail] = SplitKeyword(rest);
  if (name.empty() || !Trim(tail).empty()) {
    return Status::InvalidArgument("usage: EXPLAIN SLICE <query>");
  }
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery named, GetQuery(name));
  SigmaGraph graph = SigmaGraph::Build(catalog_.sigma, catalog_.schema);
  SigmaSlice slice = graph.SliceFor(named.query.body());
  std::string out = "slice for " + name + ": keeps " +
                    std::to_string(slice.kept.size()) + " of " +
                    std::to_string(slice.total()) + " dependencies [" +
                    slice.Signature() + "]\n";
  for (size_t i : slice.kept) {
    out += "  kept   " + graph.sigma()[i].ToString() + "\n";
  }
  for (const SigmaSlice::Pruned& p : slice.pruned) {
    out += "  pruned " + graph.sigma()[p.index].ToString() +
           "  -- body atom " + p.blocked_atom + " can never be matched\n";
  }
  TerminationCertificate cert = graph.DeriveCertificate();
  out += "certificate: " + cert.ToString() + "\n";
  if (cert.terminates()) {
    uint64_t bound = cert.StepBound(named.query.body().size(),
                                    QueryTermCount(named.query));
    out += "static chase-step bound for " + name + ": " + RenderBound(bound) +
           "  (SET BUDGET AUTO adopts it)\n";
  }
  return out;
}

Result<std::string> ScriptEngine::ExecMinimize(std::string_view rest) {
  SQLEQ_ASSIGN_OR_RETURN(auto args, ParseArgs(rest));
  if (args.first.size() != 1) {
    return Status::InvalidArgument("usage: MINIMIZE <query> [UNDER S|B|BS]");
  }
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery named, GetQuery(args.first[0]));
  Semantics sem = args.second.value_or(named.semantics);
  if (remote_ != nullptr) return RemoteMinimize(args.first[0], named, sem);
  CandBOptions options;
  options.context = Context();
  SQLEQ_ASSIGN_OR_RETURN(
      CandBResult result,
      retry_.has_value()
          ? ChaseAndBackchaseWithRetry(named.query, catalog_.sigma, sem,
                                       catalog_.schema, options, *retry_)
          : ChaseAndBackchase(named.query, catalog_.sigma, sem, catalog_.schema,
                              options));
  std::string out = "minimize " + args.first[0] + " under " + SemanticsToString(sem) +
                    " (" + std::to_string(result.candidates_examined) +
                    " candidates):\n";
  for (const ConjunctiveQuery& reform : result.reformulations) {
    Result<std::string> rendered = sql::RenderSql(reform, catalog_.schema, sem);
    out += "  " + (rendered.ok() ? *rendered : reform.ToString()) + "\n";
  }
  if (!result.complete) out += IncompleteLine(result.exhaustion);
  return out;
}

Result<std::string> ScriptEngine::ExecRewrite(std::string_view rest) {
  SQLEQ_ASSIGN_OR_RETURN(auto args, ParseArgs(rest));
  if (args.first.size() != 1) {
    return Status::InvalidArgument("usage: REWRITE <query> [UNDER S|B|BS]");
  }
  if (views_.size() == 0) {
    return Status::FailedPrecondition("no views registered (use VIEW)");
  }
  SQLEQ_ASSIGN_OR_RETURN(NamedQuery named, GetQuery(args.first[0]));
  Semantics sem = args.second.value_or(named.semantics);
  RewriteOptions options;
  options.context = Context();
  SQLEQ_ASSIGN_OR_RETURN(
      RewriteResult result,
      retry_.has_value()
          ? RewriteWithViewsWithRetry(named.query, views_, catalog_.sigma, sem,
                                      catalog_.schema, options, *retry_)
          : RewriteWithViews(named.query, views_, catalog_.sigma, sem,
                             catalog_.schema, options));
  std::string out = "rewritings of " + args.first[0] + " under " +
                    SemanticsToString(sem) + ":\n";
  if (result.rewritings.empty() && result.complete) out += "  (none)\n";
  for (const ConjunctiveQuery& r : result.rewritings) {
    out += "  " + r.ToString() + "\n";
  }
  if (!result.complete) out += IncompleteLine(result.exhaustion);
  return out;
}

Result<std::string> ScriptEngine::ExecLint(std::string_view rest) {
  auto [mode, tail] = SplitKeyword(rest);
  bool strict = false;
  if (EqualsIgnoreCase(mode, "STRICT")) {
    strict = true;
  } else if (!mode.empty()) {
    return Status::InvalidArgument("usage: LINT [STRICT]");
  }
  if (!Trim(tail).empty()) return Status::InvalidArgument("usage: LINT [STRICT]");

  AnalyzeOptions opts = AnalyzeOptions::Full();
  opts.warnings_as_errors = strict;
  opts.budget = budget_;
  opts.metrics = &metrics_;  // analysis.diag.<code> counters for SHOW STATS
  std::vector<ConjunctiveQuery> queries;
  for (const auto& [name, named] : queries_) queries.push_back(named.query);
  for (const std::string& name : views_.names()) {
    SQLEQ_ASSIGN_OR_RETURN(ConjunctiveQuery def, views_.Get(name));
    queries.push_back(std::move(def));
  }
  AnalysisReport report =
      AnalyzeProgram(catalog_.schema, catalog_.sigma, queries, opts);
  std::string out = report.ToString();
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += LintSummaryLine(report) + "\n";
  return out;
}

Result<std::string> ScriptEngine::ExecSet(std::string_view rest) {
  auto [what, tail] = SplitKeyword(rest);
  if (EqualsIgnoreCase(what, "BUDGET")) {
    auto [steps_word, tail2] = SplitKeyword(tail);
    if (EqualsIgnoreCase(steps_word, "AUTO")) {
      if (!Trim(tail2).empty()) {
        return Status::InvalidArgument("usage: SET BUDGET AUTO");
      }
      if (queries_.empty()) {
        return Status::FailedPrecondition(
            "SET BUDGET AUTO needs at least one QUERY to bound");
      }
      SigmaGraph graph = SigmaGraph::Build(catalog_.sigma, catalog_.schema);
      TerminationCertificate cert = graph.DeriveCertificate();
      if (!cert.terminates()) {
        std::string why = cert.ToString();
        return Status::FailedPrecondition(
            "SET BUDGET AUTO needs a termination certificate, but Sigma has "
            "none (" + why + "); set an explicit SET BUDGET instead");
      }
      uint64_t bound = 0;
      for (const auto& [qname, named] : queries_) {
        uint64_t b = cert.StepBound(named.query.body().size(),
                                    QueryTermCount(named.query));
        if (b > bound) bound = b;
      }
      uint64_t clamped = std::min(bound, kAutoBudgetCap);
      budget_.max_chase_steps = static_cast<size_t>(clamped);
      std::string out = "set budget: " + budget_.ToString() +
                        "  (certificate bound " + RenderBound(bound);
      if (clamped != bound) out += ", clamped to " + std::to_string(clamped);
      out += ")\n";
      return out;
    }
    auto [cands_word, tail3] = SplitKeyword(tail2);
    if (!Trim(tail3).empty()) {
      return Status::InvalidArgument("usage: SET BUDGET <chase-steps> <candidates>");
    }
    SQLEQ_ASSIGN_OR_RETURN(size_t steps, ParseCount(steps_word, "BUDGET chase-steps"));
    SQLEQ_ASSIGN_OR_RETURN(size_t cands, ParseCount(cands_word, "BUDGET candidates"));
    if (steps == 0 || cands == 0) {
      return Status::InvalidArgument("BUDGET limits must be at least 1");
    }
    budget_.max_chase_steps = steps;
    budget_.max_candidates = cands;
    return "set budget: " + budget_.ToString() + "\n";
  }
  if (EqualsIgnoreCase(what, "RETRY")) {
    auto [attempts_word, tail2] = SplitKeyword(tail);
    if (EqualsIgnoreCase(attempts_word, "OFF")) {
      if (!Trim(tail2).empty()) {
        return Status::InvalidArgument("usage: SET RETRY OFF");
      }
      retry_.reset();
      return std::string("set retry: off\n");
    }
    auto [growth_word, tail3] = SplitKeyword(tail2);
    if (!Trim(tail3).empty()) {
      return Status::InvalidArgument(
          "usage: SET RETRY <attempts> [<growth>] | SET RETRY OFF");
    }
    SQLEQ_ASSIGN_OR_RETURN(size_t attempts,
                           ParseCount(attempts_word, "RETRY attempts"));
    if (attempts == 0) return Status::InvalidArgument("RETRY attempts must be at least 1");
    EscalatingBudget policy;
    policy.max_attempts = attempts;
    if (!growth_word.empty()) {
      SQLEQ_ASSIGN_OR_RETURN(policy.growth, ParseGrowth(growth_word));
    }
    retry_ = policy;
    return "set retry: " + std::to_string(attempts) + " attempt(s), growth " +
           std::to_string(retry_->growth) + "\n";
  }
  return Status::InvalidArgument(
      "usage: SET BUDGET <chase-steps> <candidates> | "
      "SET BUDGET AUTO | SET RETRY <attempts> [<growth>] | SET RETRY OFF");
}

Result<std::string> ScriptEngine::ExecShow(std::string_view rest) {
  auto [what, tail] = SplitKeyword(rest);
  if (!Trim(tail).empty()) {
    return Status::InvalidArgument(
        "usage: SHOW SCHEMA|SIGMA|QUERIES|DATA|BUDGET|STATS");
  }
  if (EqualsIgnoreCase(what, "STATS")) return RenderStats(metrics_.Snapshot());
  if (EqualsIgnoreCase(what, "SCHEMA")) return catalog_.schema.ToString();
  if (EqualsIgnoreCase(what, "SIGMA")) return SigmaToString(catalog_.sigma);
  if (EqualsIgnoreCase(what, "DATA")) return database_.ToString();
  if (EqualsIgnoreCase(what, "BUDGET")) {
    std::string out = budget_.ToString() + "\n";
    if (retry_.has_value()) {
      out += "retry: " + std::to_string(retry_->max_attempts) +
             " attempt(s), growth " + std::to_string(retry_->growth) + "\n";
    }
    return out;
  }
  if (EqualsIgnoreCase(what, "QUERIES")) {
    std::string out;
    for (const auto& [name, named] : queries_) {
      out += name + ": " + named.query.ToString() + "  [" +
             SemanticsToString(named.semantics) + "]\n";
    }
    return out;
  }
  return Status::InvalidArgument("unknown SHOW target '" + what + "'");
}

Result<std::string> ScriptEngine::ExecTrace(std::string_view rest) {
  auto [mode, tail] = SplitKeyword(rest);
  if (EqualsIgnoreCase(mode, "ON")) {
    if (!Trim(tail).empty()) return Status::InvalidArgument("usage: TRACE ON");
    tracing_ = true;
    return std::string("tracing on\n");
  }
  if (EqualsIgnoreCase(mode, "OFF")) {
    if (!Trim(tail).empty()) return Status::InvalidArgument("usage: TRACE OFF");
    tracing_ = false;
    return std::string("tracing off\n");
  }
  if (EqualsIgnoreCase(mode, "EXPORT")) {
    auto [path, tail2] = SplitKeyword(tail);
    if (path.empty() || !Trim(tail2).empty()) {
      return Status::InvalidArgument("usage: TRACE EXPORT <file>");
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot open '" + path + "' for writing");
    }
    out << trace_.ToChromeTraceJson();
    out.close();
    if (!out) return Status::Internal("failed writing '" + path + "'");
    return "exported " + std::to_string(trace_.size()) + " trace event(s) to " +
           path + "\n";
  }
  return Status::InvalidArgument("usage: TRACE ON | TRACE OFF | TRACE EXPORT <file>");
}

Result<std::string> ScriptEngine::ExecConnect(std::string_view rest) {
  auto [host, tail] = SplitKeyword(rest);
  auto [port_word, tail2] = SplitKeyword(tail);
  if (host.empty() || !Trim(tail2).empty() ||
      (port_word.empty() && host.find(':') == std::string::npos)) {
    return Status::InvalidArgument(
        "usage: CONNECT <host> <port> | CONNECT <fleet-spec>");
  }
  if (remote_ != nullptr) {
    return Status::FailedPrecondition("already connected to " + remote_name_ +
                                      " (DISCONNECT first)");
  }
  std::string spec;
  if (port_word.empty()) {
    // One word with ':' — a fleet spec ("host:port" or "a=h:p,b=h:p,...").
    spec = host;
  } else {
    SQLEQ_ASSIGN_OR_RETURN(size_t port, ParseCount(port_word, "port"));
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("port must be in 1..65535, got '" + port_word + "'");
    }
    spec = host + ":" + port_word;
  }
  service::FleetClientOptions options;
  SQLEQ_ASSIGN_OR_RETURN(options.shards, service::ParseFleetSpec(spec));
  options.retry = ShellRetryPolicy();
  SQLEQ_ASSIGN_OR_RETURN(std::unique_ptr<service::FleetClient> client,
                         service::FleetClient::Create(std::move(options)));

  // One hello per shard: proves every shard is reachable and speaks a
  // protocol we understand before any catalog is uploaded.
  SQLEQ_ASSIGN_OR_RETURN(std::string hello_line,
                         service::EncodeRequest(service::RequestSpec("hello")));
  SQLEQ_ASSIGN_OR_RETURN(std::vector<JsonValue> hellos,
                         client->Broadcast(hello_line));
  for (const JsonValue& hello : hellos) {
    const JsonValue* protocol = hello.Find("protocol");
    if (protocol == nullptr || protocol->kind != JsonValue::Kind::kNumber ||
        static_cast<int>(protocol->number) < service::kProtocolVersion) {
      return Status::FailedPrecondition(
          "server speaks a different protocol than this shell (want version " +
          std::to_string(service::kProtocolVersion) + " or newer)");
    }
  }

  // Upload the session catalog so the daemon sessions match ours; the fleet
  // client logs these and replays them onto every pooled connection. Keys
  // and foreign keys travel as the Σ they induced, so only name/arity/
  // set-valuedness need the relation command.
  size_t relations = 0;
  for (const RelationInfo& info : catalog_.schema.Relations()) {
    service::RequestSpec req("relation");
    req.Str("name", info.name)
        .Int("arity", info.arity)
        .Bool("set_valued", info.set_valued);
    SQLEQ_RETURN_IF_ERROR(RemoteCall(*client, req).status());
    ++relations;
  }
  size_t deps = 0;
  for (const Dependency& dep : catalog_.sigma) {
    service::RequestSpec req("dep");
    req.Str("text", dep.IsTgd() ? dep.tgd().ToString() : dep.egd().ToString())
        .Str("label", dep.label());
    SQLEQ_RETURN_IF_ERROR(RemoteCall(*client, req).status());
    ++deps;
  }

  const size_t shard_count = client->shard_count();
  remote_ = std::move(client);
  remote_name_ = spec;
  std::string out = "connected to sqleqd at " + remote_name_;
  if (shard_count > 1) {
    out += " (" + std::to_string(shard_count) + " shards)";
  }
  return out + "; uploaded " + std::to_string(relations) + " relation(s), " +
         std::to_string(deps) + " dependenc(ies)\n";
}

Result<std::string> ScriptEngine::ExecDisconnect(std::string_view rest) {
  if (!Trim(rest).empty()) return Status::InvalidArgument("usage: DISCONNECT");
  if (remote_ == nullptr) {
    return Status::FailedPrecondition("not connected (use CONNECT <host> <port>)");
  }
  remote_.reset();
  std::string out = "disconnected from " + remote_name_ + "\n";
  remote_name_.clear();
  return out;
}

Status ScriptEngine::MirrorToRemote(const std::string& request_line) {
  Result<JsonValue> response = RemoteCall(*remote_, request_line);
  if (!response.ok()) {
    std::string peer = remote_name_;
    remote_.reset();
    remote_name_.clear();
    return Status::FailedPrecondition("mirroring to " + peer +
                                      " failed (connection dropped): " +
                                      response.status().message());
  }
  return Status::OK();
}

Result<std::string> ScriptEngine::RemoteEquiv(const std::string& n1, const NamedQuery& a,
                                              const std::string& n2, const NamedQuery& b,
                                              Semantics sem) {
  service::RequestSpec req("check");
  req.Str("q1", a.query.ToString())
      .Str("q2", b.query.ToString())
      .Str("semantics", service::SemanticsWireName(sem));
  AddBudgetFields(budget_, &req);
  SQLEQ_ASSIGN_OR_RETURN(JsonValue response, RemoteCall(*remote_, req));
  const std::string verdict = ResponseString(response, "verdict");
  std::string out;
  if (verdict == "unknown") {
    out = n1 + " ?? " + n2 + "  under " + SemanticsToString(sem) +
          " semantics (given Sigma)  [remote " + remote_name_ + "]\n" +
          IncompleteLine(ResponseExhaustion(response));
  } else {
    const JsonValue* equivalent = response.Find("equivalent");
    bool eq = equivalent != nullptr &&
              equivalent->kind == JsonValue::Kind::kBool && equivalent->boolean;
    out = n1 + (eq ? " == " : " != ") + n2 + "  under " + SemanticsToString(sem) +
          " semantics (given Sigma)  [remote " + remote_name_ + "]\n";
  }
  return out;
}

Result<std::string> ScriptEngine::RemoteMinimize(const std::string& name,
                                                 const NamedQuery& named,
                                                 Semantics sem) {
  service::RequestSpec req("reformulate");
  req.Str("query", named.query.ToString())
      .Str("semantics", service::SemanticsWireName(sem));
  AddBudgetFields(budget_, &req);
  SQLEQ_ASSIGN_OR_RETURN(JsonValue response, RemoteCall(*remote_, req));

  uint64_t candidates = 0;
  if (const JsonValue* c = response.Find("candidates");
      c != nullptr && c->kind == JsonValue::Kind::kNumber) {
    candidates = static_cast<uint64_t>(c->number);
  }
  std::string out = "minimize " + name + " under " + SemanticsToString(sem) + " (" +
                    std::to_string(candidates) + " candidates)  [remote " +
                    remote_name_ + "]:\n";
  if (const JsonValue* list = response.Find("reformulations");
      list != nullptr && list->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& item : list->array) {
      if (!item.is_string()) continue;
      // The daemon speaks Datalog; render back as SQL like local MINIMIZE.
      std::string line = item.string;
      if (Result<ConjunctiveQuery> reform = ParseQuery(item.string); reform.ok()) {
        Result<std::string> rendered = sql::RenderSql(*reform, catalog_.schema, sem);
        if (rendered.ok()) line = *rendered;
      }
      out += "  " + line + "\n";
    }
  }
  const JsonValue* complete = response.Find("complete");
  if (complete != nullptr && complete->kind == JsonValue::Kind::kBool &&
      !complete->boolean) {
    out += IncompleteLine(ResponseExhaustion(response));
  }
  return out;
}

Result<std::string> ScriptEngine::ExecWorkload(std::string_view rest) {
  auto [verb, tail] = SplitKeyword(rest);
  if (EqualsIgnoreCase(verb, "GEN")) {
    auto [tmpl, tail2] = SplitKeyword(tail);
    auto [num_word, tail3] = SplitKeyword(tail2);
    auto [olap_word, tail4] = SplitKeyword(tail3);
    workload::WorkloadOptions options;
    if (tmpl.empty() || num_word.empty() || olap_word.empty()) {
      return Status::InvalidArgument(
          "usage: WORKLOAD GEN <template> <num-queries> <overlap> [SEED <n>]");
    }
    options.schema_template = tmpl;
    SQLEQ_ASSIGN_OR_RETURN(options.num_queries,
                           ParseCount(num_word, "num-queries"));
    errno = 0;
    char* end = nullptr;
    options.overlap_rate = std::strtod(olap_word.c_str(), &end);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("overlap must be a number in [0, 1], got '" +
                                     olap_word + "'");
    }
    auto [seed_kw, tail5] = SplitKeyword(tail4);
    if (EqualsIgnoreCase(seed_kw, "SEED")) {
      auto [seed_word, tail6] = SplitKeyword(tail5);
      if (!Trim(tail6).empty()) {
        return Status::InvalidArgument(
            "usage: WORKLOAD GEN <template> <num-queries> <overlap> [SEED <n>]");
      }
      SQLEQ_ASSIGN_OR_RETURN(size_t seed, ParseCount(seed_word, "SEED"));
      options.seed = seed;
    } else if (!seed_kw.empty()) {
      return Status::InvalidArgument(
          "usage: WORKLOAD GEN <template> <num-queries> <overlap> [SEED <n>]");
    }
    SQLEQ_ASSIGN_OR_RETURN(workload::Workload w, GenerateWorkload(options));
    workload_ = std::make_unique<workload::Workload>(std::move(w));
    cache_.reset();
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.3f", workload_->GroundTruthHitRate());
    return "generated workload: template=" + workload_->schema.name +
           " queries=" + std::to_string(workload_->queries.size()) +
           " classes=" + std::to_string(workload_->num_classes) +
           " ground-truth-hit-rate=" + rate + "\n";
  }
  if (EqualsIgnoreCase(verb, "REPLAY")) {
    if (!Trim(tail).empty()) {
      return Status::InvalidArgument("usage: WORKLOAD REPLAY");
    }
    if (workload_ == nullptr) {
      return Status::FailedPrecondition("no workload (use WORKLOAD GEN first)");
    }
    cache::SemanticCacheOptions options;
    options.metrics = &metrics_;
    cache_ = std::make_unique<cache::SemanticCache>(
        workload_->schema.catalog.sigma, workload_->schema.catalog.schema,
        options);
    size_t hits = 0;
    for (const workload::WorkloadQuery& wq : workload_->queries) {
      SQLEQ_ASSIGN_OR_RETURN(cache::SemanticCache::Lookup hit,
                             cache_->Get(wq.query));
      if (hit.tier == cache::SemanticCache::Tier::kMiss) {
        cache_->Admit(wq.query, wq.query.name());
      } else {
        ++hits;
      }
    }
    cache::SemanticCache::Stats stats = cache_->stats();
    char measured[32], truth[32];
    std::snprintf(measured, sizeof(measured), "%.3f", stats.HitRate());
    std::snprintf(truth, sizeof(truth), "%.3f", workload_->GroundTruthHitRate());
    return "replayed " + std::to_string(workload_->queries.size()) +
           " queries: hits=" + std::to_string(hits) + " (exact=" +
           std::to_string(stats.exact_hits) + ", semantic=" +
           std::to_string(stats.semantic_hits) + ") hit-rate=" + measured +
           " ground-truth=" + truth + "\n";
  }
  return Status::InvalidArgument("usage: WORKLOAD GEN ... | WORKLOAD REPLAY");
}

Result<std::string> ScriptEngine::ExecCacheStats(std::string_view rest) {
  auto [verb, tail] = SplitKeyword(rest);
  if (!EqualsIgnoreCase(verb, "STATS") || !Trim(tail).empty()) {
    return Status::InvalidArgument("usage: CACHE STATS");
  }
  if (cache_ == nullptr) {
    return Status::FailedPrecondition("no cache (use WORKLOAD REPLAY first)");
  }
  cache::SemanticCache::Stats s = cache_->stats();
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.3f", s.HitRate());
  std::string out = "cache stats:\n";
  out += "  lookups = " + std::to_string(s.lookups) + "\n";
  out += "  hits.exact = " + std::to_string(s.exact_hits) + "\n";
  out += "  hits.semantic = " + std::to_string(s.semantic_hits) + "\n";
  out += "  misses = " + std::to_string(s.misses) + "\n";
  out += "  confirms = " + std::to_string(s.confirms) + " (unknown " +
         std::to_string(s.unknown_confirms) + ")\n";
  out += "  entries = " + std::to_string(s.entries) + " in " +
         std::to_string(s.buckets) + " buckets\n";
  out += "  hit-rate = " + std::string(rate) + "\n";
  return out;
}

Result<std::string> ScriptEngine::ExecAdvise(std::string_view rest) {
  auto [verb, tail] = SplitKeyword(rest);
  if (!EqualsIgnoreCase(verb, "VIEWS") || !Trim(tail).empty()) {
    return Status::InvalidArgument("usage: ADVISE VIEWS");
  }
  if (workload_ == nullptr) {
    return Status::FailedPrecondition("no workload (use WORKLOAD GEN first)");
  }
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(workload_->queries.size());
  for (const workload::WorkloadQuery& wq : workload_->queries) {
    queries.push_back(wq.query);
  }
  cache::ViewAdvisorOptions options;
  options.max_chase_steps = budget_.max_chase_steps;
  options.max_candidates = budget_.max_candidates;
  SQLEQ_ASSIGN_OR_RETURN(
      cache::ViewAdvice advice,
      AdviseViews(queries, workload_->schema.catalog.sigma,
                  workload_->schema.catalog.schema, options));
  std::string out = "advised " + std::to_string(advice.clusters.size()) +
                    " clusters over " +
                    std::to_string(advice.queries_clustered) + " queries (" +
                    std::to_string(advice.confirms) + " confirms)\n";
  for (const cache::ViewAdvice::Cluster& c : advice.clusters) {
    if (!c.rewritten) continue;
    char saving[32];
    std::snprintf(saving, sizeof(saving), "%.0f", c.ProjectedSaving());
    out += "  [" + std::to_string(c.members.size()) + " queries, saves ~" +
           saving + " tuples] " + c.rewrite.ToString() + "\n";
  }
  return out;
}

}  // namespace shell
}  // namespace sqleq
