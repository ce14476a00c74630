#include "analysis/analyzer.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/sigma_graph.h"
#include "chase/homomorphism.h"
#include "chase/set_chase.h"
#include "constraints/regularize.h"
#include "constraints/weak_acyclicity.h"
#include "util/telemetry.h"

namespace sqleq {
namespace {

/// Appends a diagnostic, applying the warnings_as_errors escalation and
/// bumping the per-code analysis.diag.<code> counter when a registry is
/// wired up.
void Emit(AnalysisReport& report, const AnalyzeOptions& opts, std::string code,
          Severity severity, std::string subject, std::string message,
          std::string fix_hint = "") {
  if (severity == Severity::kWarning && opts.warnings_as_errors) {
    severity = Severity::kError;
  }
  if (opts.metrics != nullptr) {
    opts.metrics->counter(metric::kAnalysisDiagPrefix + code).Add();
  }
  report.diagnostics.push_back(Diagnostic{std::move(code), severity,
                                          std::move(message), std::move(subject),
                                          std::move(fix_hint)});
}

std::string DependencySubject(const Dependency& dep, size_t index) {
  if (!dep.label().empty()) return "dependency " + dep.label();
  return "dependency #" + std::to_string(index + 1);
}

/// Names the dependencies of `indices` for the nontermination message.
std::string ComponentNames(const DependencySet& sigma,
                           const std::vector<size_t>& indices) {
  std::string out;
  for (size_t i : indices) {
    if (!out.empty()) out += ", ";
    out += sigma[i].label().empty() ? "#" + std::to_string(i + 1) : sigma[i].label();
  }
  return out;
}

void CheckTermination(AnalysisReport& report, const AnalyzeOptions& opts,
                      const DependencySet& sigma) {
  StratificationResult strat = CheckStratification(sigma);
  if (strat.weakly_acyclic) return;
  if (!strat.stratified) {
    std::string message = "the set chase may not terminate: sigma is neither "
                          "weakly acyclic nor stratified";
    if (strat.witness.has_value()) {
      message += "; special-edge cycle " + strat.witness->ToString();
    }
    if (!strat.offending_component.empty()) {
      message += " within firing component {" +
                 ComponentNames(sigma, strat.offending_component) + "}";
    }
    Emit(report, opts, "chase-nontermination", Severity::kError, "sigma", message,
         "break the special-edge cycle (drop an existential variable or an "
         "offending dependency), or raise budget.max_chase_steps and accept "
         "possible non-termination");
    return;
  }
  std::string message = "sigma is not weakly acyclic but every firing "
                        "component is (stratified): the set chase still "
                        "terminates on every input";
  if (strat.witness.has_value()) {
    message += "; global special-edge cycle " + strat.witness->ToString();
  }
  Emit(report, opts, "sigma-not-weakly-acyclic", Severity::kInfo, "sigma", message);
}

/// True if an atom of `earlier`, or one before `atoms[k]`, has atoms[k]'s
/// predicate: the schema checks report each predicate once per subject, so
/// a relation misspelled five times reports once.
bool PredicateSeen(const std::vector<Atom>& atoms, size_t k,
                   const std::vector<Atom>* earlier) {
  const std::string& predicate = atoms[k].predicate();
  auto same = [&predicate](const Atom& a) { return a.predicate() == predicate; };
  if (earlier != nullptr && std::any_of(earlier->begin(), earlier->end(), same)) {
    return true;
  }
  return std::any_of(atoms.begin(), atoms.begin() + k, same);
}

/// Schema checks over one atom list of a subject whose atoms `earlier`
/// (optional) were already checked. `subject()` renders the subject, only
/// when a diagnostic is emitted.
template <typename SubjectFn>
void CheckAtomsAgainstSchema(AnalysisReport& report, const AnalyzeOptions& opts,
                             const Schema& schema, const std::vector<Atom>& atoms,
                             const std::vector<Atom>* earlier, SubjectFn subject) {
  for (size_t k = 0; k < atoms.size(); ++k) {
    if (PredicateSeen(atoms, k, earlier)) continue;
    const Atom& atom = atoms[k];
    if (!schema.HasRelation(atom.predicate())) {
      Emit(report, opts, "unknown-relation", Severity::kError, subject(),
           "atom over '" + atom.predicate() + "' which is not in the schema",
           "CREATE the relation or fix the predicate name");
      continue;
    }
    size_t expected = schema.ArityOf(atom.predicate());
    if (atom.arity() != expected) {
      Emit(report, opts, "arity-mismatch", Severity::kError, subject(),
           "atom '" + atom.predicate() + "' has arity " +
               std::to_string(atom.arity()) + " but the schema declares " +
               std::to_string(expected));
    }
  }
}

void CheckDependencyAgainstSchema(AnalysisReport& report, const AnalyzeOptions& opts,
                                  const Schema& schema, const Dependency& dep,
                                  size_t index) {
  auto subject = [&dep, index] { return DependencySubject(dep, index); };
  CheckAtomsAgainstSchema(report, opts, schema, dep.body(), nullptr, subject);
  if (dep.IsTgd()) {
    CheckAtomsAgainstSchema(report, opts, schema, dep.tgd().head(), &dep.body(),
                            subject);
  }
}

void CheckRegularization(AnalysisReport& report, const AnalyzeOptions& opts,
                         const Dependency& dep, size_t index) {
  if (!dep.IsTgd() || IsRegularized(dep.tgd())) return;
  size_t components = RegularizeTgd(dep.tgd()).size();
  Emit(report, opts, "tgd-unregularized", Severity::kWarning,
       DependencySubject(dep, index),
       "head admits a nonshared partition (Def 4.1): it splits into " +
           std::to_string(components) +
           " components connected only through universal variables; chasing "
           "with it as-is is unsound under bag/bag-set semantics",
       "split the head into one tgd per component (RegularizeSigma does this "
       "automatically inside the sound chase)");
}

void CheckEgdSatisfiability(AnalysisReport& report, const AnalyzeOptions& opts,
                            const Dependency& dep, size_t index) {
  if (!dep.IsEgd()) return;
  const Egd& egd = dep.egd();
  if (egd.left().IsVariable() || egd.right().IsVariable()) return;
  // Egd::Create rejects syntactically identical sides, so two constants here
  // are distinct: the egd can only fire to fail.
  Emit(report, opts, "egd-constant-contradiction", Severity::kWarning,
       DependencySubject(dep, index),
       "equates distinct constants " + egd.left().ToString() + " and " +
           egd.right().ToString() +
           ": every instance matching the body violates sigma, and any query "
           "whose chase triggers it returns the empty answer",
       "drop the dependency or fix one side to a variable");
}

/// Chase-based implication test: chase σ's frozen body with Σ \ {σ} and ask
/// whether σ's conclusion already holds in the result.
void CheckImplication(AnalysisReport& report, const AnalyzeOptions& opts,
                      const DependencySet& sigma, size_t index) {
  const Dependency& dep = sigma[index];
  std::string subject = DependencySubject(dep, index);
  DependencySet rest;
  rest.reserve(sigma.size() - 1);
  for (size_t i = 0; i < sigma.size(); ++i) {
    if (i != index) rest.push_back(sigma[i]);
  }
  if (rest.empty()) return;

  // Freeze the body into a query whose head tracks the terms the conclusion
  // talks about: the frontier for a tgd, both sides for an egd.
  std::vector<Term> head;
  if (dep.IsTgd()) {
    head = dep.tgd().FrontierVariables();
  } else {
    head = {dep.egd().left(), dep.egd().right()};
  }
  Result<ConjunctiveQuery> frozen =
      ConjunctiveQuery::Create("frozen_body", head, dep.body());
  if (!frozen.ok()) return;  // cannot happen for valid dependencies

  ChaseRuntime runtime;
  runtime.budget = opts.budget;
  Result<ChaseOutcome> chased = SetChase(*frozen, rest, runtime);
  if (!chased.ok()) {
    Emit(report, opts, "analysis-incomplete", Severity::kInfo, subject,
         "implication check gave up: " + chased.status().message());
    return;
  }
  if (chased->failed) {
    Emit(report, opts, "dependency-unsatisfiable-body", Severity::kWarning, subject,
         "the body is unsatisfiable under the rest of sigma (its chase fails), "
         "so the dependency is vacuous",
         "drop the dependency");
    return;
  }

  const ConjunctiveQuery& result = chased->result;
  bool implied = false;
  if (dep.IsTgd()) {
    // ∃Z̄ ψ holds in the chased body iff ψ maps into it with the frontier
    // pinned to the chased images of the frozen head.
    TermMap fixed;
    for (size_t i = 0; i < head.size(); ++i) {
      fixed[head[i]] = result.head()[i];
    }
    implied = FindHomomorphism(dep.tgd().head(), result.body(), fixed).has_value();
  } else {
    implied = result.head()[0] == result.head()[1];
  }
  if (implied) {
    Emit(report, opts, "dependency-implied", Severity::kWarning, subject,
         "already implied by the rest of sigma: chasing its frozen body with "
         "the other dependencies derives its conclusion",
         "drop the dependency; it only adds chase work");
  }
}

/// AnalyzeDependencies' syntactic checks in its emission order. Each check
/// `opts` enables writes its findings into a fresh report, which is handed
/// to `found` with the AnalyzeOptions switch that gates the check.
template <typename Found>
void RunSyntacticSigmaChecks(const Schema& schema, const DependencySet& sigma,
                             const AnalyzeOptions& opts, Found found) {
  auto run = [&opts, &found](bool AnalyzeOptions::*check, auto analyze) {
    if (!(opts.*check)) return;
    AnalysisReport findings;
    analyze(findings);
    found(check, std::move(findings));
  };
  run(&AnalyzeOptions::check_termination,
      [&](AnalysisReport& r) { CheckTermination(r, opts, sigma); });
  for (size_t i = 0; i < sigma.size(); ++i) {
    if (schema.size() > 0) {
      run(&AnalyzeOptions::check_schema, [&](AnalysisReport& r) {
        CheckDependencyAgainstSchema(r, opts, schema, sigma[i], i);
      });
    }
    run(&AnalyzeOptions::check_regularization,
        [&](AnalysisReport& r) { CheckRegularization(r, opts, sigma[i], i); });
    run(&AnalyzeOptions::check_satisfiability,
        [&](AnalysisReport& r) { CheckEgdSatisfiability(r, opts, sigma[i], i); });
  }
}

bool OccursIn(Term t, const std::vector<Atom>& atoms) {
  return std::any_of(atoms.begin(), atoms.end(), [t](const Atom& a) {
    return std::find(a.args().begin(), a.args().end(), t) != a.args().end();
  });
}

/// AnalyzeQueryParts' checks, appended to `report`. A query they find clean
/// costs no allocation: the subject is rendered only for a diagnostic.
void CheckQueryParts(AnalysisReport& report, const AnalyzeOptions& opts,
                     const Schema& schema, const std::string& name,
                     const std::vector<Term>& head, const std::vector<Atom>& body) {
  auto subject = [&name] { return "query " + name; };
  if (body.empty()) {
    Emit(report, opts, "query-empty-body", Severity::kError, subject(),
         "conjunctive queries need at least one body atom");
    return;
  }
  if (opts.check_safety) {
    std::string uncovered;
    for (auto it = head.begin(); it != head.end(); ++it) {
      if (!it->IsVariable() || OccursIn(*it, body)) continue;
      if (std::find(head.begin(), it, *it) != it) continue;  // listed already
      if (!uncovered.empty()) uncovered += ", ";
      uncovered += it->ToString();
    }
    if (!uncovered.empty()) {
      Emit(report, opts, "query-unsafe-head", Severity::kError, subject(),
           "head variable(s) " + uncovered +
               " do not occur in the body (range-unrestricted)",
           "add a body atom binding them or drop them from the head");
    }
  }
  if (opts.check_schema && schema.size() > 0) {
    CheckAtomsAgainstSchema(report, opts, schema, body, nullptr, subject);
  }
}

}  // namespace

AnalysisReport AnalyzeDependencies(const Schema& schema, const DependencySet& sigma,
                                   const AnalyzeOptions& opts) {
  AnalysisReport report;
  RunSyntacticSigmaChecks(schema, sigma, opts,
                          [&report](bool AnalyzeOptions::*, AnalysisReport findings) {
                            report.Merge(std::move(findings));
                          });
  if (opts.check_implication) {
    for (size_t i = 0; i < sigma.size(); ++i) CheckImplication(report, opts, sigma, i);
  }
  return report;
}

AnalysisReport AnalyzeQueryParts(const Schema& schema, const std::string& name,
                                 const std::vector<Term>& head,
                                 const std::vector<Atom>& body,
                                 const AnalyzeOptions& opts) {
  AnalysisReport report;
  CheckQueryParts(report, opts, schema, name, head, body);
  return report;
}

AnalysisReport AnalyzeQuery(const Schema& schema, const ConjunctiveQuery& query,
                            const AnalyzeOptions& opts) {
  return AnalyzeQueryParts(schema, query.name(), query.head(), query.body(), opts);
}

AnalysisReport AnalyzeSigmaSlicing(const Schema& schema, const DependencySet& sigma,
                                   const std::vector<QueryBodyRef>& queries,
                                   const AnalyzeOptions& opts) {
  AnalysisReport report;
  if (sigma.empty()) return report;
  SigmaGraph graph = SigmaGraph::Build(sigma, schema);

  TerminationCertificate cert = graph.DeriveCertificate();
  if (cert.terminates()) {
    std::string message = "chase termination certificate: " + cert.ToString();
    // The static step bound is query-dependent; report it for the largest
    // query of the batch, the one that dominates any shared budget.
    const QueryBodyRef* largest = nullptr;
    size_t largest_atoms = 0, largest_terms = 0;
    for (const QueryBodyRef& q : queries) {
      std::unordered_set<Term, TermHash> terms;
      for (const Atom& a : q.body) {
        for (Term t : a.args()) terms.insert(t);
      }
      if (largest == nullptr ||
          q.body.size() + terms.size() > largest_atoms + largest_terms) {
        largest = &q;
        largest_atoms = q.body.size();
        largest_terms = terms.size();
      }
    }
    if (largest != nullptr) {
      uint64_t bound = cert.StepBound(largest_atoms, largest_terms);
      message += "; static chase-step bound for query '" + largest->name + "': ";
      message += bound >= TerminationCertificate::kBoundCap
                     ? ">=2^62 (finite but astronomically large)"
                     : std::to_string(bound);
    }
    Emit(report, opts, "termination-certificate", Severity::kInfo, "sigma",
         message);
  }

  for (const QueryBodyRef& q : queries) {
    SigmaSlice slice = graph.SliceFor(q.body);
    Emit(report, opts, "sigma-slice-summary", Severity::kInfo, "query " + q.name,
         "sigma slice keeps " + std::to_string(slice.kept.size()) + " of " +
             std::to_string(slice.total()) + " dependencies (" +
             std::to_string(slice.pruned.size()) + " pruned) [" +
             slice.Signature() + "]");
    for (const SigmaSlice::Pruned& p : slice.pruned) {
      Emit(report, opts, "dependency-unreachable-for-query", Severity::kInfo,
           DependencySubject(sigma[p.index], p.index),
           "can never fire while chasing query '" + q.name + "': body atom " +
               p.blocked_atom +
               " matches neither the query's atoms nor anything a reachable "
               "dependency writes",
           "no action needed; the engines skip it automatically "
           "(ChasePlan::Run chases only the query's Σ-slice)");
    }
  }
  return report;
}

AnalysisReport AnalyzeProgram(const Schema& schema, const DependencySet& sigma,
                              const std::vector<ConjunctiveQuery>& queries,
                              const AnalyzeOptions& opts) {
  AnalysisReport report = AnalyzeDependencies(schema, sigma, opts);
  for (const ConjunctiveQuery& q : queries) {
    report.Merge(AnalyzeQuery(schema, q, opts));
  }
  if (opts.check_slicing) {
    std::vector<QueryBodyRef> bodies;
    bodies.reserve(queries.size());
    for (const ConjunctiveQuery& q : queries) {
      bodies.push_back(QueryBodyRef{q.name(), q.body()});
    }
    report.Merge(AnalyzeSigmaSlicing(schema, sigma, bodies, opts));
  }
  return report;
}

SigmaPreflight::SigmaPreflight(const Schema& schema, const DependencySet& sigma)
    : schema_(schema), sigma_(sigma) {
  RunSyntacticSigmaChecks(
      schema, sigma, AnalyzeOptions::Preflight(),
      [this](bool AnalyzeOptions::*check, AnalysisReport findings) {
        for (Diagnostic& d : findings.diagnostics) {
          findings_.push_back(Finding{check, std::move(d)});
        }
      });
}

AnalysisReport SigmaPreflight::Analyze(
    std::span<const ConjunctiveQuery* const> queries,
    const AnalyzeOptions& opts) const {
  AnalysisReport report;
  for (const Finding& f : findings_) {
    if (!(opts.*f.check)) continue;
    const Diagnostic& d = f.diagnostic;
    Emit(report, opts, d.code, d.severity, d.subject, d.message, d.fix_hint);
  }
  if (opts.check_implication) {
    for (size_t i = 0; i < sigma_.size(); ++i) CheckImplication(report, opts, sigma_, i);
  }
  for (const ConjunctiveQuery* q : queries) {
    CheckQueryParts(report, opts, schema_, q->name(), q->head(), q->body());
  }
  if (opts.check_slicing) {
    std::vector<QueryBodyRef> bodies;
    bodies.reserve(queries.size());
    for (const ConjunctiveQuery* q : queries) {
      bodies.push_back(QueryBodyRef{q->name(), q->body()});
    }
    report.Merge(AnalyzeSigmaSlicing(schema_, sigma_, bodies, opts));
  }
  return report;
}

}  // namespace sqleq
