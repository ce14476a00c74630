// Σ-lint: static analysis of a (Schema, Σ, queries) triple before any
// engine runs. Cheap syntactic checks (safety, schema drift, regularization,
// constant clashes) plus the chase-termination test always run; the
// chase-based redundancy checks (dependency implication, dead bodies) are
// opt-in because they chase frozen bodies — bounded by opts.budget.
//
// Checks and their codes (docs/diagnostics.md has the catalogue):
//   chase-nontermination        error    Σ not stratified; witness cycle
//   sigma-not-weakly-acyclic    info     stratified but not weakly acyclic
//   query-unsafe-head           error    head variable absent from body
//   query-empty-body            error    CQ with no body atoms
//   unknown-relation            error    atom over a relation not in Schema
//   arity-mismatch              error    atom arity disagrees with Schema
//   egd-constant-contradiction  warning  egd equating two distinct constants
//   tgd-unregularized           warning  Def 4.1 nonshared partition exists
//   dependency-implied          warning  σ follows from Σ \ {σ}
//   dependency-unsatisfiable-body warning σ's body dies under Σ \ {σ}
//   analysis-incomplete         info     a chase-based check hit its budget
//   termination-certificate     info     Σ terminates; strata/rank/step bound
//   sigma-slice-summary         info     per query: kept/pruned Σ-slice sizes
//   dependency-unreachable-for-query info σ can never fire on this query
//
// Severity policy: errors are conditions under which the engines are
// unsound or non-terminating; warnings are conditions they survive
// (SoundChase regularizes Σ itself, an implied dependency only wastes
// work). AnalyzeOptions::warnings_as_errors escalates for strict callers.
#ifndef SQLEQ_ANALYSIS_ANALYZER_H_
#define SQLEQ_ANALYSIS_ANALYZER_H_

#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "constraints/dependency.h"
#include "ir/query.h"
#include "ir/schema.h"
#include "util/resource_budget.h"

namespace sqleq {

class MetricsRegistry;

/// Which checks run, and how strictly.
struct AnalyzeOptions {
  /// Master switch for the engine pre-flights (EquivRequest / CandBOptions);
  /// the Analyze* functions themselves ignore it.
  bool enabled = true;

  bool check_termination = true;     ///< stratification / weak acyclicity
  bool check_safety = true;          ///< query head coverage
  bool check_schema = true;          ///< unknown relations, arity drift
  bool check_regularization = true;  ///< Def 4.1 partitions
  bool check_satisfiability = true;  ///< syntactic egd constant clashes
  bool check_implication = false;    ///< chase-based redundancy + dead bodies
  bool check_slicing = false;        ///< Σ-slices + termination certificates

  /// Escalate kWarning findings to kError at emission time. Strict mode for
  /// callers that refuse anything the engines would merely auto-correct.
  bool warnings_as_errors = false;

  /// Bounds the chases the implication check runs (per dependency). Each σ
  /// gets this budget afresh — one slow check never starves the others.
  ResourceBudget budget;

  /// When non-null, every emitted diagnostic bumps the per-code counter
  /// `analysis.diag.<code>` here (SHOW STATS / Prometheus visibility).
  MetricsRegistry* metrics = nullptr;

  /// Pre-flight preset: every syntactic check, no chasing — the default
  /// gate inside EquivalenceEngine and the reformulation entry points.
  static AnalyzeOptions Preflight() { return AnalyzeOptions{}; }

  /// Everything on, including the chase-based implication check and the
  /// Σ-slicing / termination-certificate report — the LINT command and
  /// sqleq-lint preset.
  static AnalyzeOptions Full() {
    AnalyzeOptions opts;
    opts.check_implication = true;
    opts.check_slicing = true;
    return opts;
  }
};

/// Analyzes Σ against `schema`. Schema checks are skipped when the schema is
/// empty (the library treats an empty Schema as "unspecified").
AnalysisReport AnalyzeDependencies(const Schema& schema, const DependencySet& sigma,
                                   const AnalyzeOptions& opts = {});

/// Analyzes one (possibly unsafe) query given as raw parts — the form the
/// linter uses for inputs ConjunctiveQuery::Create would reject.
AnalysisReport AnalyzeQueryParts(const Schema& schema, const std::string& name,
                                 const std::vector<Term>& head,
                                 const std::vector<Atom>& body,
                                 const AnalyzeOptions& opts = {});

/// Analyzes a constructed query (safety holds by construction unless the
/// caller used WithBody to break it — the check still runs).
AnalysisReport AnalyzeQuery(const Schema& schema, const ConjunctiveQuery& query,
                            const AnalyzeOptions& opts = {});

/// A query body by name — the minimal shape the Σ-slicing report needs, so
/// the script linter can feed it queries ConjunctiveQuery::Create rejects.
struct QueryBodyRef {
  std::string name;
  std::vector<Atom> body;
};

/// The Σ-slicing / termination-certificate report (analysis/sigma_graph.h):
/// one `termination-certificate` info when the chase of Σ provably
/// terminates (with the static step bound for the largest query), and per
/// query a `sigma-slice-summary` info plus one
/// `dependency-unreachable-for-query` info per pruned dependency, naming
/// the body atom nothing reachable can produce. Callers gate on
/// opts.check_slicing (AnalyzeProgram does); the function itself always
/// runs. All findings are informational — slicing never changes verdicts.
AnalysisReport AnalyzeSigmaSlicing(const Schema& schema, const DependencySet& sigma,
                                   const std::vector<QueryBodyRef>& queries,
                                   const AnalyzeOptions& opts = {});

/// The whole triple: AnalyzeDependencies plus AnalyzeQuery per query, plus
/// AnalyzeSigmaSlicing when opts.check_slicing is on.
AnalysisReport AnalyzeProgram(const Schema& schema, const DependencySet& sigma,
                              const std::vector<ConjunctiveQuery>& queries,
                              const AnalyzeOptions& opts = {});

/// The engine pre-flight against one fixed (schema, Σ), the pair a chase
/// context holds. Construction runs AnalyzeDependencies' syntactic checks
/// (termination, schema, regularization, satisfiability) once; each
/// Analyze call replays their findings and analyzes only its queries. The
/// chase-based implication check and the slicing report depend on the
/// call's budget or queries, so Analyze runs them afresh when `opts` asks.
class SigmaPreflight {
 public:
  /// `schema` and `sigma` must outlive this object.
  SigmaPreflight(const Schema& schema, const DependencySet& sigma);

  /// The report AnalyzeProgram(schema, sigma, queries, opts) returns, with
  /// the same findings in the same order, the same warnings_as_errors
  /// escalation, and the same analysis.diag.<code> counts in opts.metrics.
  /// Allocates nothing when neither Σ nor the queries have findings.
  AnalysisReport Analyze(std::span<const ConjunctiveQuery* const> queries,
                         const AnalyzeOptions& opts) const;

 private:
  /// A Σ finding, un-escalated, with the AnalyzeOptions switch gating it.
  struct Finding {
    bool AnalyzeOptions::*check;
    Diagnostic diagnostic;
  };

  const Schema& schema_;
  const DependencySet& sigma_;
  std::vector<Finding> findings_;
};

}  // namespace sqleq

#endif  // SQLEQ_ANALYSIS_ANALYZER_H_
