#include "equivalence/explain.h"

#include "chase/sound_chase.h"
#include "db/satisfaction.h"
#include "equivalence/engine.h"
#include "ir/printer.h"

namespace sqleq {
namespace {

/// Best-effort separating database: evaluate both queries on the canonical
/// database of each chase result; report the first disagreement.
Result<std::optional<std::string>> FindCounterexample(const ConjunctiveQuery& q1,
                                                      const ConjunctiveQuery& q2,
                                                      Semantics semantics,
                                                      const Schema& schema) {
  for (const ConjunctiveQuery* source : {&q1, &q2}) {
    Result<CanonicalDatabase> canon = BuildCanonicalDatabase(*source, schema);
    if (!canon.ok()) continue;  // predicates outside the schema — skip
    std::vector<Database> attempts{canon->database};
    if (semantics == Semantics::kBag) {
      // Lemma D.1-style amplification: duplicate every tuple of every
      // bag-valued relation so multiplicity differences become visible.
      Database amplified(canon->database.schema());
      bool ok = true;
      for (const RelationInfo& info : canon->database.schema().Relations()) {
        Result<RelationInstance> rel = canon->database.GetRelation(info.name);
        if (!rel.ok()) continue;
        uint64_t copies = schema.IsSetValued(info.name) ? 1 : 2;
        for (const auto& [tuple, count] : rel->bag().counts()) {
          if (!amplified.Insert(info.name, tuple, count * copies).ok()) ok = false;
        }
      }
      if (ok) attempts.push_back(std::move(amplified));
    }
    for (const Database& db : attempts) {
      Result<Bag> a1 = Evaluate(q1, db, semantics);
      Result<Bag> a2 = Evaluate(q2, db, semantics);
      if (!a1.ok() || !a2.ok()) continue;
      if (*a1 != *a2) {
        std::string text = "on D(" + source->name() + "):\n";
        text += db.ToString();
        text += "  " + q1.name() + "(D," + SemanticsToString(semantics) +
                ") = " + a1->ToString() + "\n";
        text += "  " + q2.name() + "(D," + SemanticsToString(semantics) +
                ") = " + a2->ToString();
        return std::optional<std::string>(std::move(text));
      }
    }
  }
  return std::optional<std::string>();
}

}  // namespace

std::string EquivalenceExplanation::ToString() const {
  std::string out;
  out += "decision: ";
  out += equivalent ? "EQUIVALENT" : "NOT equivalent";
  out += " under ";
  out += SemanticsToString(semantics);
  out += " semantics\n";
  auto render_side = [&out](const char* label, const ConjunctiveQuery& chased,
                            const std::vector<ChaseStepRecord>& trace, bool failed) {
    out += label;
    out += failed ? " chase FAILED (unsatisfiable under Sigma)\n"
                  : " chased to: " + chased.ToString() + "\n";
    std::vector<std::string> rendered = RenderTrace(chased, trace);
    for (size_t i = 0; i < trace.size(); ++i) {
      out += "    [" + trace[i].dep_label + "] -> " + rendered[i] + "\n";
    }
  };
  render_side("  Q1", chased_q1, trace_q1, q1_failed);
  render_side("  Q2", chased_q2, trace_q2, q2_failed);
  if (witness_forward.has_value()) {
    out += "  witness: " + TermMapToString(*witness_forward) + "\n";
  }
  if (witness_backward.has_value()) {
    out += "  witness (reverse): " + TermMapToString(*witness_backward) + "\n";
  }
  if (counterexample.has_value()) {
    out += "  counterexample " + *counterexample + "\n";
  }
  return out;
}

Result<EquivalenceExplanation> ExplainEquivalence(const ConjunctiveQuery& q1,
                                                  const ConjunctiveQuery& q2,
                                                  const DependencySet& sigma,
                                                  Semantics semantics,
                                                  const Schema& schema,
                                                  const ChaseOptions& options) {
  SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome c1, SoundChase(q1, sigma, semantics, schema, options));
  SQLEQ_ASSIGN_OR_RETURN(ChaseOutcome c2, SoundChase(q2, sigma, semantics, schema, options));

  ChasedDecision d = DecideChased(c1, c2, semantics, schema);
  EquivalenceExplanation out{semantics,           d.equivalent,
                             c1.result,           c2.result,
                             std::move(c1.trace), std::move(c2.trace),
                             c1.failed,           c2.failed,
                             std::move(d.witness_forward), std::move(d.witness_backward),
                             {}};
  if (c1.failed || c2.failed) return out;

  if (!out.equivalent) {
    // The chase results witness the difference more often than the inputs
    // (their canonical databases satisfy most of Σ).
    SQLEQ_ASSIGN_OR_RETURN(
        out.counterexample,
        FindCounterexample(c1.result, c2.result, semantics, schema));
  }
  return out;
}

}  // namespace sqleq
