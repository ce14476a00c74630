#include "chase/sound_chase.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "chase/assignment_fixing.h"
#include "chase/chase_internal.h"
#include "chase/chase_plan.h"
#include "chase/chase_step.h"
#include "chase/chase_telemetry.h"
#include "chase/checkpoint.h"
#include "chase/flat_db.h"
#include "chase/sigma_plan.h"
#include "constraints/regularize.h"
#include "constraints/weak_acyclicity.h"
#include "util/fault.h"

namespace sqleq {
namespace {

/// Drops duplicate atoms; `droppable` decides per-atom whether duplicates of
/// it may be removed.
template <typename Pred>
ConjunctiveQuery DropDuplicates(const ConjunctiveQuery& q, Pred droppable) {
  std::vector<Atom> body;
  std::unordered_set<Atom, AtomHash> seen;
  for (const Atom& a : q.body()) {
    if (droppable(a) && !seen.insert(a).second) continue;
    body.push_back(a);
  }
  return q.WithBody(std::move(body));
}

/// What decides whether a tgd step is taken: the semantics, and the Σ (with
/// its kernels) the Def 4.3 assignment-fixing test chases under.
struct StepRules {
  Semantics semantics;
  const Schema& schema;
  const DependencySet& sigma;
  const SigmaPlan& plan;
  /// The budget of the nested Def 4.3 test chases.
  const ResourceBudget& budget;
};

/// The atoms a tgd step with homomorphism `h` adds to `q` (`flat` indexes
/// its body), or none when the semantics does not admit the step (an
/// admitted step always adds at least one atom). The added atoms are the
/// instantiated head minus atoms already in the body and repeats within the
/// head; re-adding an existing atom is a no-op under S/BS and the Thm
/// 4.1(2) duplicate drop under B, which is sound only for set-valued
/// relations. Under S every applicable step is admitted. Under B every
/// added atom must be set valued (Thm 4.1(1)), and under B and BS the step
/// must be assignment-fixing (Thms 4.1/4.3, Def 4.3); `key_based` (Def 5.1)
/// implies that without the test chase.
Result<std::vector<Atom>> AdmitTgdStep(const ConjunctiveQuery& q,
                                       const FlatConjunction& flat, const Tgd& tgd,
                                       const TermMap& h, bool key_based,
                                       const StepRules& rules) {
  const bool bag = rules.semantics == Semantics::kBag;
  std::vector<Atom> added;
  for (Atom& a : InstantiateTgdHead(tgd, h)) {
    if (flat.ContainsAtom(a)) {
      if (bag && !rules.schema.IsSetValued(a.predicate())) return std::vector<Atom>();
      continue;
    }
    if (std::find(added.begin(), added.end(), a) == added.end()) {
      added.push_back(std::move(a));
    }
  }
  if (added.empty() || rules.semantics == Semantics::kSet) return added;
  if (bag) {
    for (const Atom& a : added) {
      if (!rules.schema.IsSetValued(a.predicate())) return std::vector<Atom>();
    }
  }
  if (!key_based) {
    SQLEQ_ASSIGN_OR_RETURN(bool fixing, IsAssignmentFixing(q, tgd, h, rules.sigma,
                                                           rules.plan, rules.budget));
    if (!fixing) return std::vector<Atom>();
  }
  return added;
}

/// The atoms of the first admitted step with kernel `di` of `kernels`
/// (enumerated lazily, so later homomorphisms are never looked at), or none
/// when no step is admitted. `delta_from` is the matcher watermark
/// (chase/pattern.h). `*any_applicable` records whether some step applied
/// at all.
Result<std::vector<Atom>> FirstAdmittedTgdStep(const ConjunctiveQuery& q,
                                               const FlatConjunction& flat,
                                               const SigmaPlan& kernels, size_t di,
                                               const Tgd& tgd, bool key_based,
                                               const StepRules& rules,
                                               uint32_t delta_from,
                                               bool* any_applicable) {
  Result<std::vector<Atom>> admitted = std::vector<Atom>();
  kernels.ForEachApplicableTgdHomomorphism(
      di, flat,
      [&](const TermMap& h) {
        *any_applicable = true;
        admitted = AdmitTgdStep(q, flat, tgd, h, key_based, rules);
        return admitted.ok() && admitted->empty();
      },
      delta_from);
  return admitted;
}

/// Which dependencies of one chase run can apply, and from which watermark
/// (docs/compiled_chase.md, "Delta-driven loop"). A dependency is clean
/// once a check found nothing applicable; it turns dirty again, keeping the
/// conjunction size of that check as its matcher watermark, when a tgd step
/// adds atoms its body reads. Resetting it (watermark 0) makes the next
/// check a full one.
class DirtySet {
 public:
  explicit DirtySet(size_t n) : clean_(n, 0), from_(n, 0) {}

  bool clean(size_t di) const { return clean_[di] != 0; }
  /// The delta_from to check dependency `di` with.
  uint32_t from(size_t di) const { return from_[di]; }

  /// A check of `di` against a conjunction of `size` atoms found nothing.
  void MarkClean(size_t di, size_t size) {
    clean_[di] = 1;
    from_[di] = static_cast<uint32_t>(size);
  }
  /// `di` fired, or has applicable steps the semantics did not admit.
  void Reset(size_t di) {
    clean_[di] = 0;
    from_[di] = 0;
  }
  /// An egd step rewrote the conjunction.
  void ResetAll() {
    std::fill(clean_.begin(), clean_.end(), 0);
    std::fill(from_.begin(), from_.end(), 0);
  }
  /// A tgd step added `atom`: dirty every dependency whose body reads it.
  void Touch(const SigmaPlan& plan, const Atom& atom) {
    for (uint32_t di : plan.Readers(InternPredicate(atom.predicate()))) clean_[di] = 0;
  }

 private:
  std::vector<uint8_t> clean_;
  std::vector<uint32_t> from_;
};

/// Runs the set-chase precondition of Thms 4.1/4.3 and Def 4.3 ((Q)Σ,S
/// exists) for a B/BS chase. A probe checkpoint in `runtime.resume` resumes
/// inside it (rewritten to the set-chase phase the inner loop understands,
/// and back on capture).
Status ProbeSetChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                     const SigmaPlan& plan, const Schema& schema,
                     const ChaseRuntime& runtime) {
  ChaseRuntime probe_runtime = runtime;
  probe_runtime.resume = nullptr;
  std::optional<ChaseCheckpoint> probe_resume;
  if (runtime.resume != nullptr &&
      runtime.resume->phase == ChaseCheckpoint::kSetChaseProbePhase) {
    probe_resume = *runtime.resume;
    probe_resume->phase = ChaseCheckpoint::kSetChasePhase;
    probe_runtime.resume = &*probe_resume;
  }
  std::optional<ChaseCheckpoint> probe_checkpoint;
  probe_runtime.checkpoint_out = &probe_checkpoint;
  Result<ChaseOutcome> probe = chase_internal::RunChase(
      q, sigma, plan, Semantics::kSet, schema, probe_runtime,
      /*sigma_terminates=*/false);
  if (probe.ok()) return Status::OK();
  if (probe_checkpoint.has_value() && runtime.checkpoint_out != nullptr) {
    probe_checkpoint->phase = ChaseCheckpoint::kSetChaseProbePhase;
    *runtime.checkpoint_out = std::move(probe_checkpoint);
  }
  return probe.status();
}

}  // namespace

ConjunctiveQuery NormalizeForBag(const ConjunctiveQuery& q, const Schema& schema) {
  return DropDuplicates(
      q, [&schema](const Atom& a) { return schema.IsSetValued(a.predicate()); });
}

namespace chase_internal {

Result<ChaseOutcome> RunChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                              const SigmaPlan& plan, Semantics semantics,
                              const Schema& schema, const ChaseRuntime& runtime,
                              bool sigma_terminates) {
  const bool set = semantics == Semantics::kSet;
  const char* phase =
      set ? ChaseCheckpoint::kSetChasePhase : ChaseCheckpoint::kSoundChasePhase;
  ChaseCounters counters(runtime.metrics);
  TraceSpan span(runtime.trace, set ? "chase.set" : "chase.sound");

  const ChaseCheckpoint* resume =
      runtime.resume != nullptr && runtime.resume->phase == phase ? runtime.resume
                                                                  : nullptr;
  // A sound-chase checkpoint implies the probe already passed. A Σ
  // certified to terminate needs no probe: the set chase it would run
  // terminates on every input (Thm H.1), and a probe-phase checkpoint then
  // just starts the sound chase fresh.
  if (!set && resume == nullptr && !sigma_terminates) {
    SQLEQ_RETURN_IF_ERROR(ProbeSetChase(q, sigma, plan, schema, runtime));
  }

  auto normalize = [&](const ConjunctiveQuery& query) {
    if (semantics == Semantics::kBag) return NormalizeForBag(query, schema);
    // Under S and BS duplicate atoms never affect semantics (Thm 2.1(2)).
    return query.CanonicalRepresentation();
  };

  ChaseOutcome out{normalize(q), {}, false};
  size_t start = 0;
  if (resume != nullptr) {
    SQLEQ_RETURN_IF_ERROR(resume->ReserveFreshNames());
    out.result = resume->state;
    out.trace = resume->trace;
    start = resume->steps_done;
  }
  auto stop = [&](Status status, size_t steps_done) -> Status {
    if (runtime.checkpoint_out != nullptr && IsAnytimeStop(status)) {
      *runtime.checkpoint_out = ChaseCheckpoint{phase, /*subject=*/"", out.result,
                                                out.trace, steps_done};
    }
    return status;
  };
  const ResourceBudget& budget = runtime.budget;
  const StepRules rules{semantics, schema, sigma, plan, budget};
  // The index follows the conjunction: rebuilt here and after egd steps,
  // extended in place after tgd steps. A resumed run starts all-dirty.
  FlatConjunction flat(out.result.body());
  counters.Rebuilt();
  DirtySet dirty(sigma.size());
  for (size_t step = start; step < budget.max_chase_steps; ++step) {
    Status guard = budget.CheckDeadline(set ? "set chase" : "sound chase");
    if (guard.ok()) {
      guard = ProbeSite(runtime.faults, runtime.cancel, fault_sites::kChaseStep);
    }
    if (!guard.ok()) return stop(std::move(guard), step);
    bool applied = false;

    // Egd pass: egd steps are always sound (Thm 4.1(2) / 4.3(2)).
    for (size_t di = 0; di < sigma.size() && !applied; ++di) {
      const Dependency& dep = sigma[di];
      if (!dep.IsEgd()) continue;
      if (dirty.clean(di)) {
        counters.SkippedClean();
        continue;
      }
      std::optional<EgdApplication> app =
          plan.FindEgdApplication(di, flat, dirty.from(di));
      if (!app.has_value()) {
        counters.Satisfied();
        dirty.MarkClean(di, flat.size());
        continue;
      }
      ChaseStepRecord record{dep.label(), /*is_tgd=*/false, {}, app->from, app->to, {}};
      if (app->failure) {
        out.failed = true;
        out.trace.push_back(std::move(record));
        return out;
      }
      ConjunctiveQuery next = normalize(ApplyEgdStep(out.result, *app));
      record.before = std::move(out.result);
      out.result = std::move(next);
      out.trace.push_back(std::move(record));
      counters.Fired(dep.label(), /*is_tgd=*/false);
      flat.Rebuild(out.result.body());
      counters.Rebuilt();
      dirty.ResetAll();
      applied = true;
    }

    // Tgd pass: the first admitted step in Σ order.
    for (size_t di = 0; di < sigma.size() && !applied; ++di) {
      const Dependency& dep = sigma[di];
      if (!dep.IsTgd()) continue;
      if (dirty.clean(di)) {
        counters.SkippedClean();
        continue;
      }
      // Key-based ⇒ assignment-fixing (§5.1); the plan caches Def 5.1.
      const bool key_based = plan.KeyBased(di, semantics == Semantics::kBag);
      bool any_applicable = false;
      SQLEQ_ASSIGN_OR_RETURN(
          std::vector<Atom> added,
          FirstAdmittedTgdStep(out.result, flat, plan, di, dep.tgd(), key_based, rules,
                               dirty.from(di), &any_applicable));
      if (added.empty()) {
        counters.Satisfied();
        // An applicable step the semantics did not admit may be admitted
        // once the query grows (Def 4.3 tests against the whole query).
        if (any_applicable) {
          dirty.Reset(di);
        } else {
          dirty.MarkClean(di, flat.size());
        }
        continue;
      }
      // Admitted atoms are new and pairwise distinct, so the result stays
      // normalized without another pass.
      for (const Atom& a : added) {
        flat.Append(a);
        dirty.Touch(plan, a);
      }
      dirty.Reset(di);
      out.result.AppendAtoms(added);
      out.trace.push_back({dep.label(), /*is_tgd=*/true, std::move(added), {}, {}, {}});
      counters.Fired(dep.label(), /*is_tgd=*/true);
      applied = true;
    }
    if (!applied) return out;  // no admitted step applies — terminal.
  }
  std::string message = std::string(set ? "set" : "sound") + " chase exceeded " +
                        std::to_string(budget.max_chase_steps) +
                        " steps (ResourceBudget::max_chase_steps)";
  if (set) {
    message += IsWeaklyAcyclic(sigma)
                   ? "; Σ is weakly acyclic, so raising the budget will "
                     "terminate (Thm H.1)"
                   : "; Σ is NOT weakly acyclic — the chase may diverge";
  }
  return stop(Status::ResourceExhausted(std::move(message)), budget.max_chase_steps);
}

}  // namespace chase_internal

Result<ChaseOutcome> SoundChase(const ConjunctiveQuery& q, const DependencySet& sigma,
                                Semantics semantics, const Schema& schema,
                                const ChaseRuntime& runtime) {
  SQLEQ_RETURN_IF_ERROR(ReserveFreshNames(q));
  return ChasePlan(sigma, semantics, schema).Run(q, runtime);
}

Result<StepAvailability> ClassifyStep(const ConjunctiveQuery& q, const Dependency& dep,
                                      const DependencySet& sigma, Semantics semantics,
                                      const Schema& schema,
                                      const ResourceBudget& budget) {
  DependencySet regular = RegularizeSigma(sigma);
  FlatConjunction flat(q.body());
  if (dep.IsEgd()) {
    SigmaPlan kernel = SigmaPlan::Compile({dep});
    if (!kernel.FindEgdApplication(0, flat).has_value()) {
      return StepAvailability::kNotApplicable;
    }
    return StepAvailability::kSoundApplicable;  // egd steps are always sound
  }
  // A non-regularized tgd is classified through its regularized set: it is
  // (un)soundly applicable when some piece is.
  DependencySet pieces;
  for (Tgd& piece : RegularizeTgd(dep.tgd())) {
    pieces.push_back(Dependency::FromTgd(std::move(piece)));
  }
  SigmaPlan piece_kernels = SigmaPlan::Compile(pieces);
  if (semantics == Semantics::kSet) {
    for (size_t i = 0; i < pieces.size(); ++i) {
      if (piece_kernels.FindApplicableTgdHomomorphism(i, flat).has_value()) {
        return StepAvailability::kSoundApplicable;
      }
    }
    return StepAvailability::kNotApplicable;
  }
  SigmaPlan plan = SigmaPlan::Compile(regular, schema);
  const StepRules rules{semantics, schema, regular, plan, budget};
  bool any_applicable = false;
  for (size_t i = 0; i < pieces.size(); ++i) {
    const Tgd& tgd = pieces[i].tgd();
    const bool key_based = IsKeyBased(tgd, regular, schema,
                                      /*require_set_valued=*/semantics == Semantics::kBag);
    SQLEQ_ASSIGN_OR_RETURN(std::vector<Atom> added,
                           FirstAdmittedTgdStep(q, flat, piece_kernels, i, tgd,
                                                key_based, rules, /*delta_from=*/0,
                                                &any_applicable));
    if (!added.empty()) return StepAvailability::kSoundApplicable;
  }
  return any_applicable ? StepAvailability::kUnsoundOnly
                        : StepAvailability::kNotApplicable;
}

}  // namespace sqleq
