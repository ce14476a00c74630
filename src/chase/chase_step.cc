#include "chase/chase_step.h"

namespace sqleq {

std::vector<Atom> InstantiateTgdHead(const Tgd& tgd, const TermMap& h,
                                     TermMap* out_fresh) {
  TermMap full = h;
  for (Term z : tgd.ExistentialVariables()) {
    full.emplace(z, Term::FreshVar(std::string(z.name())));
  }
  if (out_fresh != nullptr) {
    out_fresh->clear();
    for (Term z : tgd.ExistentialVariables()) out_fresh->emplace(z, full.at(z));
  }
  return ApplyTermMap(full, tgd.head());
}

ConjunctiveQuery ApplyTgdStep(const ConjunctiveQuery& q, const Tgd& tgd,
                              const TermMap& h) {
  std::vector<Atom> body = q.body();
  for (Atom& a : InstantiateTgdHead(tgd, h)) body.push_back(std::move(a));
  return q.WithBody(std::move(body));
}

ConjunctiveQuery ApplyEgdStep(const ConjunctiveQuery& q, const EgdApplication& app) {
  TermMap replace{{app.from, app.to}};
  return q.Substitute(replace);
}

}  // namespace sqleq
