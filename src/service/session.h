// Per-connection state of a sqleqd session: the catalog (schema + Σ) the
// client has uploaded, mirroring what the shell's CREATE TABLE / DEP
// statements build locally, plus what the session builds once per catalog
// version: one chase context per semantics. Queries in requests resolve
// against the catalog — SQL text translates through sql/translate, Datalog
// text parses directly. Sessions are confined to their connection thread;
// no locking.
#ifndef SQLEQ_SERVICE_SESSION_H_
#define SQLEQ_SERVICE_SESSION_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "equivalence/engine.h"
#include "ir/query.h"
#include "service/protocol.h"
#include "sql/translate.h"
#include "util/status.h"

namespace sqleq {
namespace service {

class Session {
 public:
  /// Applies a ';'-separated CREATE TABLE script to the session catalog
  /// (keys/fks induce Σ, as in the shell). INSERTs are rejected — the
  /// service decides equivalence, it stores no data.
  Status ApplyDdl(std::string_view script);

  /// Declares a bare relation (no constraints), for catalogs built without
  /// SQL DDL.
  Status AddRelation(const std::string& name, size_t arity, bool set_valued);

  /// Parses and appends one dependency statement (Datalog syntax; an egd
  /// conclusion with k equations contributes k dependencies). Returns how
  /// many were added. An empty label defaults to "sigma<N>".
  Result<size_t> AddDependency(std::string_view text, std::string label);

  /// Resolves query text: SQL (leading SELECT, translated against the
  /// session catalog — aggregates are rejected, the equivalence protocol is
  /// CQ-only) or Datalog ("name(head) :- body"). `name` renames the result.
  Result<ConjunctiveQuery> ResolveQuery(std::string_view text, const std::string& name) const;

  /// The chase context of (semantics, the session's Σ and schema) in
  /// `engine`. It is resolved through EquivalenceEngine::ContextFor on first
  /// use after each catalog change, or after the engine that owned the held
  /// context was released (Server::ResetMemo swaps in a fresh one), and
  /// held otherwise, so a check neither copies nor hashes the catalog. The
  /// session holds it weakly, so a replaced engine's contexts are freed with
  /// the engine; the caller keeps the returned pointer for the call.
  std::shared_ptr<ChaseContext> ContextIn(EquivalenceEngine& engine, Semantics semantics);

  const sql::Catalog& catalog() const { return catalog_; }

  /// The protocol version this connection negotiated in hello. Connections
  /// start at v1 (a client that never says hello, or says it without
  /// max_protocol, keeps the PR-8 wire behavior byte-for-byte); the v2
  /// verbs and not_owner redirects only apply at kV2 and above.
  ProtocolVersion protocol() const { return protocol_; }
  void set_protocol(ProtocolVersion v) { protocol_ = v; }

 private:
  /// Drops everything built for the previous catalog version.
  void CatalogChanged();

  sql::Catalog catalog_;
  /// Indexed by Semantics. The engine owns the contexts.
  std::array<std::weak_ptr<ChaseContext>, 3> contexts_;
  int dep_counter_ = 0;
  ProtocolVersion protocol_ = ProtocolVersion::kV1;
};

}  // namespace service
}  // namespace sqleq

#endif  // SQLEQ_SERVICE_SESSION_H_
