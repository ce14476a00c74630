// Chase checkpoints (docs/robustness.md): when a budgeted chase trips a
// limit, its loop state — the chased-atom set, the fired-dependency frontier
// (the trace), and the step count — is captured instead of discarded, so a
// retry with an escalated budget resumes where the previous attempt stopped
// rather than re-firing every step. SetChase/SoundChase accept a checkpoint
// through ChaseRuntime::resume and capture one through
// ChaseRuntime::checkpoint_out; ChaseMemo stamps the canonical query key
// into `subject` so a checkpoint is only ever replayed against the query it
// belongs to.
//
// Checkpoints serialize to a line-based text format (term kinds are tagged
// explicitly — chase-introduced fresh variables like "v#7" do not survive a
// round trip through the Datalog parser), so a deadline-bound service can
// park an interrupted chase and resume it in a later process.
#ifndef SQLEQ_CHASE_CHECKPOINT_H_
#define SQLEQ_CHASE_CHECKPOINT_H_

#include <charconv>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "chase/set_chase.h"
#include "ir/query.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace sqleq {

/// The resumable state of an interrupted SetChase/SoundChase run.
struct ChaseCheckpoint {
  /// Which loop was interrupted; resume dispatches on it (a probe checkpoint
  /// restarts inside the sound chase's set-chase precondition probe, a
  /// sound-chase checkpoint skips the already-passed probe).
  static constexpr const char* kSetChasePhase = "set-chase";
  static constexpr const char* kSetChaseProbePhase = "set-chase-probe";
  static constexpr const char* kSoundChasePhase = "sound-chase";

  std::string phase;
  /// CanonicalQueryKey of the query the checkpoint belongs to, stamped by
  /// ChaseMemo; empty for direct SetChase/SoundChase captures (then matching
  /// checkpoint to query is the caller's responsibility).
  std::string subject;
  /// The query at interruption time: head + chased-atom set.
  ConjunctiveQuery state;
  /// Fired-dependency frontier: the trace up to the interruption.
  std::vector<ChaseStepRecord> trace;
  /// Steps already fired; the resumed loop starts here against the
  /// remaining step budget.
  size_t steps_done = 0;

  std::string Serialize() const;
  static Result<ChaseCheckpoint> Deserialize(std::string_view text);
};

// ---- Serialization helpers shared with the backchase/C&B checkpoints
// (reformulation/backchase.h, reformulation/candb.h). ----

/// Escapes '\\', '\n', and '\t' so a field embeds into the line/tab-based
/// checkpoint format.
std::string EscapeField(std::string_view s);
Result<std::string> UnescapeField(std::string_view s);

/// Parses all of `text` as a decimal integer of T's range: false on empty
/// input, stray characters, or overflow.
template <typename T>
bool ParseDecimal(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// One-line, kind-tagged query serialization ("V:" variables, "I:"/"S:"
/// constants), exact for chase-introduced fresh variables.
std::string SerializeQuery(const ConjunctiveQuery& q);
Result<ConjunctiveQuery> DeserializeQuery(std::string_view line);

/// One trace entry on one line: "<label>\t<kind>..." with kind T (a tgd
/// step, then its added atoms as in SerializeQuery), E (an egd step, then
/// from, to and SerializeQuery of the query before it) or F (the failing
/// egd step, then its two constants).
std::string SerializeStepRecord(const ChaseStepRecord& record);
Result<ChaseStepRecord> DeserializeStepRecord(std::string_view line);

/// Appends one "trace <record>" line per step: the trace block of both a
/// checkpoint and a memo record (chase/memo_store.h).
void AppendTraceLines(const std::vector<ChaseStepRecord>& trace, std::string* out);

/// One key of a line-keyed record and the parser for its value.
struct KeyedField {
  std::string_view key;
  FunctionRef<Status(std::string_view value)> parse;
};

/// The reader under ChaseCheckpoint::Deserialize and ParseChaseOutcomeBody
/// (chase/memo_store.h): `text` is "<key> <value>" lines closed by an "end"
/// line. Blank lines are skipped and nothing after "end" is read. Each line
/// goes to the parser of its key. Errors are InvalidArgument prefixed with
/// `what`: a line without a space, an unknown key, a failing parser, or a
/// missing "end" ("<what>: truncated").
Status ReadKeyedLines(std::string_view text, std::string_view what,
                      std::initializer_list<KeyedField> fields);

}  // namespace sqleq

#endif  // SQLEQ_CHASE_CHECKPOINT_H_
