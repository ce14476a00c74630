#include "ir/term.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace sqleq {
namespace {

// Process-wide interning tables. Append-only: ids handed out are stable for
// the lifetime of the process. Guarded by a mutex; reads take the lock too
// (entries are small, contention is negligible for this workload). Deques
// keep element addresses stable, so name()/value() references stay valid
// across later interning.
/// Transparent, so a lookup by string_view builds no std::string.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>()(s); }
};

struct VarTable {
  std::mutex mu;
  std::deque<std::string> names;
  std::unordered_map<std::string, int32_t, NameHash, std::equal_to<>> index;
};

struct ConstTable {
  std::mutex mu;
  std::deque<Value> values;
  std::unordered_map<std::string, int32_t> index;  // keyed by rendered literal
};

VarTable& Vars() {
  static VarTable* t = new VarTable();
  return *t;
}

ConstTable& Consts() {
  static ConstTable* t = new ConstTable();
  return *t;
}

std::atomic<uint64_t> g_fresh_counter{0};

}  // namespace

std::string ValueToString(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return std::to_string(std::get<int64_t>(v));
  }
  std::string out = "'";
  out += std::get<std::string>(v);
  out += "'";
  return out;
}

Term Term::Var(std::string_view name) {
  assert(!name.empty());
  VarTable& t = Vars();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.index.find(name);
  if (it != t.index.end()) return Term(Kind::kVariable, it->second);
  int32_t id = static_cast<int32_t>(t.names.size());
  t.names.emplace_back(name);
  t.index.emplace(t.names.back(), id);
  return Term(Kind::kVariable, id);
}

Term Term::Const(const Value& v) {
  ConstTable& t = Consts();
  std::string key = ValueToString(v);
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.index.find(key);
  if (it != t.index.end()) return Term(Kind::kConstant, it->second);
  int32_t id = static_cast<int32_t>(t.values.size());
  t.values.push_back(v);
  t.index.emplace(std::move(key), id);
  return Term(Kind::kConstant, id);
}

Term Term::Int(int64_t v) { return Const(Value(v)); }

Term Term::Str(std::string_view s) { return Const(Value(std::string(s))); }

void Term::ResetFreshCounterForTesting(uint64_t value) {
  g_fresh_counter.store(value);
}

uint64_t Term::FreshCounterForTesting() { return g_fresh_counter.load(); }

void Term::ReserveFreshThrough(uint64_t n) {
  assert(n < kFreshReserveLimit);
  uint64_t current = g_fresh_counter.load();
  while (current <= n && !g_fresh_counter.compare_exchange_weak(current, n + 1)) {
  }
}

Term Term::FreshVar(std::string_view prefix) {
  uint64_t n = g_fresh_counter.fetch_add(1);
  if (n == UINT64_MAX) {
    std::fputs("sqleq: FreshVar counter exhausted\n", stderr);
    std::abort();
  }
  std::string name(prefix);
  name += '#';
  name += std::to_string(n);
  return Var(name);
}

std::string_view Term::name() const {
  assert(IsVariable());
  VarTable& t = Vars();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names[static_cast<size_t>(id_)];
}

const Value& Term::value() const {
  assert(IsConstant());
  ConstTable& t = Consts();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.values[static_cast<size_t>(id_)];
}

std::string Term::ToString() const {
  if (IsVariable()) return std::string(name());
  return ValueToString(value());
}

}  // namespace sqleq
