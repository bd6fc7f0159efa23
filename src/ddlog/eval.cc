#include "ddlog/eval.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/arena.h"
#include "base/check.h"
#include "base/hash.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "sat/preprocess.h"
#include "sat/solver.h"

namespace obda::ddlog {

namespace {

using data::ConstId;

/// Key for a ground IDB atom: [pred, arg1, .., argk].
using AtomKey = std::vector<std::uint32_t>;

/// Sorts by literal code and dedupes; returns false if the clause is a
/// tautology (x ∨ ¬x). Must agree byte-for-byte with the normalization
/// sat::Preprocess applies to its input, because the incremental CNF
/// patch looks its clauses up in an index built from Preprocess output.
bool NormalizeClause(std::vector<sat::Lit>* lits) {
  std::sort(lits->begin(), lits->end(),
            [](sat::Lit a, sat::Lit b) { return a.code < b.code; });
  lits->erase(std::unique(lits->begin(), lits->end(),
                          [](sat::Lit a, sat::Lit b) {
                            return a.code == b.code;
                          }),
              lits->end());
  for (std::size_t i = 1; i < lits->size(); ++i) {
    if ((*lits)[i].var() == (*lits)[i - 1].var()) return false;
  }
  return true;
}

/// Provenance key tag for "constant c is in the active domain" — the
/// pseudo-fact a free-variable binding depends on. No real relation can
/// carry this id.
constexpr std::uint32_t kAdomTag = 0xffffffffu;

/// Registry handles for the grounder + certain-answer engine.
struct DdlogCounters {
  obs::Counter& ground_calls = obs::GetCounter("ddlog.ground_calls");
  /// One per ground clause: each is one firing of a rule under a
  /// substitution satisfying its EDB body in D.
  obs::Counter& rule_firings = obs::GetCounter("ddlog.rule_firings");
  /// Firings whose clause keeps >= 2 head atoms (a real disjunctive
  /// branching point for the model search).
  obs::Counter& disjunctive_branchings =
      obs::GetCounter("ddlog.disjunctive_branchings");
  obs::Counter& ground_atoms = obs::GetCounter("ddlog.ground_atoms");
  obs::Counter& certain_checks = obs::GetCounter("ddlog.certain_checks");
  /// Probes answered from a worker's cached model without a Solve():
  /// the last model found already avoided the probed goal atom.
  obs::Counter& model_cache_hits =
      obs::GetCounter("ddlog.model_cache_hits");
  /// Join indexes materialized by the grounder (one per distinct
  /// (relation, bound-position pattern) probed during grounding).
  obs::Counter& index_builds = obs::GetCounter("ddlog.index_builds");
  /// Batched probing: candidate tuples routed through a grouped Solve
  /// (batched_probes), the grouped Solves themselves (batch_solves), and
  /// the unsat groups that fell back to per-tuple probes
  /// (batch_fallbacks). batched_probes / batch_solves is the effective
  /// probe fan-in.
  obs::Counter& batch_solves = obs::GetCounter("ddlog.batch_solves");
  obs::Counter& batch_fallbacks =
      obs::GetCounter("ddlog.batch_fallbacks");
  obs::Counter& batched_probes = obs::GetCounter("ddlog.batched_probes");
  /// Planner prefilter: candidates offered to the installed TuplePrefilter
  /// (prefilter_checks) and the ones it certified as answers without a
  /// probe (prefilter_hits). hits / (checks - model-cache-style skips)
  /// is the serving layer's short-circuit rate.
  obs::Counter& prefilter_checks =
      obs::GetCounter("ddlog.prefilter_checks");
  obs::Counter& prefilter_hits = obs::GetCounter("ddlog.prefilter_hits");
  /// Incremental maintenance: ApplyDelta calls and the firings they
  /// retracted / emitted against the pinned grounding.
  obs::Counter& delta_grounds = obs::GetCounter("ddlog.delta_grounds");
  obs::Counter& delta_clauses_added =
      obs::GetCounter("ddlog.delta_clauses_added");
  obs::Counter& delta_clauses_retracted =
      obs::GetCounter("ddlog.delta_clauses_retracted");
  obs::TimerStat& ground = obs::GetTimer("ddlog.ground");
  /// Latency distributions: grounding builds, ApplyDelta patches, and
  /// individual SAT probes (ddlog.probe counts only probes that ran a
  /// Solve, not model-cache hits — the cached path is branch-and-load
  /// cheap by design).
  obs::Histogram& ground_hist = obs::GetHistogram("ddlog.ground");
  obs::Histogram& delta_ground_hist =
      obs::GetHistogram("ddlog.delta_ground");
  obs::Histogram& probe_hist = obs::GetHistogram("ddlog.probe");

  static DdlogCounters& Get() {
    static DdlogCounters counters;
    return counters;
  }
};

/// The product of grounding: every ground clause (a rule *firing*), the
/// ground atom -> variable numbering, and — when delta maintenance is on —
/// a provenance map from each supporting fact to the firings it supports.
/// Built once per GroundedQuery and patched in place by ApplyDelta; the
/// worker solvers never read it directly (they load the preprocessed CNF
/// derived from it), so mutation is safe between probe batches.
struct GroundedClauses {
  struct Firing {
    std::vector<sat::Lit> lits;
    /// Sorted, deduplicated fact ids this firing's substitution matched
    /// (EDB body facts + adom pseudo-facts for free variables). Empty for
    /// fully-ground rules, which no data change can invalidate.
    std::vector<std::uint32_t> deps;
    std::uint64_t hash = 0;
    bool dead = false;
  };

  std::size_t num_vars = 0;
  /// Slot-stable firing store: KillFiring marks a slot dead and recycles
  /// it through `free_slots`; live firings keep their slot forever.
  std::vector<Firing> firings;
  std::vector<std::uint32_t> free_slots;
  std::size_t num_live = 0;
  std::unordered_map<AtomKey, sat::Var, base::VectorHash<std::uint32_t>>
      atom_vars;
  bool track_deps = false;
  /// Interned supporting facts: [rel, args...] for EDB facts,
  /// [kAdomTag, c] for active-domain constants.
  std::unordered_map<AtomKey, std::uint32_t, base::VectorHash<std::uint32_t>>
      fact_ids;
  /// fact id -> live firing slots it supports (eagerly maintained: a
  /// killed firing is removed from every list immediately, so entries are
  /// never stale).
  std::vector<std::vector<std::uint32_t>> fact_firings;
  /// Sum of per-firing hashes over live firings — the order-independent
  /// part of the grounding fingerprint, maintained incrementally.
  std::uint64_t clause_hash_sum = 0;
  /// When set (one ApplyDelta pass in raw-CNF mode), KillFiring and
  /// AddFiring record the clause-level delta so Impl::PatchCnf can patch
  /// the CNF in O(|delta|) instead of re-deriving it from every firing.
  bool log_patch = false;
  std::vector<std::vector<sat::Lit>> killed_lits;
  std::vector<std::uint32_t> added_slots;

  /// The variable of goal atom pred(args), or `fallback` when the atom was
  /// never grounded. An ungrounded goal atom appears in no clause, so any
  /// unconstrained variable is observationally equivalent to the fresh var
  /// the sequential engine used to mint per absent atom.
  sat::Var GoalVar(PredId pred, const std::vector<ConstId>& args,
                   sat::Var fallback) const {
    AtomKey key;
    key.reserve(args.size() + 1);
    key.push_back(pred);
    for (ConstId c : args) key.push_back(c);
    auto it = atom_vars.find(key);
    return it == atom_vars.end() ? fallback : it->second;
  }

  static std::uint64_t FiringHash(const std::vector<sat::Lit>& lits) {
    std::vector<std::uint32_t> codes;
    codes.reserve(lits.size());
    for (sat::Lit l : lits) codes.push_back(static_cast<std::uint32_t>(l.code));
    std::sort(codes.begin(), codes.end());
    return static_cast<std::uint64_t>(
        base::HashRange(codes.begin(), codes.end(), codes.size()));
  }

  std::uint32_t InternFact(const AtomKey& key) {
    auto it = fact_ids.find(key);
    if (it != fact_ids.end()) return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(fact_firings.size());
    fact_ids.emplace(key, id);
    fact_firings.emplace_back();
    return id;
  }

  std::uint32_t AddFiring(std::vector<sat::Lit> lits,
                          std::vector<std::uint32_t> deps) {
    Firing f;
    f.hash = FiringHash(lits);
    f.lits = std::move(lits);
    f.deps = std::move(deps);
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
      firings[slot] = std::move(f);
    } else {
      slot = static_cast<std::uint32_t>(firings.size());
      firings.push_back(std::move(f));
    }
    for (std::uint32_t dep : firings[slot].deps) {
      fact_firings[dep].push_back(slot);
    }
    clause_hash_sum += firings[slot].hash;
    ++num_live;
    if (log_patch) added_slots.push_back(slot);
    return slot;
  }

  void KillFiring(std::uint32_t slot) {
    Firing& f = firings[slot];
    if (f.dead) return;
    f.dead = true;
    clause_hash_sum -= f.hash;
    --num_live;
    for (std::uint32_t dep : f.deps) {
      auto& list = fact_firings[dep];
      auto it = std::find(list.begin(), list.end(), slot);
      if (it != list.end()) list.erase(it);
    }
    if (log_patch) killed_lits.push_back(std::move(f.lits));
    f.lits.clear();
    f.lits.shrink_to_fit();
    f.deps.clear();
    f.deps.shrink_to_fit();
    free_slots.push_back(slot);
  }
};

/// How one canonical support slot (an EDB body atom, or a free variable)
/// may range during a delta grounding pass.
enum class SlotClass : std::uint8_t {
  kAll,        // anything in the new instance / new adom
  kOldOnly,    // only supports that survive from the old instance
  kAddedOnly,  // only supports introduced by this delta
};

/// Delta-pass lookup structures, derived once per ApplyDelta.
struct DeltaCtx {
  /// rel -> added tuples in delta order (drives kAddedOnly atom slots).
  std::unordered_map<data::RelationId, std::vector<std::vector<ConstId>>>
      added_by_rel;
  /// rel -> set of added arg vectors (filters kOldOnly atom slots).
  std::unordered_map<data::RelationId,
                     std::unordered_set<AtomKey,
                                        base::VectorHash<std::uint32_t>>>
      added_sets;
  /// Constants new to the active domain, sorted.
  std::vector<ConstId> added_consts;
};

/// Grounds one program over one instance, emitting firings into a
/// GroundedClauses snapshot. Single-threaded; lives only for the duration
/// of one Build or ApplyDelta.
///
/// Full-build mode enumerates every substitution satisfying the rule's
/// EDB body in D. Delta mode (non-null `delta`) enumerates exactly the
/// NEW firings after a fact/constant diff: for each canonical support
/// slot (EDB atoms in body order, then free variables ascending) it runs
/// one pass where that slot ranges over *added* supports only, earlier
/// slots over *surviving* supports only, and later slots over everything —
/// so a firing with added supports at canonical slots A is emitted in
/// exactly one pass, the one pivoted at min(A), and firings whose supports
/// are all old (already present) are never re-emitted.
struct Grounder {
  struct PlannedAtom {
    const Atom* atom = nullptr;
    /// Index into the rule's EDB atoms in body order (the canonical slot).
    std::size_t body_index = 0;
    SlotClass cls = SlotClass::kAll;
  };

  const Program* program = nullptr;
  const data::Instance* instance = nullptr;
  const std::vector<ConstId>* adom = nullptr;
  std::uint64_t max_ground_clauses = 0;
  GroundedClauses* out = nullptr;
  bool track_deps = false;
  const DeltaCtx* delta = nullptr;
  /// Fact ids supporting the current partial substitution (recursion
  /// path); snapshotted (sorted + deduplicated) into each emitted firing.
  std::vector<std::uint32_t> dep_stack;
  /// Join indexes, built lazily per (relation, bound-position mask):
  /// packed values at the masked positions -> matching tuple indices,
  /// stored CSR-style as (offset, len) windows into one arena-backed
  /// pool so a probe returns a contiguous span and the build streams the
  /// instance's SoA columns instead of re-assembling row tuples.
  /// Keyed by (rel << 32) | mask.
  struct JoinIndex {
    std::unordered_map<AtomKey, std::pair<std::uint32_t, std::uint32_t>,
                       base::VectorHash<std::uint32_t>>
        buckets;  // key -> (pool offset, run length)
    const std::uint32_t* pool = nullptr;
  };
  std::unordered_map<std::uint64_t, JoinIndex> join_indexes;
  /// Owns every join-index pool; dies with the grounder (the indexes are
  /// only consulted during one Build / ApplyDelta pass).
  base::Arena index_arena;

  /// Tuple indices of `rel` whose masked positions carry exactly the
  /// values in `key` (in position order), ascending. Returns an empty
  /// span when no tuple matches. Builds the index for this (rel, mask)
  /// on first probe.
  std::span<const std::uint32_t> ProbeJoinIndex(data::RelationId rel,
                                                std::uint32_t mask,
                                                const AtomKey& key) {
    const std::uint64_t slot = (static_cast<std::uint64_t>(rel) << 32) | mask;
    auto it = join_indexes.find(slot);
    if (it == join_indexes.end()) {
      it = join_indexes.emplace(slot, JoinIndex()).first;
      JoinIndex& index = it->second;
      const std::size_t num_tuples = instance->NumTuples(rel);
      // Column pointers for the masked positions, gathered once: pass 1
      // counts each key's run, pass 2 scatters tuple ids — both straight
      // streaming reads of the SoA columns.
      std::vector<std::span<const ConstId>> cols;
      for (std::uint32_t p = 0; p < 32; ++p) {
        if ((mask >> p) & 1u) cols.push_back(instance->Column(rel, p));
      }
      AtomKey packed(cols.size());
      for (std::uint32_t t = 0; t < num_tuples; ++t) {
        for (std::size_t j = 0; j < cols.size(); ++j) packed[j] = cols[j][t];
        ++index.buckets[packed].second;
      }
      std::uint32_t* pool =
          index_arena.AllocateArray<std::uint32_t>(num_tuples);
      index.pool = pool;
      std::uint32_t offset = 0;
      for (auto& [unused, window] : index.buckets) {
        window.first = offset;
        offset += window.second;
        window.second = 0;  // reused as the fill cursor in pass 2
      }
      for (std::uint32_t t = 0; t < num_tuples; ++t) {
        for (std::size_t j = 0; j < cols.size(); ++j) packed[j] = cols[j][t];
        auto& window = index.buckets.find(packed)->second;
        pool[window.first + window.second++] = t;
      }
      DdlogCounters::Get().index_builds.Add(1);
    }
    const JoinIndex& index = it->second;
    auto bucket = index.buckets.find(key);
    if (bucket == index.buckets.end()) return {};
    return std::span<const std::uint32_t>(
        index.pool + bucket->second.first, bucket->second.second);
  }

  sat::Var VarFor(PredId pred, const std::vector<ConstId>& args) {
    AtomKey key;
    key.reserve(args.size() + 1);
    key.push_back(pred);
    for (ConstId c : args) key.push_back(c);
    auto it = out->atom_vars.find(key);
    if (it != out->atom_vars.end()) return it->second;
    sat::Var v = static_cast<sat::Var>(out->num_vars++);
    out->atom_vars.emplace(std::move(key), v);
    DdlogCounters::Get().ground_atoms.Add(1);
    return v;
  }

  /// Emits the firing for `rule` under the full substitution `sub`.
  void EmitClause(const Rule& rule, const std::vector<ConstId>& sub) {
    std::vector<sat::Lit> clause;
    for (const Atom& a : rule.body) {
      if (program->IsEdb(a.pred)) continue;  // already checked true
      std::vector<ConstId> args;
      args.reserve(a.vars.size());
      for (VarId v : a.vars) args.push_back(sub[v]);
      clause.push_back(sat::Lit::Neg(VarFor(a.pred, args)));
    }
    for (const Atom& a : rule.head) {
      std::vector<ConstId> args;
      args.reserve(a.vars.size());
      for (VarId v : a.vars) args.push_back(sub[v]);
      clause.push_back(sat::Lit::Pos(VarFor(a.pred, args)));
    }
    const std::size_t head_lits = rule.head.size();
    std::vector<std::uint32_t> deps;
    if (track_deps) {
      deps = dep_stack;
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    }
    out->AddFiring(std::move(clause), std::move(deps));
    DdlogCounters& counters = DdlogCounters::Get();
    counters.rule_firings.Add(1);
    if (head_lits >= 2) counters.disjunctive_branchings.Add(1);
  }

  /// Greedy selectivity order over the not-yet-`used` atoms: repeatedly
  /// pick the atom with the most positions bound by already-ordered atoms
  /// (ties: smaller relation, so the first pick is the smallest relation).
  /// Bound positions turn the per-depth scan in GroundEdb into an index
  /// lookup. The set of enumerated substitutions is order-independent.
  std::vector<std::size_t> GreedyOrderIdx(
      const std::vector<const Atom*>& atoms, std::vector<bool> used,
      std::vector<bool> var_bound) const {
    std::vector<std::size_t> order;
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (!used[i]) ++remaining;
    }
    for (std::size_t step = 0; step < remaining; ++step) {
      std::size_t best = atoms.size();
      std::size_t best_bound = 0;
      std::size_t best_tuples = 0;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        std::size_t bound = 0;
        for (VarId v : atoms[i]->vars) {
          if (var_bound[static_cast<std::size_t>(v)]) ++bound;
        }
        const std::size_t tuples = instance->NumTuples(atoms[i]->pred);
        if (best == atoms.size() || bound > best_bound ||
            (bound == best_bound && tuples < best_tuples)) {
          best = i;
          best_bound = bound;
          best_tuples = tuples;
        }
      }
      used[best] = true;
      order.push_back(best);
      for (VarId v : atoms[best]->vars) {
        var_bound[static_cast<std::size_t>(v)] = true;
      }
    }
    return order;
  }

  /// EDB atoms of `rule` in body order (the canonical slot order) and the
  /// variables bound by none of them (enumerated over adom).
  static void SplitRule(const Program& program, const Rule& rule,
                        std::vector<const Atom*>* edb_atoms,
                        std::vector<VarId>* free_vars) {
    const int num_vars = rule.NumVars();
    for (const Atom& a : rule.body) {
      if (program.IsEdb(a.pred)) edb_atoms->push_back(&a);
    }
    std::vector<bool> in_edb(static_cast<std::size_t>(num_vars), false);
    for (const Atom* a : *edb_atoms) {
      for (VarId v : a->vars) in_edb[static_cast<std::size_t>(v)] = true;
    }
    for (VarId v = 0; v < num_vars; ++v) {
      if (!in_edb[static_cast<std::size_t>(v)]) free_vars->push_back(v);
    }
  }

  /// Full-build enumeration. Returns false if the clause budget was
  /// exceeded.
  bool GroundRule(const Rule& rule) {
    std::vector<const Atom*> edb_atoms;
    std::vector<VarId> free_vars;
    SplitRule(*program, rule, &edb_atoms, &free_vars);
    std::vector<ConstId> sub(static_cast<std::size_t>(rule.NumVars()),
                             data::kInvalidConst);
    std::vector<PlannedAtom> plan;
    plan.reserve(edb_atoms.size());
    for (std::size_t i :
         GreedyOrderIdx(edb_atoms, std::vector<bool>(edb_atoms.size(), false),
                        std::vector<bool>(sub.size(), false))) {
      plan.push_back({edb_atoms[i], i, SlotClass::kAll});
    }
    const std::vector<SlotClass> free_cls(free_vars.size(), SlotClass::kAll);
    dep_stack.clear();
    return GroundEdb(rule, plan, 0, free_vars, free_cls, &sub);
  }

  /// Delta enumeration: one pass per canonical support slot that can carry
  /// an added support (see the class comment for the exactly-once
  /// argument). Returns false if the clause budget was exceeded.
  bool GroundRuleDelta(const Rule& rule, const DeltaCtx& ctx) {
    std::vector<const Atom*> edb_atoms;
    std::vector<VarId> free_vars;
    SplitRule(*program, rule, &edb_atoms, &free_vars);
    std::vector<ConstId> sub(static_cast<std::size_t>(rule.NumVars()),
                             data::kInvalidConst);
    for (std::size_t pi = 0; pi < edb_atoms.size(); ++pi) {
      auto it = ctx.added_by_rel.find(edb_atoms[pi]->pred);
      if (it == ctx.added_by_rel.end() || it->second.empty()) continue;
      std::vector<PlannedAtom> plan;
      plan.reserve(edb_atoms.size());
      plan.push_back({edb_atoms[pi], pi, SlotClass::kAddedOnly});
      std::vector<bool> used(edb_atoms.size(), false);
      used[pi] = true;
      std::vector<bool> var_bound(sub.size(), false);
      for (VarId v : edb_atoms[pi]->vars) {
        var_bound[static_cast<std::size_t>(v)] = true;
      }
      for (std::size_t i : GreedyOrderIdx(edb_atoms, used, var_bound)) {
        plan.push_back(
            {edb_atoms[i], i, i < pi ? SlotClass::kOldOnly : SlotClass::kAll});
      }
      const std::vector<SlotClass> free_cls(free_vars.size(), SlotClass::kAll);
      dep_stack.clear();
      if (!GroundEdb(rule, plan, 0, free_vars, free_cls, &sub)) return false;
    }
    if (!ctx.added_consts.empty()) {
      for (std::size_t fi = 0; fi < free_vars.size(); ++fi) {
        std::vector<PlannedAtom> plan;
        plan.reserve(edb_atoms.size());
        for (std::size_t i : GreedyOrderIdx(
                 edb_atoms, std::vector<bool>(edb_atoms.size(), false),
                 std::vector<bool>(sub.size(), false))) {
          plan.push_back({edb_atoms[i], i, SlotClass::kOldOnly});
        }
        std::vector<SlotClass> free_cls(free_vars.size());
        for (std::size_t j = 0; j < free_vars.size(); ++j) {
          free_cls[j] = j < fi ? SlotClass::kOldOnly
                               : (j == fi ? SlotClass::kAddedOnly
                                          : SlotClass::kAll);
        }
        dep_stack.clear();
        if (!GroundEdb(rule, plan, 0, free_vars, free_cls, &sub)) return false;
      }
    }
    return true;
  }

  /// Binds `tuple` against atom `a` under the current partial
  /// substitution, recurses, and restores. `tuple` is any random-access
  /// range of ConstId. Returns false iff the budget tripped below.
  template <typename TupleT>
  bool TryTuple(const Rule& rule, const std::vector<PlannedAtom>& plan,
                std::size_t index, const Atom& a, const TupleT& tuple,
                const std::vector<VarId>& free_vars,
                const std::vector<SlotClass>& free_cls,
                std::vector<ConstId>* sub) {
    bool ok = true;
    std::vector<std::pair<VarId, ConstId>> bound;
    for (std::size_t p = 0; p < a.vars.size(); ++p) {
      VarId v = a.vars[p];
      ConstId cur = (*sub)[static_cast<std::size_t>(v)];
      if (cur == data::kInvalidConst) {
        (*sub)[static_cast<std::size_t>(v)] = tuple[p];
        bound.emplace_back(v, tuple[p]);
      } else if (cur != tuple[p]) {
        ok = false;
        break;
      }
    }
    bool keep_going = true;
    if (ok) {
      if (track_deps) {
        AtomKey key;
        key.reserve(a.vars.size() + 1);
        key.push_back(a.pred);
        for (std::size_t p = 0; p < a.vars.size(); ++p) {
          key.push_back(tuple[p]);
        }
        dep_stack.push_back(out->InternFact(key));
      }
      keep_going = GroundEdb(rule, plan, index + 1, free_vars, free_cls, sub);
      if (track_deps) dep_stack.pop_back();
    }
    for (auto& [v, c] : bound) {
      (void)c;
      (*sub)[static_cast<std::size_t>(v)] = data::kInvalidConst;
    }
    return keep_going;
  }

  bool GroundEdb(const Rule& rule, const std::vector<PlannedAtom>& plan,
                 std::size_t index, const std::vector<VarId>& free_vars,
                 const std::vector<SlotClass>& free_cls,
                 std::vector<ConstId>* sub) {
    if (index == plan.size()) {
      return GroundFree(rule, free_vars, free_cls, 0, sub);
    }
    const Atom& a = *plan[index].atom;
    const data::RelationId rel = a.pred;  // EDB ids coincide with schema ids
    if (plan[index].cls == SlotClass::kAddedOnly) {
      for (const std::vector<ConstId>& tuple : delta->added_by_rel.at(rel)) {
        if (!TryTuple(rule, plan, index, a, tuple, free_vars, free_cls, sub)) {
          return false;
        }
      }
      return true;
    }
    const std::unordered_set<AtomKey, base::VectorHash<std::uint32_t>>*
        skip_added = nullptr;
    if (plan[index].cls == SlotClass::kOldOnly) {
      auto it = delta->added_sets.find(rel);
      if (it != delta->added_sets.end()) skip_added = &it->second;
    }
    // Probe the join index on the positions already bound by the partial
    // substitution (a variable repeated within this atom is bound by the
    // check loop in TryTuple, not the mask). Mask-free atoms fall back to
    // a full scan; arities beyond the mask width are not expected but
    // kept correct the same way.
    std::uint32_t mask = 0;
    AtomKey key;
    if (a.vars.size() <= 32) {
      for (std::size_t p = 0; p < a.vars.size(); ++p) {
        ConstId cur = (*sub)[static_cast<std::size_t>(a.vars[p])];
        if (cur != data::kInvalidConst) {
          mask |= 1u << p;
          key.push_back(cur);
        }
      }
    }
    std::span<const std::uint32_t> candidates;
    bool probed = false;
    if (mask != 0) {
      candidates = ProbeJoinIndex(rel, mask, key);
      probed = true;
      if (candidates.empty()) return true;  // no tuple matches
    }
    const std::size_t num_candidates =
        probed ? candidates.size() : instance->NumTuples(rel);
    AtomKey args;
    for (std::size_t ci = 0; ci < num_candidates; ++ci) {
      const std::uint32_t t =
          probed ? candidates[ci] : static_cast<std::uint32_t>(ci);
      auto tuple = instance->Tuple(rel, t);
      if (skip_added != nullptr) {
        args.assign(tuple.begin(), tuple.end());
        if (skip_added->count(args) != 0) continue;  // added, not "old"
      }
      if (!TryTuple(rule, plan, index, a, tuple, free_vars, free_cls, sub)) {
        return false;
      }
    }
    return true;
  }

  bool GroundFree(const Rule& rule, const std::vector<VarId>& free_vars,
                  const std::vector<SlotClass>& free_cls, std::size_t index,
                  std::vector<ConstId>* sub) {
    if (index == free_vars.size()) {
      if (out->num_live >= max_ground_clauses) return false;
      EmitClause(rule, *sub);
      return true;
    }
    const VarId fv = free_vars[index];
    auto try_const = [&](ConstId c) -> bool {
      (*sub)[static_cast<std::size_t>(fv)] = c;
      if (track_deps) {
        AtomKey key{kAdomTag, static_cast<std::uint32_t>(c)};
        dep_stack.push_back(out->InternFact(key));
      }
      const bool keep_going =
          GroundFree(rule, free_vars, free_cls, index + 1, sub);
      if (track_deps) dep_stack.pop_back();
      return keep_going;
    };
    switch (free_cls[index]) {
      case SlotClass::kAddedOnly:
        for (ConstId c : delta->added_consts) {
          if (!try_const(c)) return false;
        }
        break;
      case SlotClass::kOldOnly:
        for (ConstId c : *adom) {
          if (delta != nullptr &&
              std::binary_search(delta->added_consts.begin(),
                                 delta->added_consts.end(), c)) {
            continue;
          }
          if (!try_const(c)) return false;
        }
        break;
      case SlotClass::kAll:
        for (ConstId c : *adom) {
          if (!try_const(c)) return false;
        }
        break;
    }
    (*sub)[static_cast<std::size_t>(fv)] = data::kInvalidConst;
    return true;
  }
};

}  // namespace

struct GroundedQuery::Impl {
  const Program* program = nullptr;
  const data::Instance* instance = nullptr;
  std::vector<ConstId> adom;
  EvalOptions options;
  GroundingFingerprint fingerprint;
  std::size_t num_clauses = 0;
  std::size_t num_atoms = 0;
  /// The firing store; mutated only by Build/ApplyDelta (never while
  /// probes run — calls on one GroundedQuery must not overlap in time).
  std::shared_ptr<GroundedClauses> snapshot;

  /// The preprocessed CNF every solver actually loads: slot-stable clause
  /// storage so that ApplyDelta's RebuildCnf can express the new CNF as a
  /// patch (removed slots + added slots) against the previous version,
  /// and warmed worker solvers can apply the patch instead of rebuilding.
  struct Cnf {
    std::vector<std::vector<sat::Lit>> clauses;
    std::vector<char> live;
    /// Sorted literal codes -> slot, for live slots only.
    std::unordered_map<AtomKey, std::uint32_t,
                       base::VectorHash<std::uint32_t>>
        index;
    std::vector<std::uint32_t> free_slots;
    std::size_t num_vars = 0;
    std::size_t num_live = 0;
    /// The preprocessor derived unsatisfiability: no model at all, every
    /// tuple is a certain answer, and `remapper` must not be consulted.
    bool unsat = false;
    sat::Remapper remapper;
    /// Bumped on every rebuild; worker solvers track the version they
    /// loaded.
    std::uint64_t version = 0;
    /// The patch from version-1 to version, valid only when patch_valid:
    /// a worker at version-1 removes `patch_removed` slots and adds
    /// `patch_added` slots to reach version.
    std::vector<std::uint32_t> patch_removed;
    std::vector<std::uint32_t> patch_added;
    bool patch_valid = false;
    /// True once the CNF is the raw normalized firing set (identity
    /// remapper, no preprocessor passes). Entered on the first
    /// ApplyDelta: the preprocessor's dividend belongs to the static
    /// case, while a churning session needs PatchCnf's O(|delta|) patch —
    /// re-running subsumption + BVE over the full CNF costs as much as a
    /// fresh ground and would erase the delta path's advantage.
    bool raw = false;
    /// Raw mode only: number of live firings whose normalized clause maps
    /// to each slot. Distinct firings can normalize to one clause, so a
    /// slot is retired only when its last supporting firing dies.
    std::vector<std::uint32_t> refs;
  };
  Cnf cnf;

  /// Per-slot worker scratch for ComputeCertainAnswers, persistent across
  /// calls so the solvers stay warm (learned clauses and the cached model
  /// survive from one request to the next — the serving layer's hot
  /// path). Guarded by the caller: ComputeCertainAnswers must not run
  /// concurrently with itself on one GroundedQuery.
  struct WorkerState {
    std::unique_ptr<sat::Solver> solver;
    /// Removable-clause handle per CNF slot (kInvalidClauseId = absent).
    std::vector<sat::Solver::ClauseId> handles;
    sat::Var spare = -1;
    /// The Cnf::version this solver currently encodes (0 = none).
    std::uint64_t version = 0;
    /// The last model this worker's solver found, completed into the
    /// ORIGINAL variable space (empty until the first kSat). The
    /// grounding is pinned between deltas, so any model found for tuple k
    /// is still a model during tuple k+1's probe: if it already avoids
    /// goal(tuple), it witnesses "not a certain answer" with no Solve()
    /// at all. This — together with the learned clauses the solver keeps
    /// across probes — is the cross-probe reuse that collapses the
    /// per-tuple cost.
    std::vector<char> model;
    std::vector<std::vector<ConstId>> hits;
    std::uint64_t checks = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t batch_solves = 0;
    std::uint64_t batch_fallbacks = 0;
    std::uint64_t batched_probes = 0;
    std::uint64_t prefilter_checks = 0;
    std::uint64_t prefilter_hits = 0;
  };
  std::vector<std::unique_ptr<WorkerState>> worker_states;
  /// Sound answer certifier installed by the serving planner (may be
  /// null). Swapped only between ComputeCertainAnswers calls.
  std::shared_ptr<const TuplePrefilter> prefilter;
  /// Solver state for the sequential entry points (CertainlyHolds /
  /// HasModel); the parallel engine never touches it.
  WorkerState seq_state;
  /// Decisions consumed so far against options.max_decisions — one global
  /// ceiling across every probe from every worker on this grounding.
  std::atomic<std::uint64_t> decisions_used{0};

  /// Re-derives the CNF from the live firings and expresses it as a patch
  /// against the previous CNF version. Run at Build time (full
  /// preprocessing) and on the first ApplyDelta after a preprocessed
  /// build (`light` = normalization only, entering raw mode so later
  /// deltas go through PatchCnf).
  void RebuildCnf(bool light = false) {
    const bool first = (cnf.version == 0);
    const bool prev_unsat = cnf.unsat;
    const bool no_passes = light || !options.preprocess;
    // Warm start: a seed whose fingerprint matches this grounding carries
    // the exact PreprocessResult a fresh run would compute (preprocessing
    // is deterministic and the fingerprint identifies the clause set), so
    // the simplification passes are skipped entirely. Only the full
    // first-build path is seedable; the light/raw rebuild is already just
    // normalization.
    const PreprocessSeed* seed = options.preprocess_seed.get();
    const bool seeded = !no_passes && first && seed != nullptr &&
                        seed->fingerprint == fingerprint &&
                        seed->cnf.num_vars == snapshot->num_vars;
    sat::PreprocessResult result;
    if (seeded) {
      static obs::Counter& seeded_counter =
          obs::GetCounter("ddlog.preprocess_seeded");
      seeded_counter.Add(1);
      result.clauses = seed->cnf.clauses;
      result.num_vars = seed->cnf.num_vars;
      result.unsat = seed->cnf.unsat;
      result.remapper = seed->cnf.remapper;
    } else {
      std::vector<std::vector<sat::Lit>> input;
      input.reserve(snapshot->num_live);
      for (const auto& f : snapshot->firings) {
        if (!f.dead) input.push_back(f.lits);
      }
      // Goal-atom variables are probed via assumptions, so they must
      // survive preprocessing verbatim (never pure/BVE-eliminated).
      std::vector<bool> frozen(snapshot->num_vars, false);
      const std::uint32_t goal = static_cast<std::uint32_t>(program->goal());
      for (const auto& [key, var] : snapshot->atom_vars) {
        if (!key.empty() && key[0] == goal) {
          frozen[static_cast<std::size_t>(var)] = true;
        }
      }
      sat::PreprocessOptions popts;
      if (no_passes) {
        popts.units = false;
        popts.pure = false;
        popts.equiv = false;
        popts.subsumption = false;
        popts.bve = false;
      }
      result = sat::Preprocess(snapshot->num_vars, input, frozen, popts);
    }
    ++cnf.version;
    cnf.num_vars = snapshot->num_vars;
    cnf.patch_removed.clear();
    cnf.patch_added.clear();
    if (result.unsat) {
      cnf.unsat = true;
      cnf.clauses.clear();
      cnf.live.clear();
      cnf.index.clear();
      cnf.free_slots.clear();
      cnf.num_live = 0;
      cnf.patch_valid = false;
      cnf.remapper = sat::Remapper();
      cnf.raw = false;
      cnf.refs.clear();
      return;
    }
    cnf.unsat = false;
    cnf.remapper = std::move(result.remapper);
    // Mark-and-sweep against the previous CNF: clauses already present
    // keep their slot; new ones take a freed or appended slot; live slots
    // the preprocessor no longer emits are retired.
    const std::size_t old_size = cnf.clauses.size();
    std::vector<char> seen(old_size, 0);
    AtomKey key;
    for (auto& clause : result.clauses) {
      key.clear();
      key.reserve(clause.size());
      for (sat::Lit l : clause) {
        key.push_back(static_cast<std::uint32_t>(l.code));
      }
      auto it = cnf.index.find(key);
      if (it != cnf.index.end()) {
        seen[it->second] = 1;
        continue;
      }
      std::uint32_t slot;
      if (!cnf.free_slots.empty()) {
        slot = cnf.free_slots.back();
        cnf.free_slots.pop_back();
        cnf.clauses[slot] = std::move(clause);
        cnf.live[slot] = 1;
        if (slot < seen.size()) seen[slot] = 1;
      } else {
        slot = static_cast<std::uint32_t>(cnf.clauses.size());
        cnf.clauses.push_back(std::move(clause));
        cnf.live.push_back(1);
        seen.push_back(1);
      }
      cnf.index.emplace(key, slot);
      cnf.patch_added.push_back(slot);
    }
    for (std::uint32_t s = 0; s < old_size; ++s) {
      if (!cnf.live[s] || seen[s]) continue;
      key.clear();
      key.reserve(cnf.clauses[s].size());
      for (sat::Lit l : cnf.clauses[s]) {
        key.push_back(static_cast<std::uint32_t>(l.code));
      }
      cnf.index.erase(key);
      cnf.live[s] = 0;
      cnf.clauses[s].clear();
      cnf.free_slots.push_back(s);
      cnf.patch_removed.push_back(s);
    }
    cnf.num_live = result.clauses.size();
    cnf.raw = no_passes;
    if (cnf.raw) {
      // Seed the per-slot refcounts PatchCnf maintains: every live firing
      // normalizes into exactly one index slot (Preprocess ran
      // normalization only, so no clause was dropped beyond tautologies
      // and duplicates).
      cnf.refs.assign(cnf.clauses.size(), 0);
      std::vector<sat::Lit> lits;
      for (const auto& f : snapshot->firings) {
        if (f.dead) continue;
        lits = f.lits;
        if (!NormalizeClause(&lits)) continue;
        key.clear();
        key.reserve(lits.size());
        for (sat::Lit l : lits) {
          key.push_back(static_cast<std::uint32_t>(l.code));
        }
        auto it = cnf.index.find(key);
        if (it != cnf.index.end()) ++cnf.refs[it->second];
      }
    } else {
      cnf.refs.clear();
    }
    // A patch bigger than half the CNF costs more to apply (learned-state
    // purge + churn) than a fresh load; workers then rebuild instead.
    const std::size_t patch_size =
        cnf.patch_added.size() + cnf.patch_removed.size();
    cnf.patch_valid = !first && !prev_unsat &&
                      patch_size * 2 <= std::max<std::size_t>(32,
                                                              cnf.num_live);
  }

  /// O(|delta|) CNF patch, raw mode only: refcounts the normalized
  /// clause of every firing the ApplyDelta pass killed or added, so a
  /// slot is retired/allocated only on last-kill/first-add. Returns
  /// false on the cases only the full rebuild handles (an empty clause,
  /// which means unsat, or a refcount miss) — the caller then falls back
  /// to RebuildCnf(/*light=*/true).
  bool PatchCnf(const std::vector<std::vector<sat::Lit>>& killed,
                const std::vector<std::uint32_t>& added) {
    OBDA_CHECK(cnf.raw && !cnf.unsat);
    ++cnf.version;
    cnf.patch_removed.clear();
    cnf.patch_added.clear();
    cnf.num_vars = snapshot->num_vars;
    if (cnf.remapper.num_vars() < cnf.num_vars) {
      cnf.remapper = sat::Remapper(cnf.num_vars);
    }
    AtomKey key;
    std::vector<sat::Lit> lits;
    auto make_key = [&key](const std::vector<sat::Lit>& ls) {
      key.clear();
      key.reserve(ls.size());
      for (sat::Lit l : ls) key.push_back(static_cast<std::uint32_t>(l.code));
    };
    for (const auto& raw_lits : killed) {
      lits = raw_lits;
      if (!NormalizeClause(&lits)) continue;  // tautologies never had slots
      make_key(lits);
      auto it = cnf.index.find(key);
      if (it == cnf.index.end() || cnf.refs[it->second] == 0) return false;
      const std::uint32_t slot = it->second;
      if (--cnf.refs[slot] == 0) {
        cnf.index.erase(it);
        cnf.live[slot] = 0;
        cnf.clauses[slot].clear();
        cnf.free_slots.push_back(slot);
        cnf.patch_removed.push_back(slot);
        --cnf.num_live;
      }
    }
    for (std::uint32_t fslot : added) {
      const GroundedClauses::Firing& f = snapshot->firings[fslot];
      if (f.dead) continue;
      lits = f.lits;
      if (!NormalizeClause(&lits)) continue;
      if (lits.empty()) return false;  // unsat: needs the full rebuild
      make_key(lits);
      auto it = cnf.index.find(key);
      if (it != cnf.index.end()) {
        ++cnf.refs[it->second];
        continue;
      }
      std::uint32_t slot;
      if (!cnf.free_slots.empty()) {
        slot = cnf.free_slots.back();
        cnf.free_slots.pop_back();
        cnf.clauses[slot] = std::move(lits);
        cnf.live[slot] = 1;
      } else {
        slot = static_cast<std::uint32_t>(cnf.clauses.size());
        cnf.clauses.push_back(std::move(lits));
        cnf.live.push_back(1);
        cnf.refs.push_back(0);
      }
      cnf.refs[slot] = 1;
      cnf.index.emplace(key, slot);
      cnf.patch_added.push_back(slot);
      ++cnf.num_live;
    }
    const std::size_t patch_size =
        cnf.patch_added.size() + cnf.patch_removed.size();
    cnf.patch_valid = patch_size * 2 <= std::max<std::size_t>(32,
                                                              cnf.num_live);
    return true;
  }

  /// Brings `ws`'s solver in line with the current CNF version: a no-op
  /// when already there, an incremental patch when the worker is exactly
  /// one version behind and the patch is small, a fresh load otherwise.
  /// The spare probe variable is pinned at index cnf.num_vars, so growing
  /// the variable space turns the old spare into the first new atom
  /// variable — sound, because an unconstrained variable has no footprint
  /// in the solver (no clause, no learned clause, no saved phase that
  /// matters).
  void SyncWorker(WorkerState& ws) {
    if (ws.solver != nullptr && ws.version == cnf.version) return;
    OBDA_CHECK(!cnf.unsat);  // callers short-circuit the unsat CNF
    if (ws.solver != nullptr && cnf.patch_valid &&
        ws.version + 1 == cnf.version) {
      sat::Solver& s = *ws.solver;
      while (s.NumVars() < cnf.num_vars + 1) s.NewVar();
      ws.spare = static_cast<sat::Var>(cnf.num_vars);
      if (ws.handles.size() < cnf.clauses.size()) {
        ws.handles.resize(cnf.clauses.size(), sat::Solver::kInvalidClauseId);
      }
      for (std::uint32_t slot : cnf.patch_removed) {
        if (ws.handles[slot] != sat::Solver::kInvalidClauseId) {
          s.RemoveClause(ws.handles[slot]);
          ws.handles[slot] = sat::Solver::kInvalidClauseId;
        }
      }
      for (std::uint32_t slot : cnf.patch_added) {
        ws.handles[slot] = s.AddRemovableClause(cnf.clauses[slot]);
      }
    } else {
      ws.solver = std::make_unique<sat::Solver>();
      for (std::size_t v = 0; v < cnf.num_vars; ++v) ws.solver->NewVar();
      ws.spare = ws.solver->NewVar();
      ws.handles.assign(cnf.clauses.size(), sat::Solver::kInvalidClauseId);
      for (std::size_t s = 0; s < cnf.clauses.size(); ++s) {
        if (cnf.live[s]) {
          ws.handles[s] = ws.solver->AddRemovableClause(cnf.clauses[s]);
        }
      }
    }
    ws.model.clear();
    ws.version = cnf.version;
  }

  base::Status BudgetError() const {
    return base::ResourceExhaustedError(
        "SAT decision budget exceeded (max_decisions=" +
        std::to_string(options.max_decisions) + ")");
  }

  /// Runs one Solve on `solver` against the grounding's shared decision
  /// budget: the call gets whatever remains of the global ceiling, and its
  /// decisions are charged back afterwards. Safe to call concurrently from
  /// workers, each on its own solver.
  base::Result<sat::SatOutcome> BudgetedSolve(
      sat::Solver& solver, const std::vector<sat::Lit>& assumptions) {
    const std::uint64_t cap = options.max_decisions;
    std::uint64_t per_call = 0;
    if (cap != 0) {
      const std::uint64_t used =
          decisions_used.load(std::memory_order_relaxed);
      if (used >= cap) return BudgetError();
      per_call = cap - used;
    }
    const sat::SatOutcome outcome = solver.Solve(assumptions, per_call);
    if (cap != 0) {
      decisions_used.fetch_add(solver.decisions(),
                               std::memory_order_relaxed);
    }
    if (outcome == sat::SatOutcome::kBudget) return BudgetError();
    return outcome;
  }

  /// One co-NP probe on a synced worker: is goal_var true in every model?
  /// Routes the ¬goal assumption through the preprocessor's remapper (a
  /// root-fixed goal may answer without any Solve) and, on kSat, caches
  /// the model completed back into the original variable space. Callers
  /// must have short-circuited cnf.unsat and run SyncWorker.
  base::Result<bool> ProbeTuple(WorkerState& ws, sat::Var goal_var) {
    std::vector<sat::Lit> assumptions;
    if (goal_var != ws.spare &&
        static_cast<std::size_t>(goal_var) < cnf.remapper.num_vars()) {
      const sat::Remapper::MappedLit mapped =
          cnf.remapper.MapLit(sat::Lit::Neg(goal_var));
      if (mapped.kind == sat::Remapper::MappedLit::Kind::kFalse) {
        // ¬goal is false at root level: goal holds in every model (and
        // vacuously when none exists) — certain without a Solve.
        return true;
      }
      if (mapped.kind == sat::Remapper::MappedLit::Kind::kLit) {
        assumptions.push_back(mapped.lit);
      }
      // kTrue: goal is root-fixed false, so it is certain iff the theory
      // is unsatisfiable — solve with no assumptions.
    } else {
      // The spare (or an out-of-snapshot) variable is unconstrained and
      // bypasses the remapper by construction.
      assumptions.push_back(sat::Lit::Neg(goal_var));
    }
    const bool timed = obs::MetricsEnabled();
    const auto probe_start = timed ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point();
    auto outcome = BudgetedSolve(*ws.solver, assumptions);
    if (timed) {
      DdlogCounters::Get().probe_hist.Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - probe_start)
              .count()));
    }
    if (!outcome.ok()) return outcome.status();
    // No model avoiding goal(tuple) => certain answer.
    if (*outcome == sat::SatOutcome::kUnsat) return true;
    CacheModel(ws);
    return false;
  }

  /// Caches the solver's current model into ws.model, completed back into
  /// the ORIGINAL variable space. The solver's model covers the
  /// SIMPLIFIED CNF; eliminated/fixed/substituted variables carry
  /// arbitrary values until completed, and the cached-model skip reads
  /// original-space goal variables, so complete before caching.
  void CacheModel(WorkerState& ws) {
    const std::size_t num_vars = ws.solver->NumVars();
    ws.model.assign(num_vars, 0);
    for (std::size_t v = 0; v < num_vars; ++v) {
      ws.model[v] = ws.solver->ModelValue(static_cast<sat::Var>(v)) ? 1 : 0;
    }
    cnf.remapper.CompleteModel(&ws.model);
  }

  /// Probes a group of candidate goal variables with ONE Solve: all the
  /// ¬goal literals are asserted together as assumptions. kSat yields a
  /// model avoiding every goal in the group simultaneously — none is
  /// certain, and the model is cached for the skip test on later
  /// candidates. kUnsat only says SOME member is certain, so the group
  /// falls back to per-tuple probes (re-checking the model cache first:
  /// an earlier fallback probe inside the group may have found a model).
  /// Per-tuple certainty is a property of the clause set, not of the
  /// grouping, so the flags returned are bit-identical to per-tuple
  /// probing. Returns one certainty flag per goal, aligned with `goals`.
  base::Result<std::vector<char>> ProbeBatch(
      WorkerState& ws, const std::vector<sat::Var>& goals) {
    std::vector<char> certain(goals.size(), 0);
    std::vector<sat::Lit> assumptions;
    std::vector<std::size_t> grouped;  // indices covered by the group Solve
    std::vector<std::size_t> solo;     // root-fixed goals: bare Solve each
    for (std::size_t i = 0; i < goals.size(); ++i) {
      const sat::Var goal_var = goals[i];
      sat::Lit lit = sat::Lit::Neg(goal_var);
      if (goal_var != ws.spare &&
          static_cast<std::size_t>(goal_var) < cnf.remapper.num_vars()) {
        const sat::Remapper::MappedLit mapped = cnf.remapper.MapLit(lit);
        if (mapped.kind == sat::Remapper::MappedLit::Kind::kFalse) {
          certain[i] = 1;  // ¬goal false at root: certain without a Solve
          continue;
        }
        if (mapped.kind == sat::Remapper::MappedLit::Kind::kTrue) {
          // Goal root-fixed false: certain iff the theory is unsat, which
          // needs an assumption-free Solve — route through ProbeTuple.
          solo.push_back(i);
          continue;
        }
        lit = mapped.lit;
      }
      if (std::find_if(assumptions.begin(), assumptions.end(),
                       [&](sat::Lit a) { return a.code == lit.code; }) ==
          assumptions.end()) {
        assumptions.push_back(lit);
      }
      grouped.push_back(i);
    }
    if (!grouped.empty()) {
      ++ws.batch_solves;
      const bool timed = obs::MetricsEnabled();
      const auto probe_start = timed
                                   ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point();
      auto outcome = BudgetedSolve(*ws.solver, assumptions);
      if (timed) {
        DdlogCounters::Get().probe_hist.Record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - probe_start)
                .count()));
      }
      if (!outcome.ok()) return outcome.status();
      if (*outcome == sat::SatOutcome::kSat) {
        CacheModel(ws);  // one model dismisses the whole group
      } else {
        ++ws.batch_fallbacks;
        for (std::size_t i : grouped) {
          if (!ws.model.empty() &&
              ws.model[static_cast<std::size_t>(goals[i])] == 0) {
            ++ws.cache_hits;
            continue;
          }
          auto flag = ProbeTuple(ws, goals[i]);
          if (!flag.ok()) return flag.status();
          certain[i] = *flag ? 1 : 0;
        }
      }
    }
    for (std::size_t i : solo) {
      auto flag = ProbeTuple(ws, goals[i]);
      if (!flag.ok()) return flag.status();
      certain[i] = *flag ? 1 : 0;
    }
    return certain;
  }
};

base::Result<GroundedQuery> GroundedQuery::Build(
    const Program& program, const data::Instance& instance,
    const EvalOptions& options) {
  obs::ScopedTimer timer(DdlogCounters::Get().ground,
                         &DdlogCounters::Get().ground_hist);
  obs::TraceSpan span("ddlog.ground");
  DdlogCounters::Get().ground_calls.Add(1);
  OBDA_RETURN_IF_ERROR(program.Validate());
  if (!instance.schema().LayoutCompatible(program.edb_schema())) {
    return base::InvalidArgumentError(
        "instance schema does not match program EDB schema");
  }
  GroundedQuery q;
  q.impl_ = std::make_shared<Impl>();
  q.impl_->program = &program;
  q.impl_->instance = &instance;
  q.impl_->options = options;
  q.impl_->adom = instance.ActiveDomain();

  auto snapshot = std::make_shared<GroundedClauses>();
  snapshot->track_deps = options.enable_delta;
  Grounder grounder;
  grounder.program = &program;
  grounder.instance = &instance;
  grounder.adom = &q.impl_->adom;
  grounder.max_ground_clauses = options.max_ground_clauses;
  grounder.out = snapshot.get();
  grounder.track_deps = snapshot->track_deps;
  for (const Rule& rule : program.rules()) {
    if (!grounder.GroundRule(rule)) {
      return base::ResourceExhaustedError(
          "ground clause budget exceeded (max_ground_clauses=" +
          std::to_string(options.max_ground_clauses) + ")");
    }
  }
  q.impl_->snapshot = std::move(snapshot);
  q.impl_->num_clauses = q.impl_->snapshot->num_live;
  q.impl_->num_atoms = q.impl_->snapshot->atom_vars.size();
  {
    // Order-independent clause hash: grounding emission order is already
    // deterministic, but the fingerprint should identify the *set* of
    // ground clauses, so each firing is hashed sorted and the hashes are
    // summed (maintained incrementally across ApplyDelta).
    GroundingFingerprint& fp = q.impl_->fingerprint;
    fp.num_clauses = q.impl_->num_clauses;
    fp.num_atoms = q.impl_->num_atoms;
    fp.num_vars = q.impl_->snapshot->num_vars;
    fp.hash = q.impl_->snapshot->clause_hash_sum ^ (fp.num_clauses << 32) ^
              fp.num_vars;
  }
  q.impl_->RebuildCnf();
  return q;
}

base::Status GroundedQuery::ApplyDelta(const data::Instance& new_instance,
                                       const InstanceDelta& delta) {
  Impl& impl = *impl_;
  if (!impl.options.enable_delta) {
    return base::InvalidArgumentError(
        "ApplyDelta requires EvalOptions::enable_delta at Build time");
  }
  DdlogCounters& counters = DdlogCounters::Get();
  obs::TraceSpan span("ddlog.delta_ground");
  const bool timed = obs::MetricsEnabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  GroundedClauses& snapshot = *impl.snapshot;
  const std::size_t live_before = snapshot.num_live;
  // In raw-CNF mode the pass records its clause-level delta so the CNF
  // can be patched in O(|delta|); a preprocessed CNF (the state right
  // after Build) cannot be patched with raw clauses — its first delta
  // rebuilds once into raw mode below.
  const bool patchable = impl.cnf.raw && !impl.cnf.unsat;
  snapshot.log_patch = patchable;
  snapshot.killed_lits.clear();
  snapshot.added_slots.clear();

  std::vector<ConstId> new_adom = new_instance.ActiveDomain();
  std::vector<ConstId> added_consts;
  std::vector<ConstId> removed_consts;
  std::set_difference(new_adom.begin(), new_adom.end(), impl.adom.begin(),
                      impl.adom.end(), std::back_inserter(added_consts));
  std::set_difference(impl.adom.begin(), impl.adom.end(), new_adom.begin(),
                      new_adom.end(), std::back_inserter(removed_consts));

  // Retract exactly the firings whose provenance includes a removed fact
  // or a constant that left the active domain. KillFiring prunes the slot
  // out of every other dep's list, so iterate over a pre-kill copy.
  auto kill_for_key = [&snapshot](const AtomKey& key) {
    auto it = snapshot.fact_ids.find(key);
    if (it == snapshot.fact_ids.end()) return;
    const std::vector<std::uint32_t> victims =
        snapshot.fact_firings[it->second];
    for (std::uint32_t slot : victims) snapshot.KillFiring(slot);
  };
  AtomKey key;
  for (const auto& fc : delta.removed) {
    key.clear();
    key.reserve(fc.args.size() + 1);
    key.push_back(fc.relation);
    for (ConstId c : fc.args) key.push_back(c);
    kill_for_key(key);
  }
  for (ConstId c : removed_consts) {
    key.assign({kAdomTag, static_cast<std::uint32_t>(c)});
    kill_for_key(key);
  }
  const std::size_t retracted = live_before - snapshot.num_live;

  // Rebind to the new instance before the delta joins (they enumerate its
  // tuples and its active domain).
  impl.instance = &new_instance;
  impl.adom = std::move(new_adom);

  DeltaCtx ctx;
  for (const auto& fc : delta.added) {
    ctx.added_by_rel[fc.relation].push_back(fc.args);
    AtomKey args;
    args.reserve(fc.args.size());
    for (ConstId c : fc.args) args.push_back(c);
    ctx.added_sets[fc.relation].insert(std::move(args));
  }
  ctx.added_consts = std::move(added_consts);

  Grounder grounder;
  grounder.program = impl.program;
  grounder.instance = &new_instance;
  grounder.adom = &impl.adom;
  grounder.max_ground_clauses = impl.options.max_ground_clauses;
  grounder.out = &snapshot;
  grounder.track_deps = true;
  grounder.delta = &ctx;
  for (const Rule& rule : impl.program->rules()) {
    if (!grounder.GroundRuleDelta(rule, ctx)) {
      snapshot.log_patch = false;
      snapshot.killed_lits.clear();
      snapshot.added_slots.clear();
      return base::ResourceExhaustedError(
          "ground clause budget exceeded (max_ground_clauses=" +
          std::to_string(impl.options.max_ground_clauses) + ")");
    }
  }
  const std::size_t added_firings =
      snapshot.num_live - (live_before - retracted);

  impl.num_clauses = snapshot.num_live;
  impl.num_atoms = snapshot.atom_vars.size();
  impl.fingerprint.num_clauses = impl.num_clauses;
  impl.fingerprint.num_atoms = impl.num_atoms;
  impl.fingerprint.num_vars = snapshot.num_vars;
  impl.fingerprint.hash = snapshot.clause_hash_sum ^
                          (impl.fingerprint.num_clauses << 32) ^
                          impl.fingerprint.num_vars;
  // A delta that touched no firing leaves the CNF (and every warmed
  // solver) exactly as-is. One that did is patched in O(|delta|) when the
  // CNF is already raw; otherwise (first delta after a preprocessed
  // Build, or a CNF the preprocessor proved unsat) this rebuild is the
  // one-time O(n) conversion into raw mode.
  if (retracted != 0 || added_firings != 0) {
    const bool patched =
        patchable &&
        impl.PatchCnf(snapshot.killed_lits, snapshot.added_slots);
    if (!patched) impl.RebuildCnf(/*light=*/true);
  }
  snapshot.log_patch = false;
  snapshot.killed_lits.clear();
  snapshot.added_slots.clear();

  counters.delta_grounds.Add(1);
  counters.delta_clauses_retracted.Add(retracted);
  counters.delta_clauses_added.Add(added_firings);
  if (timed) {
    counters.delta_ground_hist.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return base::Status::Ok();
}

const GroundingFingerprint& GroundedQuery::Fingerprint() const {
  return impl_->fingerprint;
}

base::Result<PreprocessSeed> GroundedQuery::ExportPreprocess() const {
  if (impl_ == nullptr) {
    return base::InvalidArgumentError(
        "ExportPreprocess on an empty GroundedQuery");
  }
  const Impl& impl = *impl_;
  if (impl.cnf.raw) {
    return base::InvalidArgumentError(
        "ExportPreprocess after ApplyDelta: the raw-mode CNF carries no "
        "preprocessing dividend to persist; export right after Build");
  }
  PreprocessSeed seed;
  seed.fingerprint = impl.fingerprint;
  seed.cnf.num_vars = impl.cnf.num_vars;
  seed.cnf.unsat = impl.cnf.unsat;
  seed.cnf.remapper = impl.cnf.remapper;
  seed.cnf.clauses.reserve(impl.cnf.num_live);
  for (std::size_t slot = 0; slot < impl.cnf.clauses.size(); ++slot) {
    if (impl.cnf.live[slot]) {
      seed.cnf.clauses.push_back(impl.cnf.clauses[slot]);
    }
  }
  return seed;
}

std::size_t GroundedQuery::num_ground_clauses() const {
  return impl_->num_clauses;
}

std::size_t GroundedQuery::num_ground_atoms() const {
  return impl_->num_atoms;
}

void GroundedQuery::ResetDecisionBudget(std::uint64_t max_decisions) {
  impl_->options.max_decisions = max_decisions;
  impl_->decisions_used.store(0, std::memory_order_relaxed);
}

void GroundedQuery::SetPrefilter(
    std::shared_ptr<const TuplePrefilter> prefilter) {
  impl_->prefilter = std::move(prefilter);
}

base::Result<bool> GroundedQuery::CertainlyHolds(
    const std::vector<ConstId>& tuple) {
  DdlogCounters::Get().certain_checks.Add(1);
  Impl& impl = *impl_;
  OBDA_CHECK_EQ(static_cast<int>(tuple.size()),
                impl.program->QueryArity());
  if (impl.cnf.unsat) return true;  // no model at all => vacuously certain
  impl.SyncWorker(impl.seq_state);
  sat::Var goal_var = impl.snapshot->GoalVar(impl.program->goal(), tuple,
                                             impl.seq_state.spare);
  return impl.ProbeTuple(impl.seq_state, goal_var);
}

const std::vector<ConstId>& GroundedQuery::ActiveDomain() const {
  return impl_->adom;
}

base::Result<bool> GroundedQuery::HasModel() {
  Impl& impl = *impl_;
  if (impl.cnf.unsat) return false;
  impl.SyncWorker(impl.seq_state);
  auto outcome = impl.BudgetedSolve(*impl.seq_state.solver, {});
  if (!outcome.ok()) return outcome.status();
  return *outcome == sat::SatOutcome::kSat;
}

base::Result<Answers> GroundedQuery::ComputeCertainAnswers() {
  Impl& impl = *impl_;
  Answers answers;
  const int arity = impl.program->QueryArity();
  const std::vector<ConstId>& adom = impl.adom;

  // Candidate tuples are the flat indices of adom^arity in mixed radix,
  // most significant position first — index order IS lexicographic tuple
  // order over adom's ordering.
  const std::uint64_t radix = adom.size();
  std::uint64_t total = 1;
  if (arity > 0) {
    if (adom.empty()) {
      total = 0;
    } else {
      for (int i = 0; i < arity; ++i) {
        if (total > std::numeric_limits<std::uint64_t>::max() / radix) {
          return base::ResourceExhaustedError(
              "candidate tuple space exceeds 2^64");
        }
        total *= radix;
      }
    }
  }
  auto decode = [&](std::uint64_t flat, std::vector<ConstId>* tuple) {
    std::uint64_t rest = flat;
    for (int i = arity - 1; i >= 0; --i) {
      (*tuple)[static_cast<std::size_t>(i)] = adom[rest % radix];
      rest /= radix;
    }
  };
  // Inconsistent data: every tuple is a certain answer (paper semantics);
  // enumerate them all without probing.
  auto fill_all = [&]() {
    if (arity == 0) {
      answers.tuples.emplace_back();
      return;
    }
    std::vector<ConstId> tuple(static_cast<std::size_t>(arity));
    for (std::uint64_t flat = 0; flat < total; ++flat) {
      decode(flat, &tuple);
      answers.tuples.push_back(tuple);
    }
  };

  if (impl.cnf.unsat) {
    answers.inconsistent = true;
    fill_all();
    return answers;
  }
  // Consistency check on worker 0's solver — warms it (and its model
  // cache) for the fan-out below.
  if (impl.worker_states.empty()) {
    impl.worker_states.push_back(std::make_unique<Impl::WorkerState>());
  }
  Impl::WorkerState& ws0 = *impl.worker_states[0];
  impl.SyncWorker(ws0);
  auto has_model = impl.BudgetedSolve(*ws0.solver, {});
  if (!has_model.ok()) return has_model.status();
  if (*has_model == sat::SatOutcome::kUnsat) {
    answers.inconsistent = true;
    fill_all();
    return answers;
  }
  {
    const std::size_t num_vars = ws0.solver->NumVars();
    ws0.model.assign(num_vars, 0);
    for (std::size_t v = 0; v < num_vars; ++v) {
      ws0.model[v] = ws0.solver->ModelValue(static_cast<sat::Var>(v)) ? 1 : 0;
    }
    impl.cnf.remapper.CompleteModel(&ws0.model);
  }

  const PredId goal = impl.program->goal();
  const TuplePrefilter* prefilter = impl.prefilter.get();
  if (arity == 0) {
    DdlogCounters::Get().certain_checks.Add(1);
    const sat::Var goal_var0 = impl.snapshot->GoalVar(goal, {}, ws0.spare);
    const bool model_skip =
        !ws0.model.empty() &&
        ws0.model[static_cast<std::size_t>(goal_var0)] == 0;
    if (!model_skip && prefilter != nullptr) {
      DdlogCounters::Get().prefilter_checks.Add(1);
      if (prefilter->CertainlyAnswer({})) {
        DdlogCounters::Get().prefilter_hits.Add(1);
        answers.tuples.emplace_back();
        return answers;
      }
    }
    auto holds = impl.ProbeTuple(ws0, goal_var0);
    if (!holds.ok()) return holds.status();
    if (*holds) answers.tuples.emplace_back();
    return answers;
  }
  if (adom.empty()) return answers;

  std::unique_ptr<base::ThreadPool> owned;
  base::ThreadPool& pool = base::ResolvePool(impl.options.threads, &owned);
  const int slots = pool.threads();

  // Per-slot scratch: a private solver over the shared CNF, hit tuples,
  // and a local probe count. Slots never share, so the probe loop runs
  // lock-free; everything merges after the join. The states (and so each
  // slot's warmed solver) live in the Impl and are reused by later calls
  // on this grounding.
  while (impl.worker_states.size() < static_cast<std::size_t>(slots)) {
    impl.worker_states.push_back(std::make_unique<Impl::WorkerState>());
  }
  for (auto& ws : impl.worker_states) {
    ws->hits.clear();
    ws->checks = 0;
    ws->cache_hits = 0;
    ws->batch_solves = 0;
    ws->batch_fallbacks = 0;
    ws->batched_probes = 0;
    ws->prefilter_checks = 0;
    ws->prefilter_hits = 0;
  }
  const GroundedClauses& snapshot = *impl.snapshot;
  // Slot 0's fresh consistency model seeds every slot whose model cache
  // is empty, so which slot runs a chunk does not change which
  // candidates the cache skips. Workers read this copy, not ws0.model,
  // which slot 0 rewrites while it probes; a one-slot pool runs every
  // chunk on slot 0 and needs no copy.
  const std::vector<char> consistency_model =
      slots > 1 ? ws0.model : std::vector<char>();
  const std::size_t batch_cap =
      impl.options.probe_batch > 1
          ? static_cast<std::size_t>(impl.options.probe_batch)
          : 1;

  // Chunks must be at least a batch wide or the sequential path (and any
  // pool splitting finer than the batch) would hand the worker loop
  // single-candidate ranges and no batch could ever form.
  base::Status status = pool.ParallelFor(
      total, /*min_chunk=*/batch_cap,
      [&](std::uint64_t begin, std::uint64_t end, int slot) -> base::Status {
        Impl::WorkerState& ws =
            *impl.worker_states[static_cast<std::size_t>(slot)];
        impl.SyncWorker(ws);
        if (ws.model.empty()) ws.model = consistency_model;
        std::vector<ConstId> tuple(static_cast<std::size_t>(arity));
        // Candidates surviving the model-cache skip are grouped while
        // they share their ground prefix (all coordinates but the last —
        // flat / radix, since the last coordinate varies fastest), up to
        // probe_batch per group, and probed with one Solve per group.
        std::vector<std::pair<std::vector<ConstId>, sat::Var>> batch;
        std::vector<sat::Var> goals;
        std::uint64_t batch_prefix = 0;
        auto flush = [&]() -> base::Status {
          if (batch.empty()) return base::Status::Ok();
          if (batch.size() == 1) {
            auto certain = impl.ProbeTuple(ws, batch[0].second);
            if (!certain.ok()) return certain.status();
            if (*certain) ws.hits.push_back(std::move(batch[0].first));
            batch.clear();
            return base::Status::Ok();
          }
          ws.batched_probes += batch.size();
          goals.clear();
          for (const auto& cand : batch) goals.push_back(cand.second);
          auto certain = impl.ProbeBatch(ws, goals);
          if (!certain.ok()) return certain.status();
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if ((*certain)[i]) ws.hits.push_back(std::move(batch[i].first));
          }
          batch.clear();
          return base::Status::Ok();
        };
        for (std::uint64_t flat = begin; flat < end; ++flat) {
          decode(flat, &tuple);
          ++ws.checks;
          sat::Var goal_var = snapshot.GoalVar(goal, tuple, ws.spare);
          if (!ws.model.empty() &&
              ws.model[static_cast<std::size_t>(goal_var)] == 0) {
            ++ws.cache_hits;  // cached model already avoids goal(tuple)
            continue;
          }
          if (prefilter != nullptr) {
            ++ws.prefilter_checks;
            if (prefilter->CertainlyAnswer(tuple)) {
              // A sound certificate that goal(tuple) holds in every
              // model: emit the answer without any SAT probe.
              ++ws.prefilter_hits;
              ws.hits.push_back(tuple);
              continue;
            }
          }
          if (batch_cap == 1) {
            auto certain = impl.ProbeTuple(ws, goal_var);
            if (!certain.ok()) return certain.status();
            if (*certain) ws.hits.push_back(tuple);
            continue;
          }
          const std::uint64_t prefix = flat / radix;
          if (!batch.empty() &&
              (prefix != batch_prefix || batch.size() >= batch_cap)) {
            OBDA_RETURN_IF_ERROR(flush());
          }
          batch_prefix = prefix;
          batch.emplace_back(tuple, goal_var);
        }
        return flush();
      });

  std::uint64_t checks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batch_solves = 0;
  std::uint64_t batch_fallbacks = 0;
  std::uint64_t batched_probes = 0;
  std::uint64_t prefilter_checks = 0;
  std::uint64_t prefilter_hits = 0;
  for (auto& ws : impl.worker_states) {
    checks += ws->checks;
    cache_hits += ws->cache_hits;
    batch_solves += ws->batch_solves;
    batch_fallbacks += ws->batch_fallbacks;
    batched_probes += ws->batched_probes;
    prefilter_checks += ws->prefilter_checks;
    prefilter_hits += ws->prefilter_hits;
    // Per-worker solver stats reach the registry when the grounding dies,
    // via ~Solver; nothing to aggregate by hand beyond the probe counts.
  }
  DdlogCounters::Get().certain_checks.Add(checks);
  DdlogCounters::Get().model_cache_hits.Add(cache_hits);
  DdlogCounters::Get().batch_solves.Add(batch_solves);
  DdlogCounters::Get().batch_fallbacks.Add(batch_fallbacks);
  DdlogCounters::Get().batched_probes.Add(batched_probes);
  DdlogCounters::Get().prefilter_checks.Add(prefilter_checks);
  DdlogCounters::Get().prefilter_hits.Add(prefilter_hits);
  if (!status.ok()) return status;

  for (auto& ws : impl.worker_states) {
    for (auto& tuple : ws->hits) answers.tuples.push_back(std::move(tuple));
  }
  std::sort(answers.tuples.begin(), answers.tuples.end());
  return answers;
}

base::Result<Answers> CertainAnswers(const Program& program,
                                     const data::Instance& instance,
                                     const EvalOptions& options) {
  auto grounded = GroundedQuery::Build(program, instance, options);
  if (!grounded.ok()) return grounded.status();
  return grounded->ComputeCertainAnswers();
}

base::Result<bool> EvaluateBoolean(const Program& program,
                                   const data::Instance& instance,
                                   const EvalOptions& options) {
  OBDA_CHECK_EQ(program.QueryArity(), 0);
  auto grounded = GroundedQuery::Build(program, instance, options);
  if (!grounded.ok()) return grounded.status();
  return grounded->CertainlyHolds({});
}

}  // namespace obda::ddlog
