#ifndef OBDA_SERVE_SESSION_H_
#define OBDA_SERVE_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "data/io.h"
#include "data/schema.h"

namespace obda::serve {

/// A net fact-level diff between two session generations: every fact in
/// `added` is present now and absent then, every fact in `removed` the
/// reverse, and the two lists are disjoint (a fact asserted and retracted
/// between the generations cancels out entirely).
struct FactDelta {
  std::vector<data::Fact> added;
  std::vector<data::Fact> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

/// One client's mutable data state: a fixed EDB schema and an ordered,
/// deduplicated fact list mutated by Assert/Retract, each mutation
/// bumping a generation counter. The serving layer assumes the OBDA
/// deployment model of the paper (§2): the ontology and queries are
/// prepared once, the data evolves underneath.
///
/// Materialize() builds — lazily, cached per generation — an immutable
/// data::Instance snapshot. When the previous snapshot is cached and the
/// mutation log still covers it, the new snapshot is produced by copying
/// that instance and applying the net fact diff instead of rebuilding
/// from the fact list. The copy is a few flat array copies per relation
/// and one fact list per constant, with no per-fact allocation or
/// re-interning; each diff fact then costs O(arity + degree of its
/// constants). The serving mutation path depends on this staying far
/// below a rebuild. Either construction is deterministic for a given
/// operation sequence; they may differ in internal tuple order, which no
/// engine observes beyond determinism. Constant interning is
/// SESSION-persistent: names are interned in first-ever-Assert order and
/// every snapshot interns the full set up front, so a ConstId means the
/// same constant in every snapshot of one session (prepared plans patch
/// pinned groundings with fact diffs across snapshots — see
/// PreparedQuery). Facts are added
/// in list order, so a given operation sequence always yields
/// bit-identical snapshots (and thus bit-identical ConstId answer tuples)
/// regardless of timing or thread count. Snapshots are shared_ptr so
/// prepared plans can pin the generation they were grounded against while
/// the session moves on.
///
/// Thread safety: all methods lock internally. Mutations from multiple
/// threads are safe but the *ordering* of answers then depends on the
/// interleaving; the scheduler keeps each session's requests FIFO.
class Session {
 public:
  explicit Session(data::Schema schema);

  /// Process-unique id (never reused), the key for per-session plan
  /// caches — unlike the address, it cannot alias a dead session.
  std::uint64_t id() const { return id_; }

  const data::Schema& schema() const { return schema_; }

  /// Adds `fact` (validated against the schema). Returns true if it was
  /// new; duplicate asserts are no-ops and do NOT bump the generation.
  base::Result<bool> Assert(const data::Fact& fact);

  /// Removes `fact`. Returns true if it was present; retracting an
  /// absent fact is a no-op and does not bump the generation.
  base::Result<bool> Retract(const data::Fact& fact);

  std::uint64_t generation() const;
  std::size_t num_facts() const;

  /// The order-independent fact-set hash (see Snapshot::content_hash),
  /// without materializing a snapshot — the artifact store keys its
  /// grounding records on it.
  std::uint64_t content_hash() const;

  /// A materialized snapshot plus the generation it reflects and an
  /// order-independent content hash of the fact set (two generations with
  /// equal hashes hold the same facts, so e.g. an ASSERT/RETRACT
  /// round-trip is recognizable without comparing instances).
  struct Snapshot {
    std::shared_ptr<const data::Instance> instance;
    std::uint64_t generation = 0;
    std::uint64_t content_hash = 0;
  };
  Snapshot Materialize() const;

  /// The net fact diff from `from_generation` to the current generation,
  /// reconstructed from the mutation log. Returns nullopt when the log no
  /// longer reaches back that far (it is capacity-bounded) or
  /// `from_generation` is ahead of the session — callers then fall back
  /// to a full rebuild. An equal generation yields an empty delta.
  std::optional<FactDelta> DiffSince(std::uint64_t from_generation) const;

 private:
  base::Status Validate(const data::Fact& fact) const;
  void RecordOp(bool added, const data::Fact& fact);
  /// Nets the op log from `from_generation` to now into `out` (the same
  /// reconstruction DiffSince exposes). False when the log was trimmed
  /// past `from_generation`. Caller holds mu_.
  bool NetOpsLocked(std::uint64_t from_generation, FactDelta* out) const;

  const std::uint64_t id_;
  const data::Schema schema_;

  mutable std::mutex mu_;
  /// Insertion-ordered, deduplicated; Retract tombstones its slot (O(1))
  /// instead of erasing, and the list is compacted — order preserved —
  /// once tombstones outnumber live facts.
  std::vector<data::Fact> facts_;
  std::vector<char> live_;
  std::size_t num_live_ = 0;
  /// Canonical fact text -> position in facts_ (live entries only).
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t generation_ = 0;
  /// Constant names in first-ever-occurrence order (append-only); every
  /// materialized snapshot interns all of them, in this order.
  std::vector<std::string> interned_;
  std::unordered_map<std::string, std::size_t> interned_ids_;
  /// Commutative fact-set hash: sum of per-fact FNV-1a hashes, maintained
  /// incrementally by Assert/Retract.
  std::uint64_t content_hash_ = 0;
  /// Mutation log for DiffSince: op i transitions generation
  /// log_base_ + i -> log_base_ + i + 1. Trimmed from the front when it
  /// outgrows its cap (log_base_ then advances past the dropped prefix).
  struct Op {
    bool added = false;
    data::Fact fact;
  };
  std::deque<Op> ops_;
  std::uint64_t log_base_ = 0;
  mutable Session::Snapshot cached_;  // cached_.instance null until built
};

}  // namespace obda::serve

#endif  // OBDA_SERVE_SESSION_H_
