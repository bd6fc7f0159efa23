#ifndef OBDA_DATA_INSTANCE_H_
#define OBDA_DATA_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "data/schema.h"

namespace obda::data {

/// Index of a constant (domain element) within an Instance.
using ConstId = std::uint32_t;
inline constexpr ConstId kInvalidConst = static_cast<ConstId>(-1);

/// A single fact reference: relation id plus index into that relation's
/// tuple store.
struct FactRef {
  RelationId relation;
  std::uint32_t tuple_index;
};

/// A finite relational instance / structure over a Schema (paper §2).
///
/// The *universe* is the set of all added constants; the *active domain*
/// (`ActiveDomain`) is the subset occurring in facts. A pair
/// (universe, facts) models the paper's finite relational structures
/// (dom, D) with adom(D) ⊆ dom: CSP templates may contain isolated
/// elements, so the universe is what homomorphisms map into.
///
/// Facts are deduplicated; tuples are stored flat per relation, indexed
/// by one open-addressing table of tuple indices per relation. Nothing is
/// allocated per fact, so copying or destroying an instance costs a few
/// vector copies or frees per relation, and HasFact/AddFact/RemoveFact
/// allocate nothing beyond amortized growth of the stores themselves.
class Instance {
 public:
  explicit Instance(Schema schema) : schema_(std::move(schema)) {
    tuples_.resize(schema_.NumRelations());
  }

  const Schema& schema() const { return schema_; }

  // --- Universe -----------------------------------------------------------

  /// Interns `name`, returning its id (existing or fresh).
  ConstId AddConstant(const std::string& name);
  /// Adds a fresh anonymous constant (named "_<k>" with k unique).
  ConstId AddFreshConstant(const std::string& prefix = "_");
  std::optional<ConstId> FindConstant(std::string_view name) const;
  const std::string& ConstantName(ConstId c) const;
  std::size_t UniverseSize() const { return const_names_.size(); }

  /// Constants occurring in at least one fact, ascending.
  std::vector<ConstId> ActiveDomain() const;

  // --- Facts --------------------------------------------------------------

  /// Adds the fact `rel(args...)`. Returns true if it was new.
  /// Aborts on arity mismatch (programming error).
  bool AddFact(RelationId rel, std::span<const ConstId> args);
  bool AddFact(RelationId rel, std::initializer_list<ConstId> args);

  /// Convenience: interns constant names and adds the fact; the relation is
  /// looked up by name. Returns error for unknown relation/arity mismatch.
  base::Status AddFactByName(std::string_view relation,
                             const std::vector<std::string>& constants);

  /// Removes the fact `rel(args...)`. Returns true if it was present.
  /// The last tuple of `rel` is swapped into the vacated index, so tuple
  /// indices (and FactRefs) of other relations are untouched but the
  /// tuple ORDER within `rel` is not insertion order afterwards —
  /// enumeration stays deterministic for a deterministic call sequence,
  /// which is what the engines require. Constants never leave the
  /// universe (matching AddConstant's append-only interning).
  bool RemoveFact(RelationId rel, std::span<const ConstId> args);
  bool RemoveFact(RelationId rel, std::initializer_list<ConstId> args);

  /// Name-based RemoveFact. Unknown relation is an error; an unknown
  /// constant just means the fact is absent (false).
  base::Result<bool> RemoveFactByName(
      std::string_view relation, const std::vector<std::string>& constants);

  bool HasFact(RelationId rel, std::span<const ConstId> args) const;
  bool HasFact(RelationId rel, std::initializer_list<ConstId> args) const;

  std::size_t NumFacts() const { return num_facts_; }
  std::size_t NumTuples(RelationId rel) const;

  /// The `i`-th tuple of `rel` (a span of Arity(rel) constant ids).
  std::span<const ConstId> Tuple(RelationId rel, std::uint32_t i) const;

  /// Position `pos` of every tuple of `rel` as one contiguous column:
  /// Column(rel, pos)[i] == Tuple(rel, i)[pos]. Maintained alongside the
  /// flat store so index builds and propagation sweeps stream dense
  /// cache lines instead of striding through arity-interleaved tuples.
  std::span<const ConstId> Column(RelationId rel, std::size_t pos) const;

  /// All facts a constant participates in (for degree ordering/pruning).
  const std::vector<FactRef>& FactsOf(ConstId c) const;

  // --- Derived views ------------------------------------------------------

  /// Restriction to the relations of `target` (matched by name); constants
  /// are preserved (all universe elements are kept). Relations absent from
  /// this instance's schema are allowed in `target` and stay empty.
  Instance ReductTo(const Schema& target) const;

  /// The induced subinstance on `keep` (facts whose constants all lie in
  /// `keep`). Constants outside `keep` are dropped from the universe.
  Instance InducedSubinstance(const std::vector<ConstId>& keep) const;

  /// Stable textual rendering, one fact per line, sorted.
  std::string ToString() const;

  /// True if `other` has exactly the same universe names and fact set.
  bool SameFactsAs(const Instance& other) const;

 private:
  struct RelationStore {
    std::vector<ConstId> flat;  // arity-strided tuples (canonical)
    /// SoA mirror: columns[p][i] == flat[i * arity + p]. Kept in sync by
    /// AddFact/RemoveFact; sized lazily on first fact.
    std::vector<std::vector<ConstId>> columns;
    /// Tuple index: open addressing over tuple indices into `flat`, keyed
    /// by a hash of the tuple's constants. Power-of-two capacity (empty
    /// until the first fact), load at most 1/2, linear probing, and
    /// backward-shift deletion, so there are no tombstones. Unused for
    /// arity 0.
    std::vector<std::uint32_t> slots;
    /// Number of tuples; for arity 0 the presence count (0 or 1).
    std::uint32_t size = 0;
  };

  /// The slot holding `args` in `store`'s index, or else the empty slot
  /// ending its probe run. The index must have at least one slot.
  static std::size_t Probe(const RelationStore& store,
                           std::span<const ConstId> args);
  /// Empties slot `hole` of `store`'s index, shifting the rest of its
  /// probe run back so every entry stays reachable from its home slot.
  static void EraseSlot(RelationStore& store, std::size_t arity,
                        std::size_t hole);
  /// Rebuilds `store`'s index at `capacity` (a power of two) slots.
  static void Rehash(RelationStore& store, std::size_t arity,
                     std::size_t capacity);

  Schema schema_;
  std::vector<std::string> const_names_;
  std::unordered_map<std::string, ConstId> const_by_name_;
  std::vector<RelationStore> tuples_;
  std::vector<std::vector<FactRef>> facts_of_const_;
  std::size_t num_facts_ = 0;
  std::uint64_t fresh_counter_ = 0;
};

/// An n-ary marked instance (D, d1..dn) — paper §4.2. Marks are universe
/// elements of `instance`.
struct MarkedInstance {
  Instance instance;
  std::vector<ConstId> marks;
};

}  // namespace obda::data

#endif  // OBDA_DATA_INSTANCE_H_
