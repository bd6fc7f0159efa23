#include "data/instance.h"

#include <algorithm>

#include "base/check.h"

namespace obda::data {

namespace {

/// Marks an unused slot of a relation's tuple index.
constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);
/// Capacity of a relation's tuple index when its first fact arrives.
constexpr std::size_t kMinCapacity = 8;

/// Index-table hash of a tuple: a multiply-fold over its constants, then
/// the splitmix64 finalizer, so the low bits a power-of-two mask keeps
/// depend on every constant.
std::uint64_t TupleHash(std::span<const ConstId> t) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (ConstId c : t) h = (h ^ c) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// True when args[p] already occurs in args[0, p): a fact is registered
/// in FactsOf once per distinct constant.
bool SeenBefore(std::span<const ConstId> args, std::size_t p) {
  const auto end = args.begin() + static_cast<std::ptrdiff_t>(p);
  return std::find(args.begin(), end, args[p]) != end;
}

}  // namespace

std::size_t Instance::Probe(const RelationStore& store,
                            std::span<const ConstId> args) {
  const std::size_t mask = store.slots.size() - 1;
  const std::size_t arity = args.size();
  for (std::size_t s = TupleHash(args) & mask;; s = (s + 1) & mask) {
    const std::uint32_t t = store.slots[s];
    if (t == kEmptySlot ||
        std::equal(args.begin(), args.end(),
                   store.flat.begin() +
                       static_cast<std::ptrdiff_t>(t * arity))) {
      return s;
    }
  }
}

void Instance::EraseSlot(RelationStore& store, std::size_t arity,
                         std::size_t hole) {
  const std::size_t mask = store.slots.size() - 1;
  for (std::size_t j = (hole + 1) & mask; store.slots[j] != kEmptySlot;
       j = (j + 1) & mask) {
    const std::uint32_t t = store.slots[j];
    const std::size_t home =
        TupleHash({store.flat.data() + std::size_t{t} * arity, arity}) & mask;
    // The entry at j may fill the hole unless its home slot lies
    // cyclically in (hole, j]: then it must stay at or after its home.
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      store.slots[hole] = t;
      hole = j;
    }
  }
  store.slots[hole] = kEmptySlot;
}

void Instance::Rehash(RelationStore& store, std::size_t arity,
                      std::size_t capacity) {
  const std::size_t mask = capacity - 1;
  store.slots.assign(capacity, kEmptySlot);
  for (std::uint32_t i = 0; i < store.size; ++i) {
    std::size_t s =
        TupleHash({store.flat.data() + std::size_t{i} * arity, arity}) & mask;
    while (store.slots[s] != kEmptySlot) s = (s + 1) & mask;
    store.slots[s] = i;
  }
}

ConstId Instance::AddConstant(const std::string& name) {
  auto it = const_by_name_.find(name);
  if (it != const_by_name_.end()) return it->second;
  ConstId id = static_cast<ConstId>(const_names_.size());
  const_by_name_.emplace(name, id);
  const_names_.push_back(name);
  facts_of_const_.emplace_back();
  return id;
}

ConstId Instance::AddFreshConstant(const std::string& prefix) {
  for (;;) {
    std::string name = prefix + std::to_string(fresh_counter_++);
    if (const_by_name_.find(name) == const_by_name_.end()) {
      return AddConstant(name);
    }
  }
}

std::optional<ConstId> Instance::FindConstant(std::string_view name) const {
  auto it = const_by_name_.find(std::string(name));
  if (it == const_by_name_.end()) return std::nullopt;
  return it->second;
}

const std::string& Instance::ConstantName(ConstId c) const {
  OBDA_CHECK_LT(c, const_names_.size());
  return const_names_[c];
}

std::vector<ConstId> Instance::ActiveDomain() const {
  std::vector<ConstId> out;
  for (ConstId c = 0; c < const_names_.size(); ++c) {
    if (!facts_of_const_[c].empty()) out.push_back(c);
  }
  return out;
}

bool Instance::AddFact(RelationId rel, std::span<const ConstId> args) {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  OBDA_CHECK_EQ(static_cast<int>(args.size()), schema_.Arity(rel));
  for (ConstId c : args) OBDA_CHECK_LT(c, const_names_.size());
  RelationStore& store = tuples_[rel];
  const std::uint32_t index = store.size;
  if (args.empty()) {
    // Arity-0 relations have no flat storage: their single possible
    // tuple is present or not, with tuple index 0.
    if (store.size > 0) return false;
  } else {
    if (store.slots.empty()) Rehash(store, args.size(), kMinCapacity);
    std::size_t slot = Probe(store, args);
    if (store.slots[slot] != kEmptySlot) return false;
    if ((store.size + std::size_t{1}) * 2 > store.slots.size()) {
      Rehash(store, args.size(), store.slots.size() * 2);
      slot = Probe(store, args);
    }
    store.slots[slot] = index;
    store.flat.insert(store.flat.end(), args.begin(), args.end());
    if (store.columns.empty()) store.columns.resize(args.size());
    for (std::size_t p = 0; p < args.size(); ++p) {
      store.columns[p].push_back(args[p]);
    }
  }
  ++store.size;
  // Register the fact once per *distinct* constant in it.
  for (std::size_t p = 0; p < args.size(); ++p) {
    if (!SeenBefore(args, p)) {
      facts_of_const_[args[p]].push_back(FactRef{rel, index});
    }
  }
  ++num_facts_;
  return true;
}

bool Instance::AddFact(RelationId rel, std::initializer_list<ConstId> args) {
  return AddFact(rel, std::span<const ConstId>(args.begin(), args.size()));
}

base::Status Instance::AddFactByName(
    std::string_view relation, const std::vector<std::string>& constants) {
  auto rel = schema_.FindRelation(relation);
  if (!rel.has_value()) {
    return base::NotFoundError("unknown relation " + std::string(relation));
  }
  if (schema_.Arity(*rel) != static_cast<int>(constants.size())) {
    return base::InvalidArgumentError(
        "arity mismatch for relation " + std::string(relation) + ": got " +
        std::to_string(constants.size()));
  }
  std::vector<ConstId> args;
  args.reserve(constants.size());
  for (const auto& c : constants) args.push_back(AddConstant(c));
  AddFact(*rel, std::span<const ConstId>(args));
  return base::Status::Ok();
}

bool Instance::HasFact(RelationId rel, std::span<const ConstId> args) const {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  if (static_cast<int>(args.size()) != schema_.Arity(rel)) return false;
  const RelationStore& store = tuples_[rel];
  if (args.empty()) return store.size > 0;
  return !store.slots.empty() &&
         store.slots[Probe(store, args)] != kEmptySlot;
}

bool Instance::RemoveFact(RelationId rel, std::span<const ConstId> args) {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  OBDA_CHECK_EQ(static_cast<int>(args.size()), schema_.Arity(rel));
  RelationStore& store = tuples_[rel];
  const std::size_t arity = args.size();
  std::size_t slot = 0;
  std::uint32_t index = 0;  // arity 0: the single possible tuple
  if (arity == 0) {
    if (store.size == 0) return false;
  } else {
    if (store.slots.empty()) return false;
    slot = Probe(store, args);
    index = store.slots[slot];
    if (index == kEmptySlot) return false;
  }
  // Unregister once per *distinct* constant, mirroring AddFact. `args`
  // may point into this store, so it is read only before any write.
  for (std::size_t p = 0; p < arity; ++p) {
    if (SeenBefore(args, p)) continue;
    auto& list = facts_of_const_[args[p]];
    for (auto ref = list.begin(); ref != list.end(); ++ref) {
      if (ref->relation == rel && ref->tuple_index == index) {
        list.erase(ref);
        break;
      }
    }
  }
  if (arity > 0) {
    EraseSlot(store, arity, slot);
    const std::uint32_t last = store.size - 1;
    auto& flat = store.flat;
    auto& columns = store.columns;
    if (index != last) {
      // Swap the last tuple into the vacated index: repoint its slot,
      // move its constants, and rebind its refs.
      const std::span<const ConstId> moved(flat.data() + last * arity, arity);
      store.slots[Probe(store, moved)] = index;
      std::copy(moved.begin(), moved.end(), flat.begin() + index * arity);
      const std::span<const ConstId> now(flat.data() + index * arity, arity);
      for (std::size_t p = 0; p < arity; ++p) {
        columns[p][index] = now[p];
        if (SeenBefore(now, p)) continue;
        for (FactRef& ref : facts_of_const_[now[p]]) {
          if (ref.relation == rel && ref.tuple_index == last) {
            ref.tuple_index = index;
            break;
          }
        }
      }
    }
    flat.resize(flat.size() - arity);
    for (std::size_t p = 0; p < arity; ++p) columns[p].pop_back();
  }
  --store.size;
  --num_facts_;
  return true;
}

bool Instance::RemoveFact(RelationId rel,
                          std::initializer_list<ConstId> args) {
  return RemoveFact(rel, std::span<const ConstId>(args.begin(), args.size()));
}

base::Result<bool> Instance::RemoveFactByName(
    std::string_view relation, const std::vector<std::string>& constants) {
  auto rel = schema_.FindRelation(relation);
  if (!rel.has_value()) {
    return base::NotFoundError("unknown relation " + std::string(relation));
  }
  if (schema_.Arity(*rel) != static_cast<int>(constants.size())) {
    return base::InvalidArgumentError(
        "arity mismatch for relation " + std::string(relation) + ": got " +
        std::to_string(constants.size()));
  }
  std::vector<ConstId> args;
  args.reserve(constants.size());
  for (const auto& c : constants) {
    auto id = FindConstant(c);
    if (!id.has_value()) return false;  // unknown constant: fact absent
    args.push_back(*id);
  }
  return RemoveFact(*rel, std::span<const ConstId>(args));
}

bool Instance::HasFact(RelationId rel,
                       std::initializer_list<ConstId> args) const {
  return HasFact(rel, std::span<const ConstId>(args.begin(), args.size()));
}

std::size_t Instance::NumTuples(RelationId rel) const {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  return tuples_[rel].size;
}

std::span<const ConstId> Instance::Tuple(RelationId rel,
                                         std::uint32_t i) const {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  int arity = schema_.Arity(rel);
  if (arity == 0) return {};
  const auto& flat = tuples_[rel].flat;
  OBDA_CHECK_LT(static_cast<std::size_t>(i) * arity, flat.size() + 1);
  return std::span<const ConstId>(flat.data() + static_cast<std::size_t>(i) *
                                                    arity,
                                  static_cast<std::size_t>(arity));
}

std::span<const ConstId> Instance::Column(RelationId rel,
                                          std::size_t pos) const {
  OBDA_CHECK_LT(rel, schema_.NumRelations());
  OBDA_CHECK_LT(static_cast<int>(pos), schema_.Arity(rel));
  const auto& columns = tuples_[rel].columns;
  if (columns.empty()) return {};  // no facts yet
  return columns[pos];
}

const std::vector<FactRef>& Instance::FactsOf(ConstId c) const {
  OBDA_CHECK_LT(c, facts_of_const_.size());
  return facts_of_const_[c];
}

Instance Instance::ReductTo(const Schema& target) const {
  Instance out(target);
  for (ConstId c = 0; c < const_names_.size(); ++c) {
    out.AddConstant(const_names_[c]);
  }
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    auto tr = target.FindRelation(schema_.RelationName(r));
    if (!tr.has_value()) continue;
    OBDA_CHECK_EQ(target.Arity(*tr), schema_.Arity(r));
    for (std::uint32_t i = 0; i < NumTuples(r); ++i) {
      out.AddFact(*tr, Tuple(r, i));
    }
  }
  return out;
}

Instance Instance::InducedSubinstance(const std::vector<ConstId>& keep) const {
  std::vector<bool> in_keep(const_names_.size(), false);
  for (ConstId c : keep) in_keep[c] = true;
  Instance out(schema_);
  std::vector<ConstId> remap(const_names_.size(), kInvalidConst);
  for (ConstId c = 0; c < const_names_.size(); ++c) {
    if (in_keep[c]) remap[c] = out.AddConstant(const_names_[c]);
  }
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    for (std::uint32_t i = 0; i < NumTuples(r); ++i) {
      auto t = Tuple(r, i);
      bool ok = true;
      std::vector<ConstId> mapped;
      mapped.reserve(t.size());
      for (ConstId c : t) {
        if (!in_keep[c]) {
          ok = false;
          break;
        }
        mapped.push_back(remap[c]);
      }
      if (ok) out.AddFact(r, mapped);
    }
  }
  return out;
}

std::string Instance::ToString() const {
  std::vector<std::string> lines;
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    for (std::uint32_t i = 0; i < NumTuples(r); ++i) {
      std::string line = schema_.RelationName(r) + "(";
      auto t = Tuple(r, i);
      for (std::size_t j = 0; j < t.size(); ++j) {
        if (j > 0) line += ",";
        line += const_names_[t[j]];
      }
      line += ")";
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += "\n";
  }
  return out;
}

bool Instance::SameFactsAs(const Instance& other) const {
  if (!schema_.LayoutCompatible(other.schema_)) return false;
  if (num_facts_ != other.num_facts_) return false;
  for (RelationId r = 0; r < schema_.NumRelations(); ++r) {
    if (NumTuples(r) != other.NumTuples(r)) return false;
    for (std::uint32_t i = 0; i < NumTuples(r); ++i) {
      auto t = Tuple(r, i);
      std::vector<ConstId> mapped;
      mapped.reserve(t.size());
      bool ok = true;
      for (ConstId c : t) {
        auto oc = other.FindConstant(const_names_[c]);
        if (!oc.has_value()) {
          ok = false;
          break;
        }
        mapped.push_back(*oc);
      }
      if (!ok || !other.HasFact(r, mapped)) return false;
    }
  }
  return true;
}

}  // namespace obda::data
