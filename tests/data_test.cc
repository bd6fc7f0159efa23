#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "data/generator.h"
#include "data/homomorphism.h"
#include "data/instance.h"
#include "data/io.h"
#include "data/ops.h"
#include "data/schema.h"

namespace obda::data {
namespace {

Schema GraphSchema() {
  Schema s;
  s.AddRelation("E", 2);
  return s;
}

TEST(SchemaTest, AddAndFind) {
  Schema s;
  RelationId r = s.AddRelation("R", 2);
  RelationId a = s.AddRelation("A", 1);
  EXPECT_EQ(s.NumRelations(), 2u);
  EXPECT_EQ(s.FindRelation("R"), r);
  EXPECT_EQ(s.FindRelation("A"), a);
  EXPECT_FALSE(s.FindRelation("B").has_value());
  EXPECT_EQ(s.Arity(r), 2);
  EXPECT_TRUE(s.IsBinary());
}

TEST(SchemaTest, TernaryIsNotBinary) {
  Schema s;
  s.AddRelation("P", 3);
  EXPECT_FALSE(s.IsBinary());
}

TEST(SchemaTest, UnionMergesAndDetectsConflicts) {
  Schema a;
  a.AddRelation("R", 2);
  Schema b;
  b.AddRelation("R", 2);
  b.AddRelation("A", 1);
  auto u = Schema::Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->NumRelations(), 2u);

  Schema c;
  c.AddRelation("R", 3);
  EXPECT_FALSE(Schema::Union(a, c).ok());
}

TEST(SchemaTest, LayoutCompatibility) {
  Schema a;
  a.AddRelation("R", 2);
  a.AddRelation("A", 1);
  Schema b;
  b.AddRelation("R", 2);
  b.AddRelation("A", 1);
  EXPECT_TRUE(a.LayoutCompatible(b));
  Schema c;
  c.AddRelation("A", 1);
  c.AddRelation("R", 2);
  EXPECT_FALSE(a.LayoutCompatible(c));
  EXPECT_TRUE(c.SubschemaOf(a));
}

TEST(InstanceTest, AddFactsAndDedupe) {
  Instance d(GraphSchema());
  ConstId a = d.AddConstant("a");
  ConstId b = d.AddConstant("b");
  EXPECT_TRUE(d.AddFact(0, {a, b}));
  EXPECT_FALSE(d.AddFact(0, {a, b}));
  EXPECT_TRUE(d.AddFact(0, {b, a}));
  EXPECT_EQ(d.NumFacts(), 2u);
  EXPECT_TRUE(d.HasFact(0, {a, b}));
  EXPECT_FALSE(d.HasFact(0, {a, a}));
}

TEST(InstanceTest, ActiveDomainExcludesIsolated) {
  Instance d(GraphSchema());
  ConstId a = d.AddConstant("a");
  ConstId b = d.AddConstant("b");
  d.AddConstant("isolated");
  d.AddFact(0, {a, b});
  auto adom = d.ActiveDomain();
  EXPECT_EQ(adom.size(), 2u);
  EXPECT_EQ(d.UniverseSize(), 3u);
}

TEST(InstanceTest, ZeroAryFacts) {
  Schema s;
  s.AddRelation("Flag", 0);
  Instance d(s);
  EXPECT_TRUE(d.AddFact(0, {}));
  EXPECT_FALSE(d.AddFact(0, {}));
  EXPECT_TRUE(d.HasFact(0, {}));
}

TEST(InstanceTest, InducedSubinstance) {
  Instance d(GraphSchema());
  ConstId a = d.AddConstant("a");
  ConstId b = d.AddConstant("b");
  ConstId c = d.AddConstant("c");
  d.AddFact(0, {a, b});
  d.AddFact(0, {b, c});
  Instance sub = d.InducedSubinstance({a, b});
  EXPECT_EQ(sub.UniverseSize(), 2u);
  EXPECT_EQ(sub.NumFacts(), 1u);
}

TEST(InstanceTest, ReductDropsRelations) {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("A", 1);
  Instance d(s);
  ConstId a = d.AddConstant("a");
  d.AddFact(*s.FindRelation("E"), {a, a});
  d.AddFact(*s.FindRelation("A"), {a});
  Schema target;
  target.AddRelation("A", 1);
  Instance red = d.ReductTo(target);
  EXPECT_EQ(red.NumFacts(), 1u);
  EXPECT_EQ(red.UniverseSize(), 1u);
}

TEST(IoTest, ParseAgainstSchema) {
  Schema s;
  s.AddRelation("R", 2);
  s.AddRelation("A", 1);
  auto d = ParseInstance(s, "R(a,b). A(b). R(b,c)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumFacts(), 3u);
  EXPECT_EQ(d->UniverseSize(), 3u);
}

TEST(IoTest, ParseRejectsUnknownRelation) {
  Schema s;
  s.AddRelation("R", 2);
  EXPECT_FALSE(ParseInstance(s, "Q(a,b)").ok());
}

TEST(IoTest, ParseRejectsArityMismatch) {
  Schema s;
  s.AddRelation("R", 2);
  EXPECT_FALSE(ParseInstance(s, "R(a)").ok());
}

TEST(IoTest, ParseAuto) {
  auto d = ParseInstanceAuto("Edge(a,b) Edge(b,c) Label(a)");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->schema().NumRelations(), 2u);
  EXPECT_EQ(d->NumFacts(), 3u);
}

// --- Homomorphisms --------------------------------------------------------

TEST(HomTest, PathMapsIntoCycleAndLoop) {
  // A directed path winds around a directed 2-cycle, and collapses onto a
  // loop; it does NOT map into a single directed edge (no edge out of the
  // edge's head).
  Instance path = DirectedPath("E", 2);
  EXPECT_TRUE(*HomomorphismExists(path, DirectedCycle("E", 2)));
  EXPECT_TRUE(*HomomorphismExists(path, Loop("E")));
  EXPECT_FALSE(*HomomorphismExists(path, DirectedPath("E", 1)));
  // An edge maps into a path.
  EXPECT_TRUE(*HomomorphismExists(DirectedPath("E", 1), path));
}

TEST(HomTest, OddCycleToK2Fails) {
  Instance c3 = DirectedCycle("E", 3);
  Instance k2 = Clique("E", 2);
  EXPECT_FALSE(*HomomorphismExists(c3, k2));
  Instance c4 = DirectedCycle("E", 4);
  EXPECT_TRUE(*HomomorphismExists(c4, k2));
}

TEST(HomTest, K3ColorsTriangleButNotK4) {
  Instance k3 = Clique("E", 3);
  EXPECT_TRUE(*HomomorphismExists(DirectedCycle("E", 3), k3));
  EXPECT_FALSE(*HomomorphismExists(Clique("E", 4), k3));
}

TEST(HomTest, WitnessIsValid) {
  Instance c6 = DirectedCycle("E", 6);
  Instance k2 = Clique("E", 2);
  HomResult r = FindHomomorphism(c6, k2);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(IsHomomorphism(c6, k2, r.mapping));
}

TEST(HomTest, PinnedConstraintsRespected) {
  Instance path = DirectedPath("E", 1);  // v0 -> v1
  Instance k2 = Clique("E", 2);
  ConstId v0 = *path.FindConstant("v0");
  ConstId t0 = *k2.FindConstant("v0");
  ConstId t1 = *k2.FindConstant("v1");
  HomResult r = FindHomomorphism(path, k2, {{v0, t0}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.mapping[v0], t0);
  r = FindHomomorphism(path, k2, {{v0, t1}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.mapping[v0], t1);
}

TEST(HomTest, MarkedHomomorphism) {
  // Path a->b with both endpoints marked; target edge with marks swapped
  // admits no marked hom.
  Instance p = DirectedPath("E", 1);
  MarkedInstance src{p, {*p.FindConstant("v0"), *p.FindConstant("v1")}};
  Instance q = DirectedPath("E", 1);
  MarkedInstance tgt_ok{q, {*q.FindConstant("v0"), *q.FindConstant("v1")}};
  MarkedInstance tgt_bad{q, {*q.FindConstant("v1"), *q.FindConstant("v0")}};
  EXPECT_TRUE(MarkedHomomorphismExists(src, tgt_ok));
  EXPECT_FALSE(MarkedHomomorphismExists(src, tgt_bad));
}

TEST(HomTest, CountHomomorphisms) {
  // Single vertex, no facts -> maps anywhere: |universe(B)| homs.
  Schema s = GraphSchema();
  Instance single(s);
  single.AddConstant("x");
  Instance k3 = Clique("E", 3);
  EXPECT_EQ(*CountHomomorphisms(single, k3, 100), 3u);
  // Edge into K3: 6 homs.
  EXPECT_EQ(*CountHomomorphisms(DirectedPath("E", 1), k3, 100), 6u);
}

TEST(HomTest, EmptySourceHasTrivialHom) {
  Schema s = GraphSchema();
  Instance empty(s);
  Instance k3 = Clique("E", 3);
  EXPECT_TRUE(*HomomorphismExists(empty, k3));
  EXPECT_TRUE(*HomomorphismExists(empty, empty));
}

TEST(HomTest, NonemptySourceEmptyTargetFails) {
  Schema s = GraphSchema();
  Instance src(s);
  src.AddConstant("x");
  Instance empty(s);
  EXPECT_FALSE(*HomomorphismExists(src, empty));
}

TEST(HomTest, ZeroAryFactRequiresTargetFact) {
  Schema s;
  s.AddRelation("Flag", 0);
  Instance a(s);
  a.AddFact(0, {});
  Instance b(s);
  EXPECT_FALSE(*HomomorphismExists(a, b));
  b.AddFact(0, {});
  EXPECT_TRUE(*HomomorphismExists(a, b));
}

// --- Ops -------------------------------------------------------------------

TEST(OpsTest, DisjointUnionAddsUp) {
  Instance a = DirectedCycle("E", 3);
  Instance b = DirectedPath("E", 2);
  Instance u = DisjointUnion(a, b);
  EXPECT_EQ(u.NumFacts(), a.NumFacts() + b.NumFacts());
  EXPECT_EQ(u.UniverseSize(), a.UniverseSize() + b.UniverseSize());
  // Components map back into their originals.
  EXPECT_TRUE(*HomomorphismExists(a, u));
  EXPECT_TRUE(*HomomorphismExists(b, u));
}

TEST(OpsTest, ProductProjectsToFactors) {
  Instance a = DirectedCycle("E", 2);
  Instance b = DirectedCycle("E", 3);
  Instance p = DirectProduct(a, b);
  EXPECT_EQ(p.UniverseSize(), 6u);
  EXPECT_TRUE(*HomomorphismExists(p, a));
  EXPECT_TRUE(*HomomorphismExists(p, b));
}

TEST(OpsTest, ProductUniversalProperty) {
  // C -> A and C -> B implies C -> A x B (verified on an example).
  Instance c = DirectedPath("E", 3);
  Instance a = Clique("E", 2);
  Instance b = Clique("E", 3);
  ASSERT_TRUE(*HomomorphismExists(c, a));
  ASSERT_TRUE(*HomomorphismExists(c, b));
  EXPECT_TRUE(*HomomorphismExists(c, DirectProduct(a, b)));
}

TEST(OpsTest, QuotientCollapses) {
  Instance p = DirectedPath("E", 2);  // v0->v1->v2
  // Collapse v0 and v2 into one class.
  std::vector<ConstId> cls = {0, 1, 0};
  Instance q = Quotient(p, cls);
  EXPECT_EQ(q.UniverseSize(), 2u);
  EXPECT_EQ(q.NumFacts(), 2u);  // v0->v1 and v1->v0
}

TEST(OpsTest, DirectedCycleIsItsOwnCore) {
  // A directed cycle cannot retract onto a proper (path-shaped) subgraph.
  Instance c6 = DirectedCycle("E", 6);
  EXPECT_EQ(CoreOf(c6).UniverseSize(), 6u);
}

TEST(OpsTest, CoreOfUnionOfCompatibleCycles) {
  // C6 maps onto C3 (indices mod 3) but not conversely, so the core of
  // C3 ⊎ C6 is C3.
  Instance u = DisjointUnion(DirectedCycle("E", 3), DirectedCycle("E", 6));
  Instance core = CoreOf(u);
  EXPECT_EQ(core.UniverseSize(), 3u);
  EXPECT_TRUE(*HomomorphismExists(u, core));
  EXPECT_TRUE(*HomomorphismExists(core, u));
}

TEST(OpsTest, CoreOfCliqueIsItself) {
  Instance k3 = Clique("E", 3);
  Instance core = CoreOf(k3);
  EXPECT_EQ(core.UniverseSize(), 3u);
}

TEST(OpsTest, CoreDropsIsolatedElements) {
  Instance g = Clique("E", 2);
  g.AddConstant("isolated");
  Instance core = CoreOf(g);
  EXPECT_EQ(core.UniverseSize(), 2u);
}

TEST(OpsTest, MarkedCoreKeepsMarks) {
  // Path v0->v1->v2 with v2 marked: core must retain v2.
  Instance p = DirectedPath("E", 2);
  MarkedInstance m{p, {*p.FindConstant("v2")}};
  MarkedInstance core = CoreOf(m);
  ASSERT_EQ(core.marks.size(), 1u);
  EXPECT_EQ(core.instance.ConstantName(core.marks[0]), "v2");
}

// --- Property sweep: hom composition --------------------------------------

class HomPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HomPropertyTest, HomomorphismsCompose) {
  base::Rng rng(GetParam());
  Schema s = GraphSchema();
  Instance a = RandomDigraph("E", 4, 5, rng);
  Instance b = RandomDigraph("E", 5, 8, rng);
  Instance c = RandomDigraph("E", 5, 12, rng);
  HomResult ab = FindHomomorphism(a, b);
  HomResult bc = FindHomomorphism(b, c);
  if (ab.found && bc.found) {
    std::vector<ConstId> composed(a.UniverseSize());
    for (ConstId x = 0; x < a.UniverseSize(); ++x) {
      composed[x] = bc.mapping[ab.mapping[x]];
    }
    EXPECT_TRUE(IsHomomorphism(a, c, composed));
  }
}

TEST_P(HomPropertyTest, IdentityIsHomomorphism) {
  base::Rng rng(GetParam() + 1000);
  Instance a = RandomDigraph("E", 6, 10, rng);
  std::vector<ConstId> id(a.UniverseSize());
  for (ConstId x = 0; x < a.UniverseSize(); ++x) id[x] = x;
  EXPECT_TRUE(IsHomomorphism(a, a, id));
  EXPECT_TRUE(*HomomorphismExists(a, a));
}

TEST_P(HomPropertyTest, CoreIsHomEquivalent) {
  base::Rng rng(GetParam() + 2000);
  Instance a = RandomDigraph("E", 5, 7, rng);
  Instance core = CoreOf(a);
  EXPECT_TRUE(*HomomorphismExists(a, core));
  EXPECT_TRUE(*HomomorphismExists(core, a));
  // The core is itself a core: no further shrink possible.
  EXPECT_EQ(CoreOf(core).UniverseSize(), core.UniverseSize());
}

TEST_P(HomPropertyTest, ProductIsGreatestLowerBound) {
  base::Rng rng(GetParam() + 3000);
  Instance a = RandomDigraph("E", 4, 6, rng);
  Instance b = RandomDigraph("E", 4, 6, rng);
  Instance p = DirectProduct(a, b);
  EXPECT_TRUE(*HomomorphismExists(p, a));
  EXPECT_TRUE(*HomomorphismExists(p, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomPropertyTest, ::testing::Range(0, 12));

// --- Wire-format facts and round-tripping serialization ---------------------

TEST(IoFactTest, ParseFactsBasics) {
  auto facts = ParseFacts("R(a,b). A(b) R(b , c), P()");
  ASSERT_TRUE(facts.ok()) << facts.status().ToString();
  ASSERT_EQ(facts->size(), 4u);
  EXPECT_EQ((*facts)[0], (Fact{"R", {"a", "b"}}));
  EXPECT_EQ((*facts)[1], (Fact{"A", {"b"}}));
  EXPECT_EQ((*facts)[2], (Fact{"R", {"b", "c"}}));
  EXPECT_EQ((*facts)[3], (Fact{"P", {}}));
}

TEST(IoFactTest, QuotedNamesRoundTrip) {
  const Fact weird{"Rel Name", {"a b", "tab\there", "say \"hi\"", "back\\"}};
  auto parsed = ParseFacts(FormatFact(weird));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], weird);
}

TEST(IoFactTest, MalformedInputsAreErrorsNotAborts) {
  const char* cases[] = {
      "R(a",              // unclosed argument list
      "R a, b)",          // missing open paren
      "(a, b)",           // missing relation name
      "R(a) trailing(",   // second fact malformed
      "\"unterminated",   // unterminated quote
      "\"bad\\q\"(a)",    // unknown escape
      "\"dangling\\",     // dangling escape at end
      "!const",           // directive without a name
  };
  for (const char* text : cases) {
    auto r = ParseFacts(text);
    EXPECT_FALSE(r.ok()) << "accepted: " << text;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), base::StatusCode::kInvalidArgument)
          << text;
    }
  }
  // Schema-level failures are errors too, never CHECK-aborts.
  Schema s = GraphSchema();
  EXPECT_FALSE(ParseInstance(s, "Unknown(a)").ok());
  EXPECT_FALSE(ParseInstance(s, "E(a)").ok());
  EXPECT_FALSE(ParseInstance(s, "E(a, b, c)").ok());
}

TEST(IoFactTest, ConstDirectiveCarriesIsolatedConstants) {
  // Note '.' is an identifier character, so an unquoted name absorbs an
  // adjacent dot; whitespace is the unambiguous separator after !const.
  auto parsed = ParseFactList("!const lonely E(a, b) !const \"two words\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->facts.size(), 1u);
  EXPECT_EQ(parsed->isolated_constants,
            (std::vector<std::string>{"lonely", "two words"}));
}

TEST(IoRoundTripTest, FormatParseIsExactAndFixpoint) {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("Label Of", 1);  // relation name needing quoting
  s.AddRelation("P", 0);
  Instance d(s);
  d.AddConstant("isolated");       // universe element in no fact
  d.AddConstant("spa ced");        // constant needing quoting
  ASSERT_TRUE(d.AddFactByName("E", {"b", "a"}).ok());
  ASSERT_TRUE(d.AddFactByName("E", {"a", "spa ced"}).ok());
  ASSERT_TRUE(d.AddFactByName("Label Of", {"a"}).ok());
  ASSERT_TRUE(d.AddFactByName("P", {}).ok());

  const std::string text = FormatInstance(d);
  auto back = ParseInstance(s, text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->SameFactsAs(d));
  EXPECT_EQ(back->UniverseSize(), d.UniverseSize());
  EXPECT_TRUE(back->FindConstant("isolated").has_value());
  // The canonical form is a fixpoint: formatting the re-parse is
  // byte-identical (stable constant ordering included).
  EXPECT_EQ(FormatInstance(*back), text);
  auto again = ParseInstance(s, FormatInstance(*back));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), back->ToString());
}

TEST(IoRoundTripTest, RandomInstancesRoundTripDifferentially) {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("A", 1);
  s.AddRelation("T", 3);
  for (int seed = 0; seed < 30; ++seed) {
    base::Rng rng(seed);
    RandomInstanceOptions options;
    options.num_constants = 3 + rng.Below(6);
    options.facts_per_relation = rng.Below(10);
    Instance d = RandomInstance(s, options, rng);
    const std::string text = FormatInstance(d);
    auto back = ParseInstance(s, text);
    ASSERT_TRUE(back.ok()) << "seed " << seed << ": "
                           << back.status().ToString();
    EXPECT_TRUE(back->SameFactsAs(d)) << "seed " << seed << "\n" << text;
    EXPECT_EQ(back->UniverseSize(), d.UniverseSize()) << "seed " << seed;
    EXPECT_EQ(FormatInstance(*back), text) << "seed " << seed;
  }
}

/// Column(rel, p)[i] must equal Tuple(rel, i)[p] for every live tuple —
/// the SoA mirror the vectorized index builds stream from.
void CheckColumnsMirrorTuples(const Instance& d) {
  for (RelationId r = 0; r < d.schema().NumRelations(); ++r) {
    const int arity = d.schema().Arity(r);
    for (int p = 0; p < arity; ++p) {
      auto col = d.Column(r, static_cast<std::size_t>(p));
      ASSERT_EQ(col.size(), d.NumTuples(r));
      for (std::uint32_t i = 0; i < d.NumTuples(r); ++i) {
        EXPECT_EQ(col[i], d.Tuple(r, i)[static_cast<std::size_t>(p)]);
      }
    }
  }
}

TEST(InstanceTest, ColumnsMirrorFlatUnderChurn) {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("T", 3);
  s.AddRelation("U", 1);
  Instance d(s);
  base::Rng rng(88);
  std::vector<ConstId> consts;
  for (int i = 0; i < 12; ++i) {
    consts.push_back(d.AddConstant("c" + std::to_string(i)));
  }
  auto random_args = [&](RelationId r) {
    std::vector<ConstId> args;
    for (int p = 0; p < s.Arity(r); ++p) {
      args.push_back(consts[rng.Below(consts.size())]);
    }
    return args;
  };
  // Interleave adds and removes; removal swaps the last tuple into the
  // vacated slot, so the column mirror must track the compaction too.
  for (int step = 0; step < 400; ++step) {
    const RelationId r = static_cast<RelationId>(rng.Below(3));
    if (rng.Chance(2, 3) || d.NumTuples(r) == 0) {
      d.AddFact(r, random_args(r));
    } else {
      const std::uint32_t i =
          static_cast<std::uint32_t>(rng.Below(d.NumTuples(r)));
      auto t = d.Tuple(r, i);
      std::vector<ConstId> args(t.begin(), t.end());
      EXPECT_TRUE(d.RemoveFact(r, args));
    }
    if (step % 40 == 0) CheckColumnsMirrorTuples(d);
  }
  CheckColumnsMirrorTuples(d);
}


// --- Tuple index: differential against a std::set model --------------------

using FactModel = std::set<std::pair<RelationId, std::vector<ConstId>>>;

Schema MixedAritySchema() {
  Schema s;
  s.AddRelation("P", 0);
  s.AddRelation("A", 1);
  s.AddRelation("E", 2);
  s.AddRelation("T", 3);
  return s;
}

std::vector<ConstId> RandomArgs(base::Rng& rng, int arity,
                                std::size_t num_consts) {
  std::vector<ConstId> args;
  for (int p = 0; p < arity; ++p) {
    args.push_back(static_cast<ConstId>(rng.Below(num_consts)));
  }
  return args;
}

/// Checks `d` against `model`: per-relation counts, every stored tuple in
/// the model exactly once, HasFact on every model fact, and FactsOf(c)
/// naming exactly the facts that mention c (once each).
void ExpectMatchesModel(const Instance& d, const FactModel& model) {
  ASSERT_EQ(d.NumFacts(), model.size());
  std::vector<std::size_t> per_rel(d.schema().NumRelations(), 0);
  std::vector<std::set<std::pair<RelationId, std::vector<ConstId>>>>
      expect_of(d.UniverseSize());
  for (const auto& [r, args] : model) {
    ++per_rel[r];
    EXPECT_TRUE(d.HasFact(r, args));
    for (ConstId c : args) expect_of[c].insert({r, args});
  }
  FactModel stored;
  for (RelationId r = 0; r < d.schema().NumRelations(); ++r) {
    ASSERT_EQ(d.NumTuples(r), per_rel[r]) << "relation " << r;
    for (std::uint32_t i = 0; i < d.NumTuples(r); ++i) {
      auto t = d.Tuple(r, i);
      EXPECT_TRUE(stored.insert({r, {t.begin(), t.end()}}).second);
    }
  }
  EXPECT_EQ(stored, model);
  for (ConstId c = 0; c < d.UniverseSize(); ++c) {
    std::set<std::pair<RelationId, std::vector<ConstId>>> got;
    for (const FactRef& ref : d.FactsOf(c)) {
      auto t = d.Tuple(ref.relation, ref.tuple_index);
      EXPECT_TRUE(got.insert({ref.relation, {t.begin(), t.end()}}).second)
          << "constant " << c << " lists a fact twice";
    }
    EXPECT_EQ(got, expect_of[c]) << "constant " << c;
  }
}

TEST(TupleIndexTest, SeededAddRemoveHasMatchesSetModel) {
  const Schema s = MixedAritySchema();
  for (int seed = 0; seed < 8; ++seed) {
    base::Rng rng(500 + seed);
    Instance d(s);
    const std::size_t num_consts = 4 + rng.Below(6);
    for (std::size_t c = 0; c < num_consts; ++c) {
      d.AddConstant("c" + std::to_string(c));
    }
    FactModel model;
    for (int step = 0; step < 1500; ++step) {
      const RelationId r = static_cast<RelationId>(rng.Below(4));
      const std::vector<ConstId> args =
          RandomArgs(rng, s.Arity(r), num_consts);
      const bool present = model.count({r, args}) > 0;
      switch (rng.Below(3)) {
        case 0:
          EXPECT_EQ(d.AddFact(r, args), !present);
          model.insert({r, args});
          break;
        case 1:
          EXPECT_EQ(d.RemoveFact(r, args), present);
          model.erase({r, args});
          break;
        default:
          EXPECT_EQ(d.HasFact(r, args), present);
      }
      if (step % 100 == 0) ExpectMatchesModel(d, model);
    }
    ExpectMatchesModel(d, model);
    CheckColumnsMirrorTuples(d);
  }
}

TEST(TupleIndexTest, GrowsThroughRehashesAndDrainsToEmpty) {
  const Schema s = MixedAritySchema();
  Instance d(s);
  const std::size_t num_consts = 40;
  for (std::size_t c = 0; c < num_consts; ++c) {
    d.AddConstant("c" + std::to_string(c));
  }
  base::Rng rng(91);
  FactModel model;
  // Several thousand distinct facts per relation: the index table of
  // each relation doubles many times over.
  while (model.size() < 9000) {
    const RelationId r = static_cast<RelationId>(1 + rng.Below(3));
    const std::vector<ConstId> args = RandomArgs(rng, s.Arity(r), num_consts);
    EXPECT_EQ(d.AddFact(r, args), model.insert({r, args}).second);
  }
  EXPECT_TRUE(d.AddFact(0, std::span<const ConstId>()));
  EXPECT_FALSE(d.AddFact(0, std::span<const ConstId>()));
  model.insert({RelationId{0}, std::vector<ConstId>{}});
  ExpectMatchesModel(d, model);
  CheckColumnsMirrorTuples(d);
  // Drain in a seeded order, interleaving misses on absent tuples.
  std::vector<std::pair<RelationId, std::vector<ConstId>>> order(
      model.begin(), model.end());
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_TRUE(d.RemoveFact(order[i].first, order[i].second));
    EXPECT_FALSE(d.HasFact(order[i].first, order[i].second));
    EXPECT_FALSE(d.RemoveFact(order[i].first, order[i].second));
    model.erase(order[i]);
    if (i % 1500 == 0) ExpectMatchesModel(d, model);
  }
  ExpectMatchesModel(d, model);
  for (RelationId r = 0; r < s.NumRelations(); ++r) {
    EXPECT_EQ(d.NumTuples(r), 0u);
  }
}

TEST(TupleIndexTest, CopiesAreIndependentInBothDirections) {
  const Schema s = MixedAritySchema();
  Instance a(s);
  const std::size_t num_consts = 8;
  for (std::size_t c = 0; c < num_consts; ++c) {
    a.AddConstant("c" + std::to_string(c));
  }
  base::Rng rng(17);
  FactModel model_a;
  auto churn = [&](Instance& d, FactModel& model, int steps) {
    for (int step = 0; step < steps; ++step) {
      const RelationId r = static_cast<RelationId>(rng.Below(4));
      const std::vector<ConstId> args =
          RandomArgs(rng, s.Arity(r), num_consts);
      if (rng.Chance(2, 3)) {
        d.AddFact(r, args);
        model.insert({r, args});
      } else {
        d.RemoveFact(r, args);
        model.erase({r, args});
      }
    }
  };
  churn(a, model_a, 300);
  const std::string a_text = a.ToString();

  // Mutating the copy leaves the original untouched.
  Instance b = a;
  FactModel model_b = model_a;
  churn(b, model_b, 300);
  ExpectMatchesModel(a, model_a);
  ExpectMatchesModel(b, model_b);
  EXPECT_EQ(a.ToString(), a_text);

  // Mutating the original leaves the copy untouched.
  const std::string b_text = b.ToString();
  Instance c = b;
  churn(b, model_b, 300);
  ExpectMatchesModel(b, model_b);
  EXPECT_EQ(c.ToString(), b_text);

  // Copy assignment over a populated instance, then mutate the source.
  a = c;
  churn(c, model_b, 200);
  EXPECT_EQ(a.ToString(), b_text);
}

/// Pins the enumeration order (rel, i, Tuple(rel, i)) and the FactsOf
/// lists after a seeded add/remove sequence: swap-last removal and append
/// order are part of the contract (snapshots, groundings and answer
/// digests depend on them), so any change to the tuple index must keep
/// this digest.
TEST(TupleIndexTest, EnumerationOrderIsPinned) {
  const Schema s = MixedAritySchema();
  Instance d(s);
  const std::size_t num_consts = 10;
  for (std::size_t c = 0; c < num_consts; ++c) {
    d.AddConstant("c" + std::to_string(c));
  }
  base::Rng rng(2024);
  for (int step = 0; step < 3000; ++step) {
    const RelationId r = static_cast<RelationId>(rng.Below(4));
    if (rng.Chance(3, 5) || d.NumTuples(r) == 0) {
      d.AddFact(r, RandomArgs(rng, s.Arity(r), num_consts));
    } else {
      // Remove a stored tuple (its own index, so swap-last engages).
      auto t = d.Tuple(r, static_cast<std::uint32_t>(
                              rng.Below(d.NumTuples(r))));
      std::vector<ConstId> args(t.begin(), t.end());
      EXPECT_TRUE(d.RemoveFact(r, args));
    }
  }
  std::uint64_t h = base::kFnvOffsetBasis;
  for (RelationId r = 0; r < s.NumRelations(); ++r) {
    for (std::uint32_t i = 0; i < d.NumTuples(r); ++i) {
      h = base::Fnv1aU64(h, r);
      h = base::Fnv1aU64(h, i);
      for (ConstId c : d.Tuple(r, i)) h = base::Fnv1aU64(h, c);
    }
  }
  for (ConstId c = 0; c < d.UniverseSize(); ++c) {
    for (const FactRef& ref : d.FactsOf(c)) {
      h = base::Fnv1aU64(h, ref.relation);
      h = base::Fnv1aU64(h, ref.tuple_index);
    }
  }
  EXPECT_EQ(d.NumFacts(), 180u);
  EXPECT_EQ(h, 11999438436219013824ULL);
}

}  // namespace
}  // namespace obda::data
