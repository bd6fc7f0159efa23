#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "sat/preprocess.h"
#include "sat/solver.h"

namespace obda::sat {
namespace {

/// Builds pigeonhole PHP(np, nh): np pigeons into nh holes (unsat iff
/// np > nh). Returns the variable grid.
std::vector<std::vector<Var>> AddPigeonhole(Solver* s, int np, int nh) {
  std::vector<std::vector<Var>> x(np, std::vector<Var>(nh));
  for (int p = 0; p < np; ++p) {
    for (int h = 0; h < nh; ++h) x[p][h] = s->NewVar();
  }
  for (int p = 0; p < np; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < nh; ++h) clause.push_back(Lit::Pos(x[p][h]));
    s->AddClause(clause);
  }
  for (int h = 0; h < nh; ++h) {
    for (int p1 = 0; p1 < np; ++p1) {
      for (int p2 = p1 + 1; p2 < np; ++p2) {
        s->AddClause({Lit::Neg(x[p1][h]), Lit::Neg(x[p2][h])});
      }
    }
  }
  return x;
}

TEST(SatTest, EmptyIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
}

TEST(SatTest, UnitClause) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({Lit::Pos(a)});
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(SatTest, ContradictoryUnits) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({Lit::Pos(a)});
  s.AddClause({Lit::Neg(a)});
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
}

TEST(SatTest, EmptyClauseIsUnsat) {
  Solver s;
  s.NewVar();
  s.AddClause({});
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
}

TEST(SatTest, TautologyDropped) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({Lit::Pos(a), Lit::Neg(a)});
  EXPECT_EQ(s.NumClauses(), 0u);
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
}

TEST(SatTest, SimpleImplicationChain) {
  Solver s;
  Var a = s.NewVar();
  Var b = s.NewVar();
  Var c = s.NewVar();
  s.AddClause({Lit::Pos(a)});
  s.AddClause({Lit::Neg(a), Lit::Pos(b)});  // a -> b
  s.AddClause({Lit::Neg(b), Lit::Pos(c)});  // b -> c
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
  EXPECT_TRUE(s.ModelValue(c));
}

TEST(SatTest, PigeonholeTwoIntoOne) {
  // Two pigeons, one hole: unsat.
  Solver s;
  Var p1 = s.NewVar();  // pigeon1 in hole
  Var p2 = s.NewVar();  // pigeon2 in hole
  s.AddClause({Lit::Pos(p1)});
  s.AddClause({Lit::Pos(p2)});
  s.AddClause({Lit::Neg(p1), Lit::Neg(p2)});
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
}

TEST(SatTest, PigeonholeFourIntoThree) {
  // 4 pigeons, 3 holes: classic small UNSAT requiring search.
  Solver s;
  AddPigeonhole(&s, 4, 3);
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  // CDCL actually learned something on the way.
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().learned_clauses, 0u);
  EXPECT_GT(s.stats().learned_literals, 0u);
}

TEST(SatTest, AssumptionsFlipOutcome) {
  Solver s;
  Var a = s.NewVar();
  Var b = s.NewVar();
  s.AddClause({Lit::Pos(a), Lit::Pos(b)});
  EXPECT_EQ(s.Solve({Lit::Neg(a)}), SatOutcome::kSat);
  EXPECT_TRUE(s.ModelValue(b));
  EXPECT_EQ(s.Solve({Lit::Neg(a), Lit::Neg(b)}), SatOutcome::kUnsat);
  // Solver is reusable after assumption solving.
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
}

TEST(SatTest, BudgetReported) {
  // A hard-ish pigeonhole with a tiny budget must report kBudget.
  Solver s;
  AddPigeonhole(&s, 9, 8);
  EXPECT_EQ(s.Solve({}, 10), SatOutcome::kBudget);
  EXPECT_EQ(s.stats().budget_exhausted, 1u);
}

TEST(SatTest, BudgetTripLeavesSolverReusable) {
  // A kBudget return must leave the solver fully backtracked: the same
  // solver, given room, then decides the instance; its learned clauses
  // from the aborted attempt remain valid.
  Solver s;
  AddPigeonhole(&s, 9, 8);
  EXPECT_EQ(s.Solve({}, 10), SatOutcome::kBudget);
  EXPECT_EQ(s.Solve({}, 5), SatOutcome::kBudget);
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  // Once unsat is established it is remembered (empty-clause state).
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
}

TEST(SatTest, LearnedClausesSurviveBetweenSolveCalls) {
  // Assumption probes against one clause database: conflicts found under
  // one assumption set keep paying off under the next (the learned
  // clauses never mention the assumptions themselves).
  Solver s;
  auto x = AddPigeonhole(&s, 4, 3);
  EXPECT_EQ(s.Solve({Lit::Pos(x[0][0])}), SatOutcome::kUnsat);
  const std::uint64_t learned_after_first = s.stats().learned_clauses;
  EXPECT_GT(learned_after_first, 0u);
  EXPECT_EQ(s.Solve({Lit::Pos(x[1][1])}), SatOutcome::kUnsat);
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  EXPECT_GE(s.stats().learned_clauses, learned_after_first);
}

TEST(SatTest, ReductionPolicyFires) {
  // A small learned cap on a conflict-dense instance forces database
  // reductions without changing the verdict.
  Solver s;
  s.SetLearnedCap(8);
  AddPigeonhole(&s, 7, 6);
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  EXPECT_GT(s.stats().reductions, 0u);
}

TEST(SatTest, BackjumpsAndRestartsAreCounted) {
  Solver s;
  AddPigeonhole(&s, 6, 5);
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  // PHP(6,5) is the smallest PHP(n+1,n) past 100 conflicts, so the Luby
  // policy restarts at least once, and 1-UIP backjumps skip levels along
  // the way.
  EXPECT_GT(s.stats().restarts, 0u);
  EXPECT_GT(s.stats().backjump_levels, 0u);
}

/// Brute-force model check for cross-validation.
bool BruteForceSat(int num_vars, const std::vector<std::vector<Lit>>& cls) {
  for (int m = 0; m < (1 << num_vars); ++m) {
    bool all = true;
    for (const auto& c : cls) {
      bool sat = false;
      for (Lit l : c) {
        bool v = ((m >> l.var()) & 1) != 0;
        if (l.negative() ? !v : v) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return num_vars == 0 && cls.empty();
}

class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, AgreesWithBruteForce) {
  base::Rng rng(GetParam());
  const int num_vars = 8;
  const int num_clauses = rng.IntIn(8, 40);
  Solver s;
  for (int i = 0; i < num_vars; ++i) s.NewVar();
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i < num_clauses; ++i) {
    int len = rng.IntIn(1, 3);
    std::vector<Lit> c;
    for (int j = 0; j < len; ++j) {
      Var v = static_cast<Var>(rng.Below(num_vars));
      c.push_back(rng.Chance(1, 2) ? Lit::Pos(v) : Lit::Neg(v));
    }
    clauses.push_back(c);
    s.AddClause(c);
  }
  bool expected = BruteForceSat(num_vars, clauses);
  SatOutcome outcome = s.Solve();
  ASSERT_NE(outcome, SatOutcome::kBudget);
  EXPECT_EQ(outcome == SatOutcome::kSat, expected);
  if (outcome == SatOutcome::kSat) {
    // Verify the model.
    for (const auto& c : clauses) {
      bool sat = false;
      for (Lit l : c) {
        bool v = s.ModelValue(l.var());
        if (l.negative() ? !v : v) sat = true;
      }
      EXPECT_TRUE(sat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(0, 30));

/// A clause as two bitmasks over ≤ 32 variables: satisfied by assignment
/// m iff (pos & m) | (neg & ~m) is nonzero. Lets the truth-table oracle
/// evaluate a clause in two ANDs.
struct MaskClause {
  std::uint32_t pos = 0;
  std::uint32_t neg = 0;
};

/// Truth-table oracle: scans all 2^num_vars assignments.
bool OracleSat(int num_vars, const std::vector<MaskClause>& clauses) {
  const std::uint32_t limit = std::uint32_t{1} << num_vars;
  for (std::uint32_t m = 0; m < limit; ++m) {
    bool all = true;
    for (const MaskClause& c : clauses) {
      if (((c.pos & m) | (c.neg & ~m)) == 0) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// Random CNF shared by the differential batteries. Variable counts stay
/// mostly small (dense conflict structure) with a tail up to 18 so the
/// watch/backjump machinery sees deeper trails too.
struct RandomCnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  std::vector<MaskClause> masks;
};

RandomCnf MakeRandomCnf(base::Rng* rng, int max_vars) {
  RandomCnf cnf;
  cnf.num_vars = rng->Chance(1, 10) ? rng->IntIn(11, max_vars)
                                    : rng->IntIn(1, 10);
  const int num_clauses =
      rng->IntIn(cnf.num_vars, 5 * cnf.num_vars + 5);
  for (int i = 0; i < num_clauses; ++i) {
    const int len = rng->IntIn(1, 4);
    std::vector<Lit> clause;
    MaskClause mask;
    for (int j = 0; j < len; ++j) {
      Var v = static_cast<Var>(rng->Below(cnf.num_vars));
      if (rng->Chance(1, 2)) {
        clause.push_back(Lit::Pos(v));
        mask.pos |= std::uint32_t{1} << v;
      } else {
        clause.push_back(Lit::Neg(v));
        mask.neg |= std::uint32_t{1} << v;
      }
    }
    cnf.clauses.push_back(std::move(clause));
    cnf.masks.push_back(mask);
  }
  return cnf;
}

TEST(SatFuzzTest, DifferentialBatteryAgainstTruthTable) {
  // 500 random CNFs (≤ 18 vars) against the truth-table oracle; every
  // kSat model is checked clause-by-clause.
  for (int seed = 0; seed < 500; ++seed) {
    base::Rng rng(9000 + seed);
    RandomCnf cnf = MakeRandomCnf(&rng, 18);
    Solver s;
    for (int i = 0; i < cnf.num_vars; ++i) s.NewVar();
    for (const auto& c : cnf.clauses) s.AddClause(c);
    const bool expected = OracleSat(cnf.num_vars, cnf.masks);
    SatOutcome outcome = s.Solve();
    ASSERT_NE(outcome, SatOutcome::kBudget) << "seed " << seed;
    ASSERT_EQ(outcome == SatOutcome::kSat, expected) << "seed " << seed;
    if (outcome == SatOutcome::kSat) {
      std::uint32_t model = 0;
      for (int v = 0; v < cnf.num_vars; ++v) {
        if (s.ModelValue(v)) model |= std::uint32_t{1} << v;
      }
      for (std::size_t i = 0; i < cnf.masks.size(); ++i) {
        ASSERT_NE((cnf.masks[i].pos & model) | (cnf.masks[i].neg & ~model),
                  0u)
            << "seed " << seed << " clause " << i;
      }
    }
  }
}

TEST(SatFuzzTest, IncrementalAgreesWithFreshUnderAssumptions) {
  // One warmed incremental solver vs. a fresh solver per probe: random
  // assumption sequences over random CNFs must agree call for call (the
  // Eén–Sörensson invariant — learned clauses never depend on earlier
  // assumptions). The oracle adjudicates both.
  for (int seed = 0; seed < 60; ++seed) {
    base::Rng rng(777000 + seed);
    RandomCnf cnf = MakeRandomCnf(&rng, 14);
    Solver warm;
    for (int i = 0; i < cnf.num_vars; ++i) warm.NewVar();
    for (const auto& c : cnf.clauses) warm.AddClause(c);
    for (int round = 0; round < 12; ++round) {
      const int num_assumptions = rng.IntIn(0, 3);
      std::vector<Lit> assumptions;
      std::vector<MaskClause> with_assumptions = cnf.masks;
      for (int i = 0; i < num_assumptions; ++i) {
        Var v = static_cast<Var>(rng.Below(cnf.num_vars));
        MaskClause unit;
        if (rng.Chance(1, 2)) {
          assumptions.push_back(Lit::Pos(v));
          unit.pos = std::uint32_t{1} << v;
        } else {
          assumptions.push_back(Lit::Neg(v));
          unit.neg = std::uint32_t{1} << v;
        }
        with_assumptions.push_back(unit);
      }
      Solver fresh;
      for (int i = 0; i < cnf.num_vars; ++i) fresh.NewVar();
      for (const auto& c : cnf.clauses) fresh.AddClause(c);
      const bool expected = OracleSat(cnf.num_vars, with_assumptions);
      SatOutcome warm_outcome = warm.Solve(assumptions);
      SatOutcome fresh_outcome = fresh.Solve(assumptions);
      ASSERT_EQ(warm_outcome, fresh_outcome)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(warm_outcome == SatOutcome::kSat, expected)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(SatFuzzTest, DeterministicAcrossRepeatedRuns) {
  // Two solvers fed the identical call sequence must agree on outcomes,
  // models, and every statistic — the determinism contract the parallel
  // engine's bit-identity guarantee rests on.
  for (int seed = 0; seed < 40; ++seed) {
    base::Rng rng(42000 + seed);
    RandomCnf cnf = MakeRandomCnf(&rng, 14);
    std::vector<std::vector<Lit>> probes;
    for (int round = 0; round < 6; ++round) {
      std::vector<Lit> assumptions;
      for (int i = rng.IntIn(0, 2); i > 0; --i) {
        Var v = static_cast<Var>(rng.Below(cnf.num_vars));
        assumptions.push_back(rng.Chance(1, 2) ? Lit::Pos(v)
                                               : Lit::Neg(v));
      }
      probes.push_back(std::move(assumptions));
    }
    Solver a;
    Solver b;
    for (int i = 0; i < cnf.num_vars; ++i) {
      a.NewVar();
      b.NewVar();
    }
    for (const auto& c : cnf.clauses) {
      a.AddClause(c);
      b.AddClause(c);
    }
    for (const auto& probe : probes) {
      SatOutcome oa = a.Solve(probe);
      SatOutcome ob = b.Solve(probe);
      ASSERT_EQ(oa, ob) << "seed " << seed;
      ASSERT_EQ(a.decisions(), b.decisions()) << "seed " << seed;
      if (oa == SatOutcome::kSat) {
        for (int v = 0; v < cnf.num_vars; ++v) {
          ASSERT_EQ(a.ModelValue(v), b.ModelValue(v))
              << "seed " << seed << " var " << v;
        }
      }
    }
    const Solver::Stats& sa = a.stats();
    const Solver::Stats& sb = b.stats();
    EXPECT_EQ(sa.decisions, sb.decisions);
    EXPECT_EQ(sa.propagations, sb.propagations);
    EXPECT_EQ(sa.conflicts, sb.conflicts);
    EXPECT_EQ(sa.restarts, sb.restarts);
    EXPECT_EQ(sa.learned_clauses, sb.learned_clauses);
    EXPECT_EQ(sa.learned_literals, sb.learned_literals);
    EXPECT_EQ(sa.reductions, sb.reductions);
    EXPECT_EQ(sa.backjump_levels, sb.backjump_levels);
    EXPECT_EQ(sa.max_trail, sb.max_trail);
  }
}

// --- Removable clauses ------------------------------------------------------

TEST(RemovableClauseTest, RemoveRestoresSatisfiability) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({Lit::Pos(a)});
  Solver::ClauseId id = s.AddRemovableClause({Lit::Neg(a)});
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  s.RemoveClause(id);
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(RemovableClauseTest, EmptyRemovableClauseIsRevocableUnsat) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({Lit::Pos(a)});
  // An empty removable clause (e.g. all its literals normalized away)
  // makes the theory unsat only while it is present.
  Solver::ClauseId id = s.AddRemovableClause({});
  EXPECT_EQ(s.Solve(), SatOutcome::kUnsat);
  s.RemoveClause(id);
  EXPECT_EQ(s.Solve(), SatOutcome::kSat);
}

TEST(RemovableClauseTest, ChurnFuzzAgainstTruthTable) {
  // Random add/remove churn on the removable set, adjudicated by the
  // truth-table oracle over the permanents plus the LIVE removables after
  // every mutation. This is the contract delta grounding leans on: a
  // warmed solver whose clause set is patched in place must behave
  // exactly like a fresh solver loaded with the surviving clauses.
  for (int seed = 0; seed < 60; ++seed) {
    base::Rng rng(555000 + seed);
    RandomCnf base = MakeRandomCnf(&rng, 12);
    Solver s;
    for (int i = 0; i < base.num_vars; ++i) s.NewVar();
    // Half the base CNF is permanent, half starts out removable. All
    // permanents go in first (the documented mixing contract: AddClause
    // simplifies against the level-0 trail, which must not yet contain
    // consequences of retractable clauses).
    std::vector<std::pair<Solver::ClauseId, MaskClause>> live;
    std::vector<MaskClause> permanent;
    for (std::size_t i = 0; i < base.clauses.size(); i += 2) {
      s.AddClause(base.clauses[i]);
      permanent.push_back(base.masks[i]);
    }
    for (std::size_t i = 1; i < base.clauses.size(); i += 2) {
      live.emplace_back(s.AddRemovableClause(base.clauses[i]),
                        base.masks[i]);
    }
    for (int round = 0; round < 16; ++round) {
      if (!live.empty() && rng.Chance(1, 2)) {
        const std::size_t i = rng.Below(live.size());
        s.RemoveClause(live[i].first);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const int len = rng.IntIn(1, 4);
        std::vector<Lit> clause;
        MaskClause mask;
        for (int j = 0; j < len; ++j) {
          Var v = static_cast<Var>(rng.Below(base.num_vars));
          if (rng.Chance(1, 2)) {
            clause.push_back(Lit::Pos(v));
            mask.pos |= std::uint32_t{1} << v;
          } else {
            clause.push_back(Lit::Neg(v));
            mask.neg |= std::uint32_t{1} << v;
          }
        }
        live.emplace_back(s.AddRemovableClause(std::move(clause)), mask);
      }
      std::vector<MaskClause> masks = permanent;
      for (const auto& [unused, m] : live) masks.push_back(m);
      const bool expected = OracleSat(base.num_vars, masks);
      SatOutcome outcome = s.Solve();
      ASSERT_NE(outcome, SatOutcome::kBudget) << "seed " << seed;
      ASSERT_EQ(outcome == SatOutcome::kSat, expected)
          << "seed " << seed << " round " << round;
      if (outcome == SatOutcome::kSat) {
        std::uint32_t model = 0;
        for (int v = 0; v < base.num_vars; ++v) {
          if (s.ModelValue(v)) model |= std::uint32_t{1} << v;
        }
        for (std::size_t i = 0; i < masks.size(); ++i) {
          ASSERT_NE((masks[i].pos & model) | (masks[i].neg & ~model), 0u)
              << "seed " << seed << " round " << round << " clause " << i;
        }
      }
    }
  }
}

// --- Preprocessor -----------------------------------------------------------

TEST(PreprocessTest, PassthroughIsNormalizationOnly) {
  // All passes off: clauses are normalized/deduplicated but no variable
  // leaves the formula, and the remapper is the identity.
  PreprocessOptions off;
  off.units = off.pure = off.equiv = off.subsumption = off.bve = false;
  std::vector<std::vector<Lit>> clauses = {
      {Lit::Pos(0), Lit::Pos(1), Lit::Pos(0)},  // dup literal
      {Lit::Pos(1), Lit::Pos(0)},               // dup clause (after sort)
      {Lit::Pos(2), Lit::Neg(2)},               // tautology
      {Lit::Neg(1)},
  };
  PreprocessResult res =
      Preprocess(3, clauses, std::vector<bool>(3, false), off);
  ASSERT_FALSE(res.unsat);
  EXPECT_EQ(res.clauses.size(), 2u);
  for (Var v = 0; v < 3; ++v) {
    EXPECT_EQ(res.remapper.StateOf(v), Remapper::VarState::kFree);
  }
}

TEST(PreprocessTest, UnitsFixAndFrozenPureSurvives) {
  // {a} fixes a; b is pure-positive but frozen, so it must survive for
  // assumption probes; c is pure and free, so it is eliminated.
  std::vector<std::vector<Lit>> clauses = {
      {Lit::Pos(0)},
      {Lit::Neg(0), Lit::Pos(1), Lit::Pos(2)},
  };
  std::vector<bool> frozen = {false, true, false};
  PreprocessResult res = Preprocess(3, clauses, frozen);
  ASSERT_FALSE(res.unsat);
  EXPECT_EQ(res.remapper.StateOf(0), Remapper::VarState::kFixedTrue);
  EXPECT_NE(res.remapper.StateOf(1), Remapper::VarState::kEliminated);
  // The frozen variable still maps to something usable as an assumption.
  Remapper::MappedLit m = res.remapper.MapLit(Lit::Neg(1));
  (void)m;
  // A model of the simplified CNF completes to a model of the original.
  std::vector<char> model(3, 0);
  res.remapper.CompleteModel(&model);
  EXPECT_EQ(model[0], 1);  // fixed true
}

TEST(PreprocessTest, DerivesUnsatFromContradictoryUnits) {
  std::vector<std::vector<Lit>> clauses = {{Lit::Pos(0)}, {Lit::Neg(0)}};
  PreprocessResult res = Preprocess(1, clauses, {false});
  EXPECT_TRUE(res.unsat);
}

TEST(PreprocessFuzzTest, DifferentialBatteryAgainstRawSolver) {
  // The 500-CNF oracle harness, through the preprocessor: for each CNF,
  // simplify (with a random frozen set), solve the simplified formula,
  // and check (a) sat/unsat agrees with the truth-table oracle, (b) the
  // remapper completes simplified models into models of the ORIGINAL
  // CNF, (c) frozen variables are never eliminated, (d) assumption
  // probes over frozen variables, routed through MapLit exactly as the
  // certain-answer engine routes them, agree with a raw-CNF solver.
  for (int seed = 0; seed < 500; ++seed) {
    base::Rng rng(9000 + seed);  // same CNFs as the raw battery
    RandomCnf cnf = MakeRandomCnf(&rng, 18);
    std::vector<bool> frozen(cnf.num_vars);
    std::vector<Var> frozen_vars;
    for (int v = 0; v < cnf.num_vars; ++v) {
      if (rng.Chance(1, 4)) {
        frozen[v] = true;
        frozen_vars.push_back(v);
      }
    }
    PreprocessResult res = Preprocess(
        static_cast<std::size_t>(cnf.num_vars), cnf.clauses, frozen);
    const bool expected = OracleSat(cnf.num_vars, cnf.masks);
    if (res.unsat) {  // remapper unusable in the unsat case
      ASSERT_FALSE(expected) << "seed " << seed;
      continue;
    }
    for (Var v : frozen_vars) {
      ASSERT_NE(res.remapper.StateOf(v), Remapper::VarState::kEliminated)
          << "seed " << seed << " frozen var " << v;
    }
    Solver simplified;
    for (std::size_t i = 0; i < res.num_vars; ++i) simplified.NewVar();
    for (const auto& c : res.clauses) simplified.AddClause(c);
    SatOutcome outcome = simplified.Solve();
    ASSERT_NE(outcome, SatOutcome::kBudget) << "seed " << seed;
    ASSERT_EQ(outcome == SatOutcome::kSat, expected) << "seed " << seed;
    if (outcome == SatOutcome::kSat) {
      std::vector<char> model(res.num_vars, 0);
      for (std::size_t v = 0; v < res.num_vars; ++v) {
        model[v] = simplified.ModelValue(static_cast<Var>(v)) ? 1 : 0;
      }
      res.remapper.CompleteModel(&model);
      std::uint32_t bits = 0;
      for (int v = 0; v < cnf.num_vars; ++v) {
        if (model[static_cast<std::size_t>(v)]) {
          bits |= std::uint32_t{1} << v;
        }
      }
      for (std::size_t i = 0; i < cnf.masks.size(); ++i) {
        ASSERT_NE((cnf.masks[i].pos & bits) | (cnf.masks[i].neg & ~bits),
                  0u)
            << "seed " << seed << " original clause " << i;
      }
    }
    // Determinism: a second run is bit-identical.
    PreprocessResult again = Preprocess(
        static_cast<std::size_t>(cnf.num_vars), cnf.clauses, frozen);
    ASSERT_EQ(res.clauses, again.clauses) << "seed " << seed;

    // Assumption probes over frozen variables (engine routing).
    if (frozen_vars.empty()) continue;
    Solver raw;
    for (int i = 0; i < cnf.num_vars; ++i) raw.NewVar();
    for (const auto& c : cnf.clauses) raw.AddClause(c);
    for (int round = 0; round < 6; ++round) {
      const int num_assumptions = rng.IntIn(1, 2);
      std::vector<Lit> original;
      std::vector<Lit> mapped;
      bool mapped_false = false;
      for (int i = 0; i < num_assumptions; ++i) {
        Var v = frozen_vars[rng.Below(frozen_vars.size())];
        Lit l = rng.Chance(1, 2) ? Lit::Pos(v) : Lit::Neg(v);
        original.push_back(l);
        Remapper::MappedLit m = res.remapper.MapLit(l);
        switch (m.kind) {
          case Remapper::MappedLit::Kind::kFalse:
            mapped_false = true;
            break;
          case Remapper::MappedLit::Kind::kTrue:
            break;  // vacuous assumption
          case Remapper::MappedLit::Kind::kLit:
            mapped.push_back(m.lit);
            break;
        }
      }
      SatOutcome raw_outcome = raw.Solve(original);
      ASSERT_NE(raw_outcome, SatOutcome::kBudget) << "seed " << seed;
      const bool probe_sat =
          !mapped_false && simplified.Solve(mapped) == SatOutcome::kSat;
      ASSERT_EQ(probe_sat, raw_outcome == SatOutcome::kSat)
          << "seed " << seed << " probe round " << round;
    }
  }
}

}  // namespace
}  // namespace obda::sat
