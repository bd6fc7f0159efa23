#include "mmsnp/translate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "base/check.h"
#include "sat/solver.h"

namespace obda::mmsnp {

namespace {

/// Preprocessing step (i) of Prop 4.1: every free variable occurs in
/// every implication. Violating implications are replaced by the padded
/// family (one per input relation and position).
base::Result<std::vector<Implication>> PadFreeVariables(
    const Formula& formula) {
  const int k = formula.num_free_vars();
  std::vector<Implication> work = formula.implications();
  std::vector<Implication> done;
  while (!work.empty()) {
    Implication imp = std::move(work.back());
    work.pop_back();
    int missing = -1;
    std::vector<bool> present(static_cast<std::size_t>(k), false);
    for (const auto& atoms : {&imp.body, &imp.head}) {
      for (const Atom& a : *atoms) {
        for (int v : a.vars) {
          if (v < k) present[v] = true;
        }
      }
    }
    for (int y = 0; y < k; ++y) {
      if (!present[y]) {
        missing = y;
        break;
      }
    }
    if (missing < 0) {
      done.push_back(std::move(imp));
      continue;
    }
    bool padded = false;
    const data::Schema& s = formula.schema();
    for (data::RelationId r = 0; r < s.NumRelations(); ++r) {
      const int arity = s.Arity(r);
      for (int pos = 0; pos < arity; ++pos) {
        Implication copy = imp;
        Atom pad;
        pad.kind = AtomKind::kInput;
        pad.pred = r;
        int fresh = std::max(copy.NumVars(), k);
        for (int p = 0; p < arity; ++p) {
          pad.vars.push_back(p == pos ? missing : fresh++);
        }
        copy.body.push_back(std::move(pad));
        work.push_back(std::move(copy));
        padded = true;
      }
    }
    if (!padded) {
      return base::InvalidArgumentError(
          "cannot pad free variables: schema has no positive-arity "
          "relation");
    }
  }
  return done;
}

/// Preprocessing step (ii): equality atoms involving a non-free variable
/// are eliminated by substitution; only free-free equalities remain.
Implication MergeNonFreeEqualities(const Implication& imp, int k) {
  const int nv = std::max(imp.NumVars(), k);
  std::vector<int> parent(static_cast<std::size_t>(nv));
  for (int i = 0; i < nv; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);  // prefer free (lower) representatives
    parent[b] = a;
  };
  for (const Atom& a : imp.body) {
    if (a.kind != AtomKind::kEquality) continue;
    if (a.vars[0] < k && a.vars[1] < k) continue;  // free-free: keep
    unite(a.vars[0], a.vars[1]);
  }
  Implication out;
  auto rewrite = [&](const Atom& a) {
    Atom b = a;
    for (int& v : b.vars) v = find(v);
    return b;
  };
  for (const Atom& a : imp.body) {
    if (a.kind == AtomKind::kEquality &&
        !(a.vars[0] < k && a.vars[1] < k)) {
      continue;
    }
    out.body.push_back(rewrite(a));
  }
  for (const Atom& a : imp.head) out.head.push_back(rewrite(a));
  return out;
}

}  // namespace

base::Result<ddlog::Program> ToDdlog(const Formula& formula) {
  if (!formula.IsGuarded()) {
    return base::InvalidArgumentError(
        "formula is not guarded (not in GMSNP)");
  }
  const int k = formula.num_free_vars();
  auto padded = PadFreeVariables(formula);
  if (!padded.ok()) return padded.status();

  ddlog::Program program(formula.schema());
  std::vector<ddlog::PredId> pos_pred(formula.NumSoVars());
  std::vector<ddlog::PredId> neg_pred(formula.NumSoVars());
  for (SoVarId x = 0; x < formula.NumSoVars(); ++x) {
    pos_pred[x] = program.AddIdbPredicate(formula.SoVarName(x),
                                          formula.SoVarArity(x));
    neg_pred[x] = program.AddIdbPredicate("Not_" + formula.SoVarName(x),
                                          formula.SoVarArity(x));
  }
  ddlog::PredId goal = program.AddIdbPredicate("goal", k);
  program.SetGoal(goal);

  auto add_rule = [&program](std::vector<ddlog::Atom> head,
                             std::vector<ddlog::Atom> body) {
    ddlog::Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    OBDA_CHECK(program.AddRule(std::move(rule)).ok());
  };

  // Guess rules. Monadic SO variables use adom (Prop 4.1); higher-arity
  // ones use the R(u)-guarded form of Thm 4.2.
  const bool monadic = formula.IsMonadic();
  ddlog::PredId adom = ddlog::kInvalidPred;
  if (monadic || k > 0) adom = program.EnsureAdom();
  for (SoVarId x = 0; x < formula.NumSoVars(); ++x) {
    const int arity = formula.SoVarArity(x);
    if (arity == 1) {
      if (adom == ddlog::kInvalidPred) adom = program.EnsureAdom();
      add_rule({{pos_pred[x], {0}}, {neg_pred[x], {0}}}, {{adom, {0}}});
    } else {
      const data::Schema& s = formula.schema();
      for (data::RelationId r = 0; r < s.NumRelations(); ++r) {
        const int r_arity = s.Arity(r);
        if (r_arity == 0) continue;
        // All maps from SO positions to R positions.
        std::vector<int> map(static_cast<std::size_t>(arity), 0);
        for (;;) {
          std::vector<ddlog::VarId> head_vars;
          for (int p = 0; p < arity; ++p) head_vars.push_back(map[p]);
          std::vector<ddlog::VarId> body_vars;
          for (int p = 0; p < r_arity; ++p) body_vars.push_back(p);
          add_rule({{pos_pred[x], head_vars}, {neg_pred[x], head_vars}},
                   {{r, body_vars}});
          int pos = arity - 1;
          while (pos >= 0 && ++map[pos] == r_arity) {
            map[pos] = 0;
            --pos;
          }
          if (pos < 0) break;
        }
      }
    }
    // Exclusivity.
    std::vector<ddlog::VarId> vars;
    for (int p = 0; p < arity; ++p) vars.push_back(p);
    add_rule({}, {{pos_pred[x], vars}, {neg_pred[x], vars}});
  }

  // Implication rules: ϑ → ⊥ with complemented heads, then a goal rule.
  for (const Implication& raw : *padded) {
    Implication imp = MergeNonFreeEqualities(raw, k);
    // Equivalence classes of free variables (remaining equalities).
    std::vector<int> rep(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) rep[i] = i;
    std::function<int(int)> find = [&](int x) {
      while (rep[x] != x) x = rep[x] = rep[rep[x]];
      return x;
    };
    for (const Atom& a : imp.body) {
      if (a.kind == AtomKind::kEquality) {
        int u = find(a.vars[0]);
        int v = find(a.vars[1]);
        if (u != v) rep[std::max(u, v)] = std::min(u, v);
      }
    }
    auto var_map = [&](int v) -> ddlog::VarId {
      return v < k ? find(v) : v;
    };
    std::vector<ddlog::Atom> body;
    for (const Atom& a : imp.body) {
      if (a.kind == AtomKind::kEquality) continue;
      ddlog::Atom out;
      out.pred = a.kind == AtomKind::kInput
                     ? static_cast<ddlog::PredId>(a.pred)
                     : pos_pred[a.pred];
      for (int v : a.vars) out.vars.push_back(var_map(v));
      body.push_back(std::move(out));
    }
    for (const Atom& a : imp.head) {
      ddlog::Atom out;
      out.pred = neg_pred[a.pred];
      for (int v : a.vars) out.vars.push_back(var_map(v));
      body.push_back(std::move(out));
    }
    std::vector<ddlog::VarId> goal_vars;
    for (int i = 0; i < k; ++i) goal_vars.push_back(find(i));
    add_rule({{goal, std::move(goal_vars)}}, std::move(body));
  }
  return program;
}

base::Result<Formula> FromDdlog(const ddlog::Program& program) {
  OBDA_RETURN_IF_ERROR(program.Validate());
  const int k = program.QueryArity();
  Formula formula(program.edb_schema(), k);
  std::map<ddlog::PredId, SoVarId> so_of;
  for (ddlog::PredId p = static_cast<ddlog::PredId>(program.NumEdb());
       p < program.NumPredicates(); ++p) {
    if (p == program.goal()) continue;
    so_of[p] = formula.AddSoVar(program.PredicateName(p),
                                program.Arity(p));
  }
  for (const ddlog::Rule& rule : program.rules()) {
    const bool goal_rule =
        rule.head.size() == 1 && rule.head[0].pred == program.goal();
    Implication imp;
    // Variable translation: goal-head variables become free variables.
    std::vector<int> var_map(static_cast<std::size_t>(rule.NumVars()), -1);
    int next_local = k;
    if (goal_rule) {
      for (int i = 0; i < k; ++i) {
        ddlog::VarId v = rule.head[0].vars[i];
        if (var_map[v] < 0) {
          var_map[v] = i;
        } else {
          // Repeated head variable: add y_first = y_i.
          Atom eq;
          eq.kind = AtomKind::kEquality;
          eq.vars = {var_map[v], i};
          imp.body.push_back(std::move(eq));
        }
      }
    }
    for (ddlog::VarId v = 0; v < rule.NumVars(); ++v) {
      if (var_map[v] < 0) var_map[v] = next_local++;
    }
    auto convert = [&](const ddlog::Atom& a) {
      Atom out;
      if (program.IsEdb(a.pred)) {
        out.kind = AtomKind::kInput;
        out.pred = a.pred;
      } else {
        out.kind = AtomKind::kSecondOrder;
        out.pred = so_of.at(a.pred);
      }
      for (ddlog::VarId v : a.vars) out.vars.push_back(var_map[v]);
      return out;
    };
    for (const ddlog::Atom& a : rule.body) imp.body.push_back(convert(a));
    if (!goal_rule) {
      for (const ddlog::Atom& a : rule.head) {
        imp.head.push_back(convert(a));
      }
    }
    OBDA_RETURN_IF_ERROR(formula.AddImplication(std::move(imp)));
  }
  return formula;
}

Formula SentenceWithMarkers(const Formula& formula) {
  const int k = formula.num_free_vars();
  data::Schema schema = formula.schema();
  std::vector<data::RelationId> marks;
  for (int i = 0; i < k; ++i) {
    marks.push_back(schema.AddRelation("Mark" + std::to_string(i + 1), 1));
  }
  Formula out(schema, 0);
  for (SoVarId x = 0; x < formula.NumSoVars(); ++x) {
    out.AddSoVar(formula.SoVarName(x), formula.SoVarArity(x));
  }
  for (const Implication& imp : formula.implications()) {
    Implication shifted = imp;  // variable ids keep their meaning; the
                                // formerly-free variables are now local
                                // (out has no free variables).
    for (int i = 0; i < k; ++i) {
      Atom mark;
      mark.kind = AtomKind::kInput;
      mark.pred = marks[i];
      mark.vars = {i};
      shifted.body.push_back(std::move(mark));
    }
    OBDA_CHECK(out.AddImplication(std::move(shifted)).ok());
  }
  return out;
}

// --- Forbidden pattern problems ---------------------------------------------

data::Schema ForbiddenPatternProblem::ColoredSchema() const {
  data::Schema out = schema;
  for (const std::string& c : colors) out.AddRelation(c, 1);
  return out;
}

namespace {

/// Enumerates all homomorphisms of `pattern`'s S-reduct into `target`
/// (both over the plain schema), invoking `emit` with each mapping.
void EnumerateHoms(const data::Instance& pattern,
                   const data::Instance& target, std::size_t next,
                   std::vector<data::ConstId>* mapping,
                   const std::function<void(const std::vector<
                                            data::ConstId>&)>& emit) {
  if (next == pattern.UniverseSize()) {
    emit(*mapping);
    return;
  }
  for (data::ConstId t = 0; t < target.UniverseSize(); ++t) {
    (*mapping)[next] = t;
    // Check all pattern facts fully assigned by elements <= next.
    bool ok = true;
    for (const data::FactRef& f : pattern.FactsOf(
             static_cast<data::ConstId>(next))) {
      auto tuple = pattern.Tuple(f.relation, f.tuple_index);
      bool assigned = true;
      std::vector<data::ConstId> image;
      for (data::ConstId c : tuple) {
        if (c > next) {
          assigned = false;
          break;
        }
        image.push_back((*mapping)[c]);
      }
      if (assigned && !target.HasFact(f.relation, image)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      EnumerateHoms(pattern, target, next + 1, mapping, emit);
    }
  }
}

}  // namespace

base::Result<bool> ForbiddenPatternProblem::InForb(
    const data::Instance& instance) const {
  OBDA_CHECK(instance.schema().LayoutCompatible(schema));
  const std::vector<data::ConstId> adom = instance.ActiveDomain();
  data::Instance restricted = instance.InducedSubinstance(adom);

  sat::Solver solver;
  const std::size_t n = restricted.UniverseSize();
  const std::size_t num_colors = colors.size();
  // col[e * num_colors + c]
  std::vector<sat::Var> col(n * num_colors);
  for (auto& v : col) v = solver.NewVar();
  for (std::size_t e = 0; e < n; ++e) {
    std::vector<sat::Lit> at_least;
    for (std::size_t c = 0; c < num_colors; ++c) {
      at_least.push_back(sat::Lit::Pos(col[e * num_colors + c]));
    }
    solver.AddClause(at_least);
    for (std::size_t c1 = 0; c1 < num_colors; ++c1) {
      for (std::size_t c2 = c1 + 1; c2 < num_colors; ++c2) {
        solver.AddClause({sat::Lit::Neg(col[e * num_colors + c1]),
                          sat::Lit::Neg(col[e * num_colors + c2])});
      }
    }
  }
  data::Schema colored = ColoredSchema();
  for (const data::Instance& pattern : patterns) {
    // Split the pattern into S-facts and color assignments.
    data::Instance reduct = pattern.ReductTo(schema);
    std::vector<int> color_of(pattern.UniverseSize(), -1);
    for (std::size_t c = 0; c < num_colors; ++c) {
      auto rel = pattern.schema().FindRelation(colors[c]);
      if (!rel.has_value()) continue;
      for (std::uint32_t i = 0; i < pattern.NumTuples(*rel); ++i) {
        color_of[pattern.Tuple(*rel, i)[0]] = static_cast<int>(c);
      }
    }
    std::vector<data::ConstId> mapping(pattern.UniverseSize());
    EnumerateHoms(reduct, restricted, 0, &mapping,
                  [&](const std::vector<data::ConstId>& h) {
                    std::vector<sat::Lit> clause;
                    for (std::size_t e = 0; e < h.size(); ++e) {
                      OBDA_CHECK_GE(color_of[e], 0);
                      clause.push_back(sat::Lit::Neg(
                          col[h[e] * num_colors + color_of[e]]));
                    }
                    solver.AddClause(std::move(clause));
                  });
  }
  sat::SatOutcome outcome = solver.Solve({}, 50'000'000);
  if (outcome == sat::SatOutcome::kBudget) {
    return base::ResourceExhaustedError("FPP evaluation budget");
  }
  return outcome == sat::SatOutcome::kSat;
}

base::Result<bool> ForbiddenPatternProblem::CoQuery(
    const data::Instance& instance) const {
  auto in_forb = InForb(instance);
  if (!in_forb.ok()) return in_forb.status();
  return !*in_forb;
}

base::Result<ddlog::Program> FppToMddlog(
    const ForbiddenPatternProblem& fpp) {
  ddlog::Program program(fpp.schema);
  std::vector<ddlog::PredId> color_pred;
  for (const std::string& c : fpp.colors) {
    color_pred.push_back(program.AddIdbPredicate(c, 1));
  }
  ddlog::PredId goal = program.AddIdbPredicate("goal", 0);
  program.SetGoal(goal);
  ddlog::PredId adom = program.EnsureAdom();
  auto add_rule = [&program](std::vector<ddlog::Atom> head,
                             std::vector<ddlog::Atom> body) {
    ddlog::Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    OBDA_CHECK(program.AddRule(std::move(rule)).ok());
  };
  {
    std::vector<ddlog::Atom> head;
    for (ddlog::PredId c : color_pred) head.push_back({c, {0}});
    add_rule(std::move(head), {{adom, {0}}});
  }
  for (std::size_t c1 = 0; c1 < color_pred.size(); ++c1) {
    for (std::size_t c2 = c1 + 1; c2 < color_pred.size(); ++c2) {
      add_rule({}, {{color_pred[c1], {0}}, {color_pred[c2], {0}}});
    }
  }
  for (const data::Instance& pattern : fpp.patterns) {
    std::vector<ddlog::Atom> body;
    for (data::RelationId r = 0; r < pattern.schema().NumRelations();
         ++r) {
      const std::string& name = pattern.schema().RelationName(r);
      // Either an input relation or a color.
      ddlog::PredId pred;
      auto input = fpp.schema.FindRelation(name);
      if (input.has_value()) {
        pred = *input;
      } else {
        auto color = std::find(fpp.colors.begin(), fpp.colors.end(), name);
        OBDA_CHECK(color != fpp.colors.end());
        pred = color_pred[color - fpp.colors.begin()];
      }
      for (std::uint32_t i = 0; i < pattern.NumTuples(r); ++i) {
        ddlog::Atom atom;
        atom.pred = pred;
        for (data::ConstId c : pattern.Tuple(r, i)) {
          atom.vars.push_back(static_cast<ddlog::VarId>(c));
        }
        body.push_back(std::move(atom));
      }
    }
    add_rule({{goal, {}}}, std::move(body));
  }
  return program;
}

base::Result<ForbiddenPatternProblem> MddlogToFpp(
    const ddlog::Program& program, std::size_t max_colors) {
  OBDA_RETURN_IF_ERROR(program.Validate());
  if (!program.IsMonadic() || program.QueryArity() != 0) {
    return base::InvalidArgumentError(
        "Prop 3.2 requires a Boolean monadic program");
  }
  // Non-goal IDBs.
  std::vector<ddlog::PredId> idbs;
  for (ddlog::PredId p = static_cast<ddlog::PredId>(program.NumEdb());
       p < program.NumPredicates(); ++p) {
    if (p != program.goal()) idbs.push_back(p);
  }
  if ((1ull << idbs.size()) > max_colors) {
    return base::ResourceExhaustedError("too many colors (2^#IDB)");
  }
  ForbiddenPatternProblem fpp;
  fpp.schema = program.edb_schema();
  const std::size_t num_colors = 1ull << idbs.size();
  for (std::size_t t = 0; t < num_colors; ++t) {
    fpp.colors.push_back("Color" + std::to_string(t));
  }
  data::Schema colored = fpp.ColoredSchema();

  for (const ddlog::Rule& rule : program.rules()) {
    // Skip tautologous rules (same atom in head and body).
    bool tautologous = false;
    for (const ddlog::Atom& h : rule.head) {
      for (const ddlog::Atom& b : rule.body) {
        if (h.pred == b.pred && h.vars == b.vars) tautologous = true;
      }
    }
    if (tautologous) continue;
    const int nv = rule.NumVars();
    // Per-variable constraints on the color subset.
    std::vector<std::uint64_t> must(static_cast<std::size_t>(nv), 0);
    std::vector<std::uint64_t> forbid(static_cast<std::size_t>(nv), 0);
    auto idb_bit = [&idbs](ddlog::PredId p) -> int {
      auto it = std::find(idbs.begin(), idbs.end(), p);
      OBDA_CHECK(it != idbs.end());
      return static_cast<int>(it - idbs.begin());
    };
    for (const ddlog::Atom& a : rule.body) {
      if (!program.IsEdb(a.pred)) {
        must[a.vars[0]] |= 1ull << idb_bit(a.pred);
      }
    }
    bool is_goal_rule =
        rule.head.size() == 1 && rule.head[0].pred == program.goal();
    if (!is_goal_rule) {
      for (const ddlog::Atom& a : rule.head) {
        forbid[a.vars[0]] |= 1ull << idb_bit(a.pred);
      }
    }
    // Enumerate color choices per variable consistent with must/forbid.
    std::vector<std::uint64_t> choice(static_cast<std::size_t>(nv), 0);
    std::function<void(int)> emit = [&](int v) {
      if (v == nv) {
        data::Instance pattern(colored);
        for (int x = 0; x < nv; ++x) {
          pattern.AddConstant("d" + std::to_string(x));
        }
        for (const ddlog::Atom& a : rule.body) {
          if (!program.IsEdb(a.pred)) continue;
          std::vector<data::ConstId> args;
          for (ddlog::VarId var : a.vars) {
            args.push_back(static_cast<data::ConstId>(var));
          }
          pattern.AddFact(a.pred, args);
        }
        for (int x = 0; x < nv; ++x) {
          auto rel = colored.FindRelation(
              "Color" + std::to_string(choice[x]));
          OBDA_CHECK(rel.has_value());
          pattern.AddFact(*rel, {static_cast<data::ConstId>(x)});
        }
        fpp.patterns.push_back(std::move(pattern));
        return;
      }
      for (std::uint64_t t = 0; t < num_colors; ++t) {
        if ((t & must[v]) != must[v]) continue;
        if ((t & forbid[v]) != 0) continue;
        choice[v] = t;
        emit(v + 1);
      }
    };
    emit(0);
  }
  return fpp;
}

}  // namespace obda::mmsnp
