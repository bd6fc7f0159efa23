#include "core/mddlog_translation.h"

#include <algorithm>
#include <string>
#include <vector>

#include "base/check.h"
#include "dl/reasoner.h"

namespace obda::core {

base::Result<ddlog::Program> CompileAqToMddlog(
    const OntologyMediatedQuery& omq) {
  if (!omq.ontology().functional_roles().empty()) {
    return base::UnimplementedError(
        "functional roles are not supported (DESIGN.md §5.5)");
  }
  auto aq = omq.AtomicQueryConcept();
  auto baq = omq.BooleanAtomicQueryConcept();
  if (!aq.has_value() && !baq.has_value()) {
    return base::InvalidArgumentError(
        "CompileAqToMddlog requires an atomic or Boolean atomic query");
  }
  const std::string concept_name = aq.has_value() ? *aq : *baq;

  dl::Ontology ontology = omq.ontology();
  if (baq.has_value()) {
    ontology.AddInclusion(dl::Concept::Name(concept_name),
                          dl::Concept::Bottom());
  }
  std::vector<dl::Concept> seeds;
  seeds.push_back(dl::Concept::Name(concept_name));
  const data::Schema& schema = omq.data_schema();
  for (data::RelationId r = 0; r < schema.NumRelations(); ++r) {
    if (schema.Arity(r) == 1) {
      seeds.push_back(dl::Concept::Name(schema.RelationName(r)));
    }
  }
  auto reasoner = dl::TypeReasoner::Create(ontology, seeds);
  if (!reasoner.ok()) return reasoner.status();

  ddlog::Program program(schema);
  const int num_types = static_cast<int>(reasoner->NumSurvivingTypes());
  std::vector<ddlog::PredId> type_pred(num_types);
  for (int t = 0; t < num_types; ++t) {
    type_pred[t] = program.AddIdbPredicate("T" + std::to_string(t), 1);
  }
  ddlog::PredId goal =
      program.AddIdbPredicate("goal", baq.has_value() ? 0 : 1);
  program.SetGoal(goal);
  ddlog::PredId adom = program.EnsureAdom();

  auto add_rule = [&program](std::vector<ddlog::Atom> head,
                             std::vector<ddlog::Atom> body) {
    ddlog::Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    OBDA_CHECK(program.AddRule(std::move(rule)).ok());
  };

  // Guess a type per element:  T_0(x) ∨ ... ∨ T_k(x) ← adom(x).
  // (With an empty type space the disjunction is the empty head ⊥ ←
  // adom(x): an inconsistent ontology makes every nonempty instance
  // inconsistent.)
  {
    std::vector<ddlog::Atom> head;
    for (int t = 0; t < num_types; ++t) {
      head.push_back(ddlog::Atom{type_pred[t], {0}});
    }
    add_rule(std::move(head), {ddlog::Atom{adom, {0}}});
  }

  // Local clashes: ⊥ ← A(x), T(x) when A ∉ τ (non-realizable diagrams
  // A(x) ∧ t(x), proof of Thm 3.4).
  for (data::RelationId r = 0; r < schema.NumRelations(); ++r) {
    if (schema.Arity(r) != 1) continue;
    dl::Concept name = dl::Concept::Name(schema.RelationName(r));
    for (int t = 0; t < num_types; ++t) {
      if (!reasoner->TypeContains(t, name)) {
        add_rule({}, {ddlog::Atom{r, {0}}, ddlog::Atom{type_pred[t], {0}}});
      }
    }
  }

  // Edge clashes: ⊥ ← R(x,y), T1(x), T2(y) for incompatible pairs
  // (diagrams t1(x) ∧ R(x,y) ∧ t2(y)).
  for (data::RelationId r = 0; r < schema.NumRelations(); ++r) {
    if (schema.Arity(r) != 2) continue;
    dl::Role role = dl::Role::Named(schema.RelationName(r));
    for (int t1 = 0; t1 < num_types; ++t1) {
      for (int t2 = 0; t2 < num_types; ++t2) {
        if (!reasoner->EdgeCompatible(t1, t2, role)) {
          add_rule({}, {ddlog::Atom{r, {0, 1}},
                        ddlog::Atom{type_pred[t1], {0}},
                        ddlog::Atom{type_pred[t2], {1}}});
        }
      }
    }
  }

  // Cross-branch clashes (only with the universal role; these are the
  // disconnected diagrams t1(x) ∧ t2(y) of Thm 3.12).
  if (reasoner->NumBranches() > 1) {
    for (int t1 = 0; t1 < num_types; ++t1) {
      for (int t2 = t1 + 1; t2 < num_types; ++t2) {
        if (reasoner->BranchOf(t1) != reasoner->BranchOf(t2)) {
          add_rule({}, {ddlog::Atom{type_pred[t1], {0}},
                        ddlog::Atom{type_pred[t2], {1}}});
        }
      }
    }
  }

  // Goal rules (AQ only; the BAQ program encodes certainty as guess
  // unsatisfiability — see header).
  if (aq.has_value()) {
    dl::Concept a0 = dl::Concept::Name(concept_name);
    for (int t = 0; t < num_types; ++t) {
      if (reasoner->TypeContains(t, a0)) {
        add_rule({ddlog::Atom{goal, {0}}},
                 {ddlog::Atom{type_pred[t], {0}}});
      }
    }
  }
  return program;
}

base::Result<OntologyMediatedQuery> MddlogToOmq(
    const ddlog::Program& program) {
  OBDA_RETURN_IF_ERROR(program.Validate());
  if (!program.IsMonadic()) {
    return base::InvalidArgumentError(
        "Thm 3.3(2) requires a monadic program");
  }
  if (!program.edb_schema().IsBinary()) {
    return base::InvalidArgumentError("EDB schema must be binary");
  }
  const int arity = program.QueryArity();

  // Fresh complement names; every non-goal IDB keeps its own name as a
  // concept name.
  dl::Ontology ontology;
  dl::Concept dom = dl::Concept::Name("ObdaDom");
  ontology.AddInclusion(dl::Concept::Top(), dom);
  auto bar_name = [&program](ddlog::PredId p) {
    return "Not_" + program.PredicateName(p);
  };
  for (ddlog::PredId p = static_cast<ddlog::PredId>(program.NumEdb());
       p < program.NumPredicates(); ++p) {
    if (p == program.goal()) continue;
    dl::Concept pc = dl::Concept::Name(program.PredicateName(p));
    dl::Concept pb = dl::Concept::Name(bar_name(p));
    ontology.AddInclusion(dl::Concept::Top(), dl::Concept::Or(pc, pb));
    ontology.AddInclusion(dl::Concept::And(pc, pb), dl::Concept::Bottom());
  }

  auto query_schema = QuerySchema(program.edb_schema(), ontology);
  if (!query_schema.ok()) return query_schema.status();

  fo::UnionOfCq query(*query_schema, arity);

  auto rel_of = [&](const std::string& name) {
    auto id = query_schema->FindRelation(name);
    OBDA_CHECK(id.has_value());
    return *id;
  };

  for (const ddlog::Rule& rule : program.rules()) {
    const bool is_goal_rule =
        rule.head.size() == 1 && rule.head[0].pred == program.goal();
    if (is_goal_rule) {
      // Type (i): the goal-rule body as a CQ, answer variables = the head
      // variables of goal.
      const std::vector<ddlog::VarId>& head_vars = rule.head[0].vars;
      // Repeated head variables would need equality atoms; unsupported.
      std::vector<ddlog::VarId> sorted = head_vars;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) !=
          sorted.end()) {
        return base::UnimplementedError(
            "goal rules with repeated head variables require equality "
            "atoms (handled in the MMSNP layer)");
      }
      fo::ConjunctiveQuery cq(*query_schema, arity);
      std::vector<fo::QVar> var_map(static_cast<std::size_t>(rule.NumVars()),
                                    -1);
      for (int i = 0; i < arity; ++i) var_map[head_vars[i]] = i;
      for (ddlog::VarId v = 0; v < rule.NumVars(); ++v) {
        if (var_map[v] < 0) var_map[v] = cq.AddVariable();
      }
      for (const ddlog::Atom& a : rule.body) {
        std::vector<fo::QVar> vars;
        for (ddlog::VarId v : a.vars) vars.push_back(var_map[v]);
        cq.AddAtom(rel_of(program.PredicateName(a.pred)), vars);
      }
      query.AddDisjunct(std::move(cq));
    } else {
      // Type (ii): rule violation — body plus barred heads plus Dom atoms
      // on fresh answer variables.
      fo::ConjunctiveQuery cq(*query_schema, arity);
      std::vector<fo::QVar> var_map(static_cast<std::size_t>(rule.NumVars()),
                                    -1);
      for (ddlog::VarId v = 0; v < rule.NumVars(); ++v) {
        var_map[v] = cq.AddVariable();
      }
      for (const ddlog::Atom& a : rule.body) {
        std::vector<fo::QVar> vars;
        for (ddlog::VarId v : a.vars) vars.push_back(var_map[v]);
        cq.AddAtom(rel_of(program.PredicateName(a.pred)), vars);
      }
      for (const ddlog::Atom& a : rule.head) {
        cq.AddAtom(rel_of(bar_name(a.pred)), {var_map[a.vars[0]]});
      }
      for (int i = 0; i < arity; ++i) {
        cq.AddAtom(rel_of("ObdaDom"), {i});
      }
      query.AddDisjunct(std::move(cq));
    }
  }
  return OntologyMediatedQuery::Create(program.edb_schema(),
                                       std::move(ontology),
                                       std::move(query));
}

base::Result<OntologyMediatedQuery> SimpleMddlogToOmq(
    const ddlog::Program& program) {
  OBDA_RETURN_IF_ERROR(program.Validate());
  if (!program.IsMonadic() || !program.IsSimple()) {
    return base::InvalidArgumentError(
        "Thm 3.4(2) requires a simple monadic program");
  }
  if (!program.edb_schema().IsBinary()) {
    return base::InvalidArgumentError("EDB schema must be binary");
  }
  const int goal_arity = program.QueryArity();
  if (goal_arity > 1) {
    return base::InvalidArgumentError("goal must be unary or Boolean");
  }

  dl::Ontology ontology;
  dl::Concept goal_concept = dl::Concept::Name("goal");
  ontology.AddInclusion(goal_concept, dl::Concept::Top());

  for (const ddlog::Rule& rule : program.rules()) {
    const int num_vars = rule.NumVars();
    const bool boolean_goal_head = rule.head.size() == 1 &&
                                   rule.head[0].pred == program.goal() &&
                                   goal_arity == 0;
    // Per-variable conjuncts.
    std::vector<std::vector<dl::Concept>> conjuncts(
        static_cast<std::size_t>(num_vars));
    const ddlog::Atom* edb_binary = nullptr;
    for (const ddlog::Atom& a : rule.body) {
      if (program.IsEdb(a.pred)) {
        if (a.vars.size() == 2) {
          OBDA_CHECK(edb_binary == nullptr);  // IsSimple
          edb_binary = &a;
        } else {
          conjuncts[a.vars[0]].push_back(
              dl::Concept::Name(program.PredicateName(a.pred)));
        }
      } else {
        conjuncts[a.vars[0]].push_back(
            dl::Concept::Name(program.PredicateName(a.pred)));
      }
    }
    if (!boolean_goal_head) {
      for (const ddlog::Atom& a : rule.head) {
        conjuncts[a.vars[0]].push_back(dl::Concept::Not(
            dl::Concept::Name(program.PredicateName(a.pred))));
      }
    }
    auto concept_of = [&conjuncts](int v) {
      return dl::Concept::AndAll(conjuncts[static_cast<std::size_t>(v)]);
    };
    std::vector<bool> used(static_cast<std::size_t>(num_vars), false);
    dl::Concept lhs;
    if (edb_binary != nullptr) {
      int u = edb_binary->vars[0];
      int v = edb_binary->vars[1];
      lhs = dl::Concept::And(
          concept_of(u),
          dl::Concept::Exists(
              dl::Role::Named(program.PredicateName(edb_binary->pred)),
              concept_of(v)));
      used[u] = used[v] = true;
    } else {
      OBDA_CHECK_GT(num_vars, 0);
      lhs = concept_of(0);
      used[0] = true;
    }
    // Remaining variables (disconnected parts) via the universal role
    // (Thm 3.12(2)).
    for (int w = 0; w < num_vars; ++w) {
      if (used[w]) continue;
      lhs = dl::Concept::And(
          lhs, dl::Concept::Exists(dl::Role::Universal(), concept_of(w)));
    }
    ontology.AddInclusion(lhs, boolean_goal_head ? goal_concept
                                                 : dl::Concept::Bottom());
  }

  if (goal_arity == 0) {
    return OntologyMediatedQuery::WithBooleanAtomicQuery(
        program.edb_schema(), std::move(ontology), "goal");
  }
  return OntologyMediatedQuery::WithAtomicQuery(program.edb_schema(),
                                                std::move(ontology),
                                                "goal");
}

}  // namespace obda::core
