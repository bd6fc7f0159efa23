#include "corpus.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>
#include <utility>

#include "base/check.h"
#include "ddlog/program.h"

namespace obdabench {

namespace {

using obda::base::Rng;
using obda::data::Fact;

std::string Base36(Rng& rng, int digits) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  for (int i = 0; i < digits; ++i) out += kDigits[rng.Below(36)];
  return out;
}

std::string C(int i) { return "c" + std::to_string(i); }

/// Replaces every identifier token of `text` found in `names` with
/// `tag + token`; keywords (top, some, all, ...) are never in `names`.
std::string Tagged(std::string_view text, const std::string& tag,
                   const std::set<std::string>& names) {
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_') {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      const std::string token(text.substr(i, j - i));
      out += names.count(token) != 0 ? tag + token : token;
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

/// Appends draws of `make` to `facts` until it holds `n` distinct facts;
/// fixed sizes keep a family's cost steady across seeds.
template <typename Make>
void DrawDistinct(std::size_t n, Rng& rng, Make make, std::vector<Fact>* facts) {
  std::set<Fact> seen(facts->begin(), facts->end());
  const std::size_t target = facts->size() + n;
  while (facts->size() < target) {
    Fact f = make(rng);
    if (seen.insert(f).second) facts->push_back(std::move(f));
  }
}

/// Draws `count` distinct facts from `make` that are absent from `facts`
/// and use only constants already occurring in `facts`.
template <typename Make>
std::vector<Fact> AbsentFacts(const std::vector<Fact>& facts, int count,
                              Rng& rng, Make make) {
  std::set<Fact> present(facts.begin(), facts.end());
  std::set<std::string> constants;
  for (const Fact& f : facts) constants.insert(f.args.begin(), f.args.end());
  std::vector<Fact> out;
  for (int tries = 0; static_cast<int>(out.size()) < count; ++tries) {
    OBDA_CHECK_LT(tries, 100000);
    Fact f = make(rng);
    bool known = true;
    for (const std::string& a : f.args) known = known && constants.count(a);
    if (!known || !present.insert(f).second) continue;
    out.push_back(std::move(f));
  }
  return out;
}

OmqSpec FoSpec(int k, const std::string& tag, Rng& rng) {
  OmqSpec s;
  s.family = "fo" + std::to_string(k);
  for (int i = 0; i < k; ++i) {
    const std::string d = tag + "D" + std::to_string(i);
    s.schema += (i > 0 ? " " : "") + d + "/1";
    s.ontology += (i > 0 ? " | " : "") + d;
  }
  s.ontology += " [= " + tag + "Goal";
  s.kind = "AQ";
  s.payload = tag + "Goal";
  auto fact = [&](Rng& r) {
    return Fact{tag + "D" + std::to_string(r.Below(k)), {C(r.Below(24))}};
  };
  DrawDistinct(32, rng, fact, &s.facts);
  s.extra = AbsentFacts(s.facts, 1, rng, fact);
  return s;
}

OmqSpec ReachSpec(const std::string& tag, Rng& rng) {
  OmqSpec s;
  s.family = "reach";
  const std::string a = tag + "A", r = tag + "R";
  s.schema = a + "/1 " + r + "/2";
  s.ontology = a + " [= all " + r + "." + a;
  s.kind = "AQ";
  s.payload = a;
  auto edge = [&](Rng& g) {
    return Fact{r, {C(g.Below(20)), C(g.Below(20))}};
  };
  DrawDistinct(
      6, rng, [&](Rng& g) { return Fact{a, {C(g.Below(20))}}; }, &s.facts);
  DrawDistinct(40, rng, edge, &s.facts);
  s.extra = AbsentFacts(s.facts, 1, rng, edge);
  return s;
}

/// coCSP(K_n) as an (ALC, BAQ) OMQ, the core::CspToOmq shape.
OmqSpec CliqueSpec(int n, const std::string& tag, Rng& rng) {
  OmqSpec s;
  s.family = "k" + std::to_string(n);
  const std::string e = tag + "E", goal = tag + "Goal";
  auto k = [&](int i) { return tag + "K" + std::to_string(i); };
  s.schema = e + "/2";
  s.ontology = "top [= ";
  for (int i = 0; i < n; ++i) s.ontology += (i > 0 ? " | " : "") + k(i);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      s.ontology += "; " + k(i) + " & " + k(j) + " [= " + goal;
    }
  }
  for (int i = 0; i < n; ++i) {
    s.ontology += "; " + k(i) + " & some " + e + "." + k(i) + " [= " + goal;
  }
  s.kind = "BAQ";
  s.payload = goal;
  // A planted K_{n+1} on c0..cn makes every instance (toggled edge
  // included) non-n-colourable, so the Boolean query always holds and
  // each QUERY's SAT work is of one kind (refuting a colouring): the
  // family's cost does not swing with the seed.
  for (int i = 0; i <= n; ++i) {
    for (int j = i + 1; j <= n; ++j) s.facts.push_back(Fact{e, {C(i), C(j)}});
  }
  auto edge = [&](Rng& g) {
    const int from = static_cast<int>(g.Below(16));
    const int to = (from + 1 + static_cast<int>(g.Below(15))) % 16;  // no loops
    return Fact{e, {C(from), C(to)}};
  };
  DrawDistinct(30, rng, edge, &s.facts);
  s.extra = AbsentFacts(s.facts, 1, rng, edge);
  return s;
}

/// E24's genuinely co-NP AQ: 3-colouring axioms over R plus recursive
/// Bad-propagation along S, on E24's 24-element data.
OmqSpec ConpAqSpec(const std::string& tag) {
  OmqSpec s;
  s.family = "conp_aq";
  const std::set<std::string> names = {"C0", "C1", "C2", "R", "S", "Bad"};
  s.schema = Tagged("Bad/1 R/2 S/2", tag, names);
  s.ontology = Tagged(
      "top [= C0 | C1 | C2; C0 [= all R.~C0; C1 [= all R.~C1; "
      "C2 [= all R.~C2; Bad [= all S.Bad",
      tag, names);
  s.kind = "AQ";
  s.payload = tag + "Bad";
  const int n = 24;
  for (int i = 0; i + 1 < n; ++i) s.facts.push_back({tag + "R", {C(i), C(i + 1)}});
  s.facts.push_back({tag + "Bad", {C(0)}});
  s.facts.push_back({tag + "Bad", {C(12)}});
  for (int i = 0; i + 1 < n; ++i) {
    if (i % 16 != 15) s.facts.push_back({tag + "S", {C(i), C(i + 1)}});
  }
  s.extra.push_back({tag + "S", {C(15), C(16)}});
  return s;
}

/// E23's random simple monadic program over {E/2, L/1}.
OmqSpec ProgramSpec(const std::string& tag, Rng& rng) {
  OmqSpec s;
  s.family = "program";
  const std::string e = tag + "E", l = tag + "L";
  s.schema = e + "/2 " + l + "/1";
  obda::data::Schema schema;
  schema.AddRelation(e, 2);
  schema.AddRelation(l, 1);
  obda::ddlog::Program program(schema);
  std::vector<obda::ddlog::PredId> idb;
  for (int i = 0; i < 3; ++i) {
    idb.push_back(program.AddIdbPredicate("P" + std::to_string(i), 1));
  }
  const obda::ddlog::PredId goal = program.AddIdbPredicate("goal", 1);
  program.SetGoal(goal);
  const obda::ddlog::PredId adom = program.EnsureAdom();
  auto add = [&program](std::vector<obda::ddlog::Atom> head,
                        std::vector<obda::ddlog::Atom> body) {
    OBDA_CHECK(program
                   .AddRule(obda::ddlog::Rule{std::move(head),
                                              std::move(body)})
                   .ok());
  };
  {
    std::vector<obda::ddlog::Atom> head;
    for (obda::ddlog::PredId p : idb) {
      if (rng.Chance(2, 3)) head.push_back({p, {0}});
    }
    if (head.empty()) head.push_back({idb[0], {0}});
    add(std::move(head), {{adom, {0}}});
  }
  const int extra = 3 + static_cast<int>(rng.Below(3));
  for (int r = 0; r < extra; ++r) {
    std::vector<obda::ddlog::Atom> body = {{0 /*E*/, {0, 1}}};
    body.push_back({idb[rng.Below(idb.size())],
                    {static_cast<obda::ddlog::VarId>(rng.Below(2))}});
    std::vector<obda::ddlog::Atom> head;
    if (rng.Chance(1, 2)) {
      head.push_back({idb[rng.Below(idb.size())],
                      {static_cast<obda::ddlog::VarId>(rng.Below(2))}});
    }
    add(std::move(head), std::move(body));
  }
  add({{idb[rng.Below(idb.size())], {0}}}, {{1 /*L*/, {0}}});
  add({{goal, {0}}}, {{idb[rng.Below(idb.size())], {0}}});
  s.payload = program.ToString();
  std::replace(s.payload.begin(), s.payload.end(), '\n', ' ');
  s.kind = "PROGRAM";
  auto fact = [&](Rng& g) {
    if (g.Chance(2, 3)) return Fact{e, {C(g.Below(16)), C(g.Below(16))}};
    return Fact{l, {C(g.Below(16))}};
  };
  DrawDistinct(40, rng, fact, &s.facts);
  s.extra = AbsentFacts(s.facts, 1, rng, [&](Rng& g) {
    return Fact{e, {C(g.Below(16)), C(g.Below(16))}};
  });
  return s;
}

struct FamilyCount {
  const char* family;
  int count;
  int write_pairs;
};
// The cold corpus composition is synthetic: chosen by hand so that every
// percentile lands inside one family's block on every run (worked out
// from the per-family costs a prepare_cold run prints), not taken from
// traffic. It is fixed across seeds. Every OMQ is read once
// after its PREPARE, then after each write of its write pairs
// (ASSERT+QUERY, RETRACT+QUERY): the reach OMQs carry most of the writes,
// conp_aq 80 pairs, the K3 OMQs three, the rest one.
//  - time to first answer, ascending program < fo2 < reach < fo3..fo6 <
//    k3 < k4 < conp_aq: ttfa_p50 falls inside reach, ttfa_p90 inside k3;
//  - QUERYs, ascending: the few sub-millisecond program and fo reads, then
//    the bulk of reach fresh reads (~1 ms each, where query_p50 and
//    fresh_p50 fall), K3 fresh reads, then the ~10 ms conp_aq fresh reads
//    (7% of fresh reads: fresh_p95) mixed with the K3 first QUERYs
//    (query_p99), then K4. Reads this heavy are timed by their own work,
//    not by thread wake-ups.
// One conp_aq and one K4, the planner's most expensive OMQs, are in every
// pass.
constexpr FamilyCount kColdFamilies[] = {
    {"program", 60, 1}, {"reach", 100, 8}, {"fo2", 4, 1}, {"fo3", 4, 1},
    {"fo4", 4, 1},      {"fo5", 4, 1},     {"fo6", 4, 1}, {"k3", 38, 3},
    {"k4", 1, 1},       {"conp_aq", 1, 80},
};

}  // namespace

std::string PrepareLine(const std::string& name, const OmqSpec& spec) {
  std::string line = "PREPARE " + name + " ";
  if (!spec.plan.empty()) line += spec.plan + " ";
  return line + spec.kind + " " + spec.payload;
}

std::string FactsLine(const char* verb, const std::vector<Fact>& facts) {
  std::string line = verb;
  for (std::size_t i = 0; i < facts.size(); ++i) {
    line += (i > 0 ? ", " : " ") + obda::data::FormatFact(facts[i]);
  }
  return line;
}

int ColdCorpusSize() {
  int n = 0;
  for (const FamilyCount& f : kColdFamilies) n += f.count;
  return n;
}

std::string ColdCorpusComposition() {
  std::string out;
  for (const FamilyCount& f : kColdFamilies) {
    out += (out.empty() ? "" : " ") + std::string(f.family) + ":" +
           std::to_string(f.count);
  }
  return out;
}

std::vector<OmqSpec> ColdCorpus(std::uint64_t seed, int pass) {
  Rng rng(seed * 1'000'003 + static_cast<std::uint64_t>(pass));
  std::vector<OmqSpec> corpus;
  int item = 0;
  for (const FamilyCount& f : kColdFamilies) {
    const std::string family = f.family;
    for (int i = 0; i < f.count; ++i, ++item) {
      // Unique per (pass, item) within a run, random across seeds.
      const std::string tag = "q" + Base36(rng, 4) + std::to_string(pass) +
                              "i" + std::to_string(item) + "_";
      if (family.rfind("fo", 0) == 0) {
        corpus.push_back(FoSpec(family[2] - '0', tag, rng));
      } else if (family == "reach") {
        corpus.push_back(ReachSpec(tag, rng));
      } else if (family == "k3" || family == "k4") {
        corpus.push_back(CliqueSpec(family[1] - '0', tag, rng));
      } else if (family == "conp_aq") {
        corpus.push_back(ConpAqSpec(tag));
      } else {
        corpus.push_back(ProgramSpec(tag, rng));
      }
      corpus.back().write_pairs = f.write_pairs;
    }
  }
  for (std::size_t i = corpus.size(); i > 1; --i) {
    std::swap(corpus[i - 1], corpus[rng.Below(i)]);
  }
  return corpus;
}

namespace {

std::string MixTag(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  return "m" + Base36(rng, 5) + "_";
}

const std::set<std::string>& MixNames() {
  static const std::set<std::string> names = {"D0", "D1", "D2", "D3", "G",
                                              "H"};
  return names;
}

}  // namespace

std::vector<OmqSpec> MixPool(std::uint64_t seed) {
  // Sixteen unary-schema ontologies the planner admits to the fo tier
  // (binary relations push obstruction enumeration past its cap, so the
  // shared schema is unary); each is served under three tiers.
  static constexpr const char* kOntologies[] = {
      "D0 | D1 [= G",           "D2 | D3 [= G",
      "D0 | D2 [= G",           "D1 | D3 [= G",
      "D1 | D2 [= G",           "D0 | D3 [= G",
      "D0 | D1 | D2 [= G",      "D1 | D2 | D3 [= G",
      "D0 | D1 | D2 | D3 [= G", "D0 [= G; D1 [= G",
      "D0 & D1 [= G",           "D0 | D1 [= G; D2 [= G",
      "D0 [= G; D1 [= H; H [= G", "D0 & D1 [= G; D2 [= G",
      "D1 & D2 | D3 [= G",      "D0 [= G; D1 & D2 [= G",
  };
  const std::string tag = MixTag(seed);
  const std::string schema =
      Tagged("D0/1 D1/1 D2/1 D3/1", tag, MixNames());
  std::vector<OmqSpec> pool;
  for (const char* ontology : kOntologies) {
    for (const char* plan : {"", "PLAN=datalog", "PLAN=sat"}) {
      OmqSpec s;
      s.family = *plan == '\0' ? "mix_auto" : std::string("mix_") + (plan + 5);
      s.schema = schema;
      s.ontology = Tagged(ontology, tag, MixNames());
      s.kind = "AQ";
      s.payload = tag + "G";
      s.plan = plan;
      pool.push_back(std::move(s));
    }
  }
  return pool;
}

void MixSessionData(std::uint64_t seed, int client, std::vector<Fact>* base,
                    std::vector<Fact>* toggles) {
  // 12 facts per relation (48 in all, inside one log2 size class with the
  // toggles), over 24 constants. Which constants each relation holds, and
  // so how the relations overlap, sets the answer counts and the SAT work
  // of every query; that structure is fixed per client, and the seed only
  // renames the constants, so every seed serves the same cost profile.
  const std::string tag = MixTag(seed);
  Rng shape(static_cast<std::uint64_t>(client) * 104'729 + 1);
  Rng rename(seed * 104'729 + static_cast<std::uint64_t>(client) + 1);
  std::vector<int> name(24);
  for (int c = 0; c < 24; ++c) name[c] = c;
  for (std::size_t i = name.size(); i > 1; --i) {
    std::swap(name[i - 1], name[rename.Below(i)]);
  }
  auto constant = [&](int c) { return C(name[c]); };
  base->clear();
  toggles->clear();
  std::vector<std::vector<int>> order(4);
  for (int d = 0; d < 4; ++d) {
    for (int c = 0; c < 24; ++c) order[d].push_back(c);
    for (std::size_t i = order[d].size(); i > 1; --i) {
      std::swap(order[d][i - 1], order[d][shape.Below(i)]);
    }
    for (int i = 0; i < 12; ++i) {
      base->push_back(
          {tag + "D" + std::to_string(d), {constant(order[d][i])}});
    }
  }
  // Toggles on D0..D2, each over a constant the base already uses (so the
  // snapshot universe never changes).
  std::set<std::string> used;
  for (const Fact& f : *base) used.insert(f.args[0]);
  for (int d = 0; d < 3; ++d) {
    for (int i = 12; i < 24; ++i) {
      if (used.count(constant(order[d][i])) == 0) continue;
      toggles->push_back(
          {tag + "D" + std::to_string(d), {constant(order[d][i])}});
      break;
    }
  }
  OBDA_CHECK_EQ(toggles->size(), 3u);
}

OmqSpec ChurnSpec(std::uint64_t seed) {
  Rng rng(seed * 2'654'435'761ULL + 5);
  OmqSpec s;
  s.family = "churn_program";
  s.schema = "E/2 L/1";
  s.kind = "PROGRAM";
  s.payload =
      "P0(x) | P1(x) <- adom(x). P1(y) <- P0(x), E(x,y). "
      "goal(x) <- P1(x), L(x).";
  const std::string prefix = "k" + Base36(rng, 3) + "_";
  auto name = [&](int i) { return prefix + std::to_string(i); };
  // E23 Phase D's stride pattern: exactly kChurnFacts distinct edges.
  std::set<std::pair<int, int>> edges;
  for (int i = 0; static_cast<int>(edges.size()) < kChurnFacts; ++i) {
    const int from = i % kChurnConstants;
    const int to = (i * 7 + i / kChurnConstants) % kChurnConstants;
    if (!edges.emplace(from, to).second) continue;
    s.facts.push_back({"E", {name(from), name(to)}});
  }
  for (int i = 0; i < kChurnConstants / 8; ++i) {
    s.facts.push_back({"L", {name(i)}});
  }
  // The flipped edges are the same on every seed (the seed renames them
  // with the rest): which edges flip sets the SAT work after a write.
  Rng pool(5);
  while (static_cast<int>(s.extra.size()) < kChurnPool) {
    const int from = static_cast<int>(pool.Below(kChurnConstants));
    const int to = static_cast<int>(pool.Below(kChurnConstants));
    if (!edges.emplace(from, to).second) continue;
    s.extra.push_back({"E", {name(from), name(to)}});
  }
  return s;
}

Zipf::Zipf(int n) {
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / (i + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Sample(Rng& rng) const {
  const double u =
      static_cast<double>(rng.Next() >> 11) / static_cast<double>(1ULL << 53);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()),
                  static_cast<int>(cdf_.size()) - 1);
}

}  // namespace obdabench
