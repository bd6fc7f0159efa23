#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "base/hash.h"
#include "base/rng.h"
#include "corpus.h"
#include "dl/parser.h"
#include "ops.h"
#include "oracle.h"
#include "replay.h"
#include "serve/planner.h"
#include "serve/prepared.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "store/store.h"
#include "store/writer.h"
#include "trace.h"

namespace obdabench {

namespace {

using obda::data::Fact;
using obda::serve::Server;

constexpr int kSetupReps = 5;
constexpr int kColdPoolReps = 11;
// Deterministic digest prefixes (every run must get this far).
constexpr std::size_t kMixDigestLines = 2000;
constexpr int kChurnDigestCycles = 200;
// Enough cycles for 1000+ QUERY samples (p99) and 200+ fresh samples
// (p95), however slow the machine.
constexpr int kChurnMinCycles = 250;
constexpr int kMixClients = 4;
constexpr std::size_t kTraceFileSpans = 50'000;

double Secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Everything one workload run produces, before it becomes metrics.
struct Run {
  std::vector<OmqSpec> specs;  // indexed by Line::omq
  Samples samples;
  std::vector<AnswerLog> answers;  // per client
  /// Timed-phase wall: the phase itself with concurrent clients, the
  /// summed timed-line latency with one client.
  double wall_s = 0;
  std::vector<double> setup_s, corpus_s;
  double peak_rss_mb = 0;
  ObsDelta obs;
  /// The planner-side registry deltas (serve.plan, obstructions) when
  /// they are not `obs`: serve_mix plans only in its cold bring-up.
  std::optional<ObsDelta> plan_obs;
  /// "family tier budget-events" of every plan the planner made.
  std::set<std::string> plan_entries;
  std::size_t budget_events = 0;
  std::map<std::string, double> tiers;
  std::vector<std::string> problems;
  std::uint64_t digest = 0;
  // The traced replay.
  std::vector<Span> spans;
  Samples replay_samples;
  std::vector<AnswerLog> replay_answers;
  std::uint64_t replay_digest = 0;
  /// prepare_cold: time to first answer, first QUERY and fresh QUERY by
  /// family in the first pass (the human report's breakdown).
  std::map<std::string, std::vector<double>> family_ttfa, family_first,
      family_fresh;
  /// prepare_cold: the plans the traced replay's planner made.
  std::set<std::string> replay_plan_entries;
  std::map<std::uint64_t, double> ladder_by_op;
};

/// "family tier budget-line" of an EXPLAIN payload; `events` gets the
/// number of budget events.
std::string PlanEntry(const std::string& family, const std::string& explain,
                      std::string* tier, std::size_t* events) {
  std::istringstream in(explain);
  std::string line, budget = "budget ?";
  *tier = "?";
  while (std::getline(in, line)) {
    if (line.rfind("tier=", 0) == 0) *tier = line.substr(5, line.find(' ') - 5);
    if (line.rfind("budget", 0) == 0) budget = line;
  }
  std::istringstream words(budget.substr(6));
  std::string event;
  *events = 0;
  while (words >> event) {
    if (event != "none") ++*events;
  }
  return family + " " + *tier + " " + budget;
}

std::string ExplainText(const obda::serve::PlanExplain& ex) {
  std::string text;
  for (const std::string& line : obda::serve::ExplainLines(ex)) {
    text += line + "\n";
  }
  return text;
}

/// Files the planner record of an EXPLAIN payload into `run`.
void NotePlan(const std::string& family, const std::string& explain,
              Run* run) {
  std::string tier;
  std::size_t events = 0;
  run->plan_entries.insert(PlanEntry(family, explain, &tier, &events));
  run->tiers[tier] += 1;
  run->budget_events += events;
}

/// Runs untimed set-up lines; a failure makes the run incorrect.
void RunSetup(Server::Client& client, const std::vector<std::string>& lines,
              Run* run) {
  for (const std::string& line : lines) {
    const std::string response = client.HandleLine(line);
    if (response.rfind("ERR", 0) == 0 && run->problems.size() < 12) {
      run->problems.push_back("set-up failed: " + line.substr(0, 60) +
                              " -> " + response);
    }
  }
}

std::vector<std::string> SessionLines(const OmqSpec& spec,
                                      const std::vector<Fact>& facts) {
  std::vector<std::string> lines = {"SCHEMA " + spec.schema};
  if (!spec.ontology.empty()) lines.push_back("ONTOLOGY " + spec.ontology);
  for (std::size_t i = 0; i < facts.size(); i += 1000) {
    const std::size_t end = std::min(facts.size(), i + 1000);
    lines.push_back(FactsLine(
        "ASSERT", std::vector<Fact>(facts.begin() + static_cast<long>(i),
                                    facts.begin() + static_cast<long>(end))));
  }
  return lines;
}

Line QueryLine(const std::string& name, int slot, int omq, int state,
               bool digest) {
  Line line;
  line.text = "QUERY " + name;
  line.verb = Verb::kQuery;
  line.slot = slot;
  line.omq = omq;
  line.state = state;
  line.digest = digest;
  return line;
}

Line PrepareOp(const std::string& name, int slot, int omq,
               const OmqSpec& spec, bool cold) {
  Line line;
  line.text = PrepareLine(name, spec);
  line.verb = Verb::kPrepare;
  line.slot = slot;
  line.omq = omq;
  line.expect_cold = cold;
  return line;
}

Line MutateOp(const char* verb, const Fact& fact) {
  Line line;
  line.text = FactsLine(verb, {fact});
  line.verb = Verb::kMutate;
  return line;
}

// ---------------------------------------------------------------------------
// prepare_cold: every PREPARE is a never-seen OMQ on a server with no store.

/// The timed lines of one corpus item: cold PREPARE, its first QUERY (the
/// time-to-first-answer sample), the item's write pairs (ASSERT+QUERY and
/// RETRACT+QUERY of one absent fact) and a closing re-PREPARE.
std::vector<Line> ColdItemLines(const OmqSpec& spec, int omq, bool digest) {
  std::vector<Line> lines;
  lines.push_back(PrepareOp("q", 0, omq, spec, /*cold=*/true));
  lines.push_back(QueryLine("q", 0, omq, 0, digest));
  for (int i = 0; i < spec.write_pairs; ++i) {
    lines.push_back(MutateOp("ASSERT", spec.extra.at(0)));
    lines.push_back(QueryLine("q", 0, omq, 1, digest));
    lines.push_back(MutateOp("RETRACT", spec.extra.at(0)));
    lines.push_back(QueryLine("q", 0, omq, 0, digest));
  }
  lines.push_back(PrepareOp("q", 0, omq, spec, /*cold=*/false));
  return lines;
}

void RunPrepareCold(const Options& options, Run* run) {
  const int n = ColdCorpusSize();
  // No store: every first PREPARE compiles. One client, so one scheduler
  // worker (more would only scatter allocations across malloc arenas).
  obda::serve::ServerOptions server_options;
  server_options.scheduler.threads = 1;
  Server server(server_options);
  struct PassSessions {
    std::vector<std::unique_ptr<Server::Client>> clients;
  };
  std::deque<PassSessions> ready;
  int next_setup_pass = 0;
  // Set-up of one pass: a fresh client per OMQ runs its SCHEMA /
  // ONTOLOGY / ASSERT lines.
  auto set_up_pass = [&]() {
    const int pass = next_setup_pass++;
    std::vector<OmqSpec> corpus = ColdCorpus(options.seed, pass);
    const std::int64_t t0 = NowNs();
    PassSessions sessions;
    for (const OmqSpec& spec : corpus) {
      sessions.clients.push_back(server.NewClient());
      RunSetup(*sessions.clients.back(), SessionLines(spec, spec.facts), run);
    }
    run->setup_s.push_back(Secs(NowNs() - t0));
    run->specs.insert(run->specs.end(), corpus.begin(), corpus.end());
    ready.push_back(std::move(sessions));
  };
  for (int i = 0; i < kSetupReps; ++i) set_up_pass();

  run->obs.Begin();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds) * 1'000'000'000;
  std::int64_t timed_ns = 0;
  // At least two passes (so a fast machine and a slow one run the same
  // work), more while time is left; one pass in the traced run.
  for (int pass = 0;
       pass == 0 || (!options.trace && (pass < 2 || NowNs() < deadline));
       ++pass) {
    if (ready.empty()) set_up_pass();
    PassSessions sessions = std::move(ready.front());
    ready.pop_front();
    double corpus_ms = 0;
    for (int i = 0; i < n; ++i) {
      const int omq = pass * n + i;
      const OmqSpec& spec = run->specs[omq];
      Server::Client& client = *sessions.clients[i];
      run->answers.emplace_back(omq);
      OpTimer timer(&run->samples, &run->answers.back());
      const std::int64_t t0 = NowNs();
      for (const Line& line : ColdItemLines(spec, omq, pass == 0)) {
        timer.Run(line, [&](const Line& l) { return client.HandleLine(l.text); });
        if (timer.last_ttfa_ms() >= 0) corpus_ms += timer.last_ttfa_ms();
        if (pass != 0) continue;
        if (timer.last_ttfa_ms() >= 0) {
          run->family_ttfa[spec.family].push_back(timer.last_ttfa_ms());
          run->family_first[spec.family].push_back(timer.last_ms());
        }
        if (timer.last_fresh_ms() >= 0) {
          run->family_fresh[spec.family].push_back(timer.last_fresh_ms());
        }
      }
      timed_ns += NowNs() - t0;
      NotePlan(spec.family, client.HandleLine("EXPLAIN q"), run);
    }
    run->corpus_s.push_back(corpus_ms / 1e3);
    // The high-water mark after the first pass: later passes only add
    // allocator churn, and their number depends on the machine's speed.
    if (pass == 0) run->peak_rss_mb = PeakRssMb();
  }
  run->wall_s = Secs(timed_ns);
  ready.clear();
  run->obs.End();
  const double passes = static_cast<double>(run->corpus_s.size());
  if (run->obs.Counter("serve.cache_misses") != passes * n ||
      run->obs.Counter("serve.cache_hits") != passes * n) {
    run->problems.push_back(
        "cache traffic is not one miss and one hit per corpus OMQ");
  }

  if (!options.trace) return;
  // Traced replay of pass 0 on a fresh server.
  Server replay_server(server_options);
  SpanLog log;
  std::uint64_t op = 0;
  for (int i = 0; i < n; ++i) {
    const OmqSpec& spec = run->specs[i];
    Replayer replayer(replay_server, log, 0);
    for (const std::string& text : SessionLines(spec, spec.facts)) {
      Line line;
      line.text = text;
      replayer.Run(line, ++op);
    }
    run->replay_answers.emplace_back(i);
    OpTimer timer(&run->replay_samples, &run->replay_answers.back());
    std::optional<obda::serve::PlanExplain> plan;
    std::optional<obda::core::OntologyMediatedQuery> omq;
    std::uint64_t plan_op = 0;
    for (const Line& line : ColdItemLines(spec, i, true)) {
      ++op;
      timer.Run(line, [&](const Line& l) { return replayer.Run(l, op); });
      if (line.verb == Verb::kPrepare && line.expect_cold &&
          replayer.last_plan().has_value()) {
        plan = replayer.last_plan();
        omq = replayer.last_omq();
        plan_op = op;
      }
    }
    if (plan.has_value()) {
      std::string tier;
      std::size_t events = 0;
      run->replay_plan_entries.insert(
          PlanEntry(spec.family, ExplainText(*plan), &tier, &events));
      run->ladder_by_op[plan_op] =
          AttributeLadder(*omq, *plan, log, plan_op, 0);
    }
  }
  run->spans = log.Take();
}

// ---------------------------------------------------------------------------
// serve_mix: four closed-loop clients on a store-backed server.

constexpr const char* kMixNames[] = {"n0", "n1", "n2", "r"};

/// Pool entries the named slots start on: an auto (fo-tier) query, a
/// PLAN=datalog one and a PLAN=sat one, plus the re-PREPARE slot `r`.
std::vector<int> MixInitialBinding() { return {0, 4, 8, 9}; }

/// One client's op stream: ~90% QUERY over the four named slots, ~8%
/// re-PREPARE of slot r from the Zipf-ranked pool (an ONTOLOGY switch,
/// the PREPARE, then a QUERY of r), ~2% single-fact toggles (each
/// followed by a QUERY of the sat slot). Deterministic in (seed, client).
class MixScript {
 public:
  MixScript(std::uint64_t seed, int client, const std::vector<OmqSpec>& pool,
            std::vector<Fact> toggles)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(client)),
        zipf_(static_cast<int>(pool.size())),
        pool_(pool),
        toggles_(std::move(toggles)),
        bound_(MixInitialBinding()) {
    // The Zipf rank -> pool entry map is per seed, shared by all clients,
    // so the clients' hot sets overlap in the shared cache.
    // Rank r re-PREPAREs the same pool entry on every seed: the entries
    // cost very differently, so a seed must not change the hot set. Ranks
    // 0-15 (76% of draws) hold the fo-tier entries, 16-31 (14%) the
    // datalog ones and 32-47 (10%) the sat ones: sorted by time to first
    // answer (fo < sat < datalog), ttfa_p50 falls inside the fo block and
    // ttfa_p90 inside the datalog block.
    const int per_tier = static_cast<int>(pool.size()) / 3;
    for (int r = 0; r < static_cast<int>(pool.size()); ++r) {
      static constexpr int kTierOfBlock[] = {0, 1, 2};  // pool: fo, dl, sat
      perm_.push_back((r % per_tier) * 3 + kTierOfBlock[r / per_tier]);
    }
  }

  Line Next() {
    const bool digest = emitted_++ < kMixDigestLines;
    if (pending_.empty()) Generate();
    Line line = std::move(pending_.front());
    pending_.pop_front();
    if (line.verb == Verb::kQuery) {
      line.omq = bound_[line.slot];
      line.state = mask_;
    }
    if (line.verb == Verb::kPrepare) bound_[line.slot] = line.omq;
    if (line.verb == Verb::kMutate) mask_ = line.state;
    line.digest = digest && line.verb == Verb::kQuery;
    return line;
  }

 private:
  void Generate() {
    const std::uint64_t u = rng_.Below(100);
    if (u < 2) {
      const int t = static_cast<int>(rng_.Below(toggles_.size()));
      const int bit = 1 << t;
      const int next_mask = generated_mask_ ^ bit;
      Line m = MutateOp((generated_mask_ & bit) ? "RETRACT" : "ASSERT",
                        toggles_[t]);
      m.state = next_mask;
      generated_mask_ = next_mask;
      pending_.push_back(std::move(m));
      // The QUERY after a write always reads the sat-tier slot, so fresh
      // samples measure one path (delta patch + probes).
      pending_.push_back(QueryLine(kMixNames[2], 2, -1, 0, false));
    } else if (u < 10) {
      const int z = perm_[zipf_.Sample(rng_)];
      Line ontology;
      ontology.text = "ONTOLOGY " + pool_[z].ontology;
      ontology.verb = Verb::kAux;
      pending_.push_back(std::move(ontology));
      pending_.push_back(PrepareOp("r", 3, z, pool_[z], /*cold=*/false));
      pending_.push_back(QueryLine("r", 3, -1, 0, false));
    } else {
      pending_.push_back(AnyQuery());
    }
  }

  Line AnyQuery() {
    const int slot = static_cast<int>(rng_.Below(4));
    return QueryLine(kMixNames[slot], slot, -1, 0, false);
  }

  obda::base::Rng rng_;
  Zipf zipf_;
  const std::vector<OmqSpec>& pool_;
  std::vector<Fact> toggles_;
  std::vector<int> bound_;
  std::vector<int> perm_;
  std::deque<Line> pending_;
  int mask_ = 0;            // data state as of the last line handed out
  int generated_mask_ = 0;  // ... as of the last line generated
  std::size_t emitted_ = 0;
};

std::vector<Fact> MixFacts(const std::vector<Fact>& base,
                           const std::vector<Fact>& toggles, int mask) {
  std::vector<Fact> facts = base;
  for (std::size_t t = 0; t < toggles.size(); ++t) {
    if (mask & (1 << t)) facts.push_back(toggles[t]);
  }
  return facts;
}

/// The untimed lines that open one mix client: its session and the four
/// named queries, each queried once.
std::vector<std::string> MixClientSetup(const std::vector<OmqSpec>& pool,
                                        const std::vector<Fact>& base) {
  std::vector<std::string> lines = {"SCHEMA " + pool[0].schema,
                                    FactsLine("ASSERT", base)};
  const std::vector<int> bound = MixInitialBinding();
  for (int slot = 0; slot < 4; ++slot) {
    const OmqSpec& spec = pool[bound[slot]];
    lines.push_back("ONTOLOGY " + spec.ontology);
    lines.push_back(PrepareLine(kMixNames[slot], spec));
    lines.push_back(std::string("QUERY ") + kMixNames[slot]);
  }
  return lines;
}

obda::serve::ServerOptions MixServerOptions(
    std::shared_ptr<const obda::store::ArtifactStore> store) {
  obda::serve::ServerOptions options;
  options.prepare.eval.threads = 1;  // parallelism across sessions
  options.store = std::move(store);
  return options;
}

/// Cold bring-up of the pool on a server with no store: Σ(PREPARE + first
/// QUERY) over the entries, in seconds.
double ColdPoolSeconds(const std::vector<OmqSpec>& pool,
                       const std::vector<Fact>& facts, Run* run) {
  Server cold(MixServerOptions(nullptr));
  double ms = 0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    auto client = cold.NewClient();
    RunSetup(*client, SessionLines(pool[k], facts), run);
    Samples samples(1, 1);
    AnswerLog answers(0);
    OpTimer timer(&samples, &answers);
    auto exec = [&](const Line& l) { return client->HandleLine(l.text); };
    timer.Run(PrepareOp("q", 0, static_cast<int>(k), pool[k], true), exec);
    timer.Run(QueryLine("q", 0, static_cast<int>(k), 0, false), exec);
    ms += timer.last_ttfa_ms();
    if (samples.failed != 0) {
      run->problems.push_back("cold pool bring-up failed: " +
                              samples.errors.at(0));
    }
  }
  return ms / 1e3;
}

/// The traced run's view of the cold path the timed phase never takes: a
/// replayed cold bring-up of the pool (its answers go to client 0's
/// replay log, for the oracle), each plan's ladder steps re-run one by
/// one. Op ids start at 2^50, clear of the timed replay's.
void ReplayColdPool(const std::vector<OmqSpec>& pool,
                    const std::vector<Fact>& facts, SpanLog& log, Run* run) {
  Server server(MixServerOptions(nullptr));
  Samples samples(pool.size(), pool.size());
  std::uint64_t op = std::uint64_t{1} << 50;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    Replayer replayer(server, log, 0);
    for (const std::string& text : SessionLines(pool[k], facts)) {
      Line line;
      line.text = text;
      replayer.Run(line, ++op);
    }
    OpTimer timer(&samples, &run->replay_answers.at(0));
    auto exec = [&](const Line& l) { return replayer.Run(l, op); };
    const int omq = static_cast<int>(k);
    ++op;
    timer.Run(PrepareOp("q", 0, omq, pool[k], /*cold=*/true), exec);
    if (replayer.last_plan().has_value()) {
      run->ladder_by_op[op] = AttributeLadder(
          *replayer.last_omq(), *replayer.last_plan(), log, op, 0);
    }
    ++op;
    timer.Run(QueryLine("q", 0, omq, 0, false), exec);
  }
  if (samples.failed != 0) {
    run->problems.push_back("replayed cold pool bring-up failed: " +
                            samples.errors.at(0));
  }
}

void RunServeMix(const Options& options, Run* run) {
  run->specs = MixPool(options.seed);
  const std::vector<OmqSpec>& pool = run->specs;
  obda::base::Result<obda::data::Schema> schema = ParseSchema(pool[0].schema);
  if (!schema.ok()) {
    run->problems.push_back("bad mix schema");
    return;
  }
  std::vector<std::vector<Fact>> base(kMixClients), toggles(kMixClients);
  for (int c = 0; c < kMixClients; ++c) {
    MixSessionData(options.seed, c, &base[c], &toggles[c]);
  }
  const std::uint64_t facts = base[0].size();
  const std::string store_path = options.workdir + "/serve_mix.store";

  // Set-up: plan the pool into an artifact store, open it, start the
  // server on it and open the four client sessions.
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Server::Client>> clients;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    server.reset();
    const std::int64_t t0 = NowNs();
    obda::store::StoreWriter writer;
    run->plan_entries.clear();
    run->tiers.clear();
    run->budget_events = 0;
    for (const OmqSpec& spec : pool) {
      auto ontology = obda::dl::ParseOntology(spec.ontology);
      auto omq = obda::core::OntologyMediatedQuery::WithAtomicQuery(
          *schema, *ontology, spec.payload);
      const obda::serve::PlanTier forced =
          spec.plan.empty() ? obda::serve::PlanTier::kAuto
                            : *obda::serve::ParsePlanTier(spec.plan.substr(5));
      obda::serve::PlannerOptions planner;
      planner.force = forced;
      auto plan = obda::serve::PlanOmq(*omq, planner, facts);
      if (!plan.ok()) {
        run->problems.push_back("store build: " + plan.status().message());
        return;
      }
      NotePlan(spec.family, ExplainText(plan->explain), run);
      const obda::serve::CacheKey key = obda::serve::MakeCacheKey(
          *schema, spec.ontology, spec.kind, spec.payload, forced, facts);
      obda::base::Status added = writer.AddPlan(key, *plan);
      if (!added.ok()) run->problems.push_back("store: " + added.message());
    }
    obda::base::Status written = writer.WriteFile(store_path);
    auto store = obda::store::ArtifactStore::Open(store_path);
    if (!written.ok() || !store.ok()) {
      run->problems.push_back("cannot write or open " + store_path);
      return;
    }
    server = std::make_unique<Server>(MixServerOptions(*store));
    for (int c = 0; c < kMixClients; ++c) {
      clients.push_back(server->NewClient());
      RunSetup(*clients.back(), MixClientSetup(pool, base[c]), run);
    }
    run->setup_s.push_back(Secs(NowNs() - t0));
  }

  for (int c = 0; c < kMixClients; ++c) run->answers.emplace_back(c);
  std::vector<std::size_t> lines(kMixClients, 0);
  run->obs.Begin();
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds) * 1'000'000'000;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kMixClients; ++c) {
      threads.emplace_back([&, c] {
        MixScript script(options.seed, c, pool, toggles[c]);
        OpTimer timer(&run->samples, &run->answers[c]);
        Server::Client& client = *clients[c];
        while (NowNs() < deadline) {
          timer.Run(script.Next(),
                    [&](const Line& l) { return client.HandleLine(l.text); });
          ++lines[c];
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  run->wall_s = Secs(NowNs() - start);
  run->peak_rss_mb = PeakRssMb();
  clients.clear();
  server.reset();
  run->obs.End();
  if (run->obs.TimerCount("serve.plan") != 0) {
    run->problems.push_back("the planner ran during the timed phase");
  }
  for (int c = 0; c < kMixClients; ++c) {
    if (lines[c] < kMixDigestLines) {
      run->problems.push_back("client " + std::to_string(c) +
                              " ran fewer lines than the digest prefix");
    }
  }
  // One warm-up round, then the median of kColdPoolReps rounds; the first
  // of them also gives the planner-side registry deltas. They run after
  // the timed phase, so that peak_rss_mb covers set-up and the timed phase
  // only.
  for (int rep = 0; rep <= kColdPoolReps; ++rep) {
    if (rep == 1) run->plan_obs.emplace().Begin();
    const double seconds = ColdPoolSeconds(pool, base[0], run);
    if (rep == 1) run->plan_obs->End();
    if (rep > 0) run->corpus_s.push_back(seconds);
  }

  if (options.trace) {
    auto store = obda::store::ArtifactStore::Open(store_path);
    if (!store.ok()) {
      run->problems.push_back("cannot reopen " + store_path);
      return;
    }
    // The replay server has no ServerOptions::store: the traced loader
    // installed below is the same second tier, with spans.
    Server replay_server(MixServerOptions(nullptr));
    InstallTracedStoreLoader(replay_server, *store);
    SpanLog log;
    for (int c = 0; c < kMixClients; ++c) run->replay_answers.emplace_back(c);
    ReplayColdPool(pool, base[0], log, run);
    std::vector<std::thread> threads;
    for (int c = 0; c < kMixClients; ++c) {
      threads.emplace_back([&, c] {
        Replayer replayer(replay_server, log, c);
        std::uint64_t op = static_cast<std::uint64_t>(c) << 40;
        for (const std::string& text : MixClientSetup(pool, base[c])) {
          Line line;
          line.text = text;
          replayer.Run(line, ++op);
        }
        MixScript script(options.seed, c, pool, toggles[c]);
        OpTimer timer(&run->replay_samples, &run->replay_answers[c]);
        for (std::size_t i = 0; i < lines[c]; ++i) {
          ++op;
          timer.Run(script.Next(),
                    [&](const Line& l) { return replayer.Run(l, op); });
        }
      });
    }
    for (std::thread& t : threads) t.join();
    run->spans = log.Take();
  }
  std::remove(store_path.c_str());
}

// ---------------------------------------------------------------------------
// mutation_churn: one client, 100k facts, writes each followed by reads.

/// One churn cycle: a Zipf-drawn single-fact mutation (an ASSERT of a
/// pool fact, the next cycle its RETRACT), the QUERY after it (fresh),
/// steady-state QUERYs, a re-PREPARE (cache hit) and its QUERY (ttfa).
constexpr int kChurnSteadyQueries = 5;
class ChurnScript {
 public:
  ChurnScript(std::uint64_t seed, const OmqSpec& spec)
      : rng_(seed * 0x2545F4914F6CDD1DULL + 3), zipf_(kChurnPool), spec_(spec) {}

  std::vector<Line> NextCycle() {
    const bool digest = cycle_++ < kChurnDigestCycles;
    std::vector<Line> lines;
    if (asserted_ >= 0) {
      lines.push_back(MutateOp("RETRACT", spec_.extra[asserted_]));
      asserted_ = -1;
    } else {
      asserted_ = zipf_.Sample(rng_);
      lines.push_back(MutateOp("ASSERT", spec_.extra[asserted_]));
    }
    const int state = asserted_ + 1;
    // The fresh QUERY, then kChurnSteadyQueries steady-state ones.
    for (int i = 0; i < 1 + kChurnSteadyQueries; ++i) {
      lines.push_back(QueryLine("churn", 0, 0, state, digest));
    }
    lines.push_back(PrepareOp("churn", 0, 0, spec_, /*cold=*/false));
    lines.push_back(QueryLine("churn", 0, 0, state, digest));
    return lines;
  }

 private:
  obda::base::Rng rng_;
  Zipf zipf_;
  const OmqSpec& spec_;
  int asserted_ = -1;
  int cycle_ = 0;
};

obda::serve::ServerOptions ChurnServerOptions() {
  obda::serve::ServerOptions options;
  options.prepare.eval.threads = 1;  // as E23 Phase D
  options.scheduler.threads = 1;     // one client
  return options;
}

void RunMutationChurn(const Options& options, Run* run) {
  run->specs = {ChurnSpec(options.seed)};
  const OmqSpec& spec = run->specs[0];
  std::vector<std::string> session = SessionLines(spec, spec.facts);

  // Set-up: load the 100k-fact session, PREPARE and ground it (the first
  // QUERY). The PREPARE + first QUERY part is the corpus bring-up.
  std::unique_ptr<Server> server;
  std::unique_ptr<Server::Client> client;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    client.reset();
    server.reset();
    const std::int64_t t0 = NowNs();
    server = std::make_unique<Server>(ChurnServerOptions());
    client = server->NewClient();
    RunSetup(*client, session, run);
    const std::int64_t t1 = NowNs();
    RunSetup(*client, {PrepareLine("churn", spec), "QUERY churn"}, run);
    const std::int64_t t2 = NowNs();
    run->setup_s.push_back(Secs(t2 - t0));
    run->corpus_s.push_back(Secs(t2 - t1));
  }
  NotePlan(spec.family, client->HandleLine("EXPLAIN churn"), run);

  run->answers.emplace_back(0);
  run->obs.Begin();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(options.seconds) * 1'000'000'000;
  ChurnScript script(options.seed, spec);
  OpTimer timer(&run->samples, &run->answers[0]);
  int cycles = 0;
  const std::int64_t start = NowNs();
  while (NowNs() < deadline || cycles < kChurnMinCycles) {
    for (const Line& line : script.NextCycle()) {
      timer.Run(line, [&](const Line& l) { return client->HandleLine(l.text); });
    }
    ++cycles;
  }
  run->wall_s = Secs(NowNs() - start);
  run->peak_rss_mb = PeakRssMb();
  client.reset();
  server.reset();
  run->obs.End();

  if (!options.trace) return;
  Server replay_server(ChurnServerOptions());
  SpanLog log;
  Replayer replayer(replay_server, log, 0);
  std::uint64_t op = 0;
  session.push_back(PrepareLine("churn", spec));
  session.push_back("QUERY churn");
  for (const std::string& text : session) {
    Line line;
    line.text = text;
    replayer.Run(line, ++op);
  }
  run->replay_answers.emplace_back(0);
  OpTimer replay_timer(&run->replay_samples, &run->replay_answers[0]);
  ChurnScript replay_script(options.seed, spec);
  for (int i = 0; i < cycles; ++i) {
    for (const Line& line : replay_script.NextCycle()) {
      ++op;
      replay_timer.Run(line,
                       [&](const Line& l) { return replayer.Run(l, op); });
    }
  }
  run->spans = log.Take();
}

// ---------------------------------------------------------------------------
// Metrics.

void Add(Outcome* out, const std::string& name, double value,
         const std::string& unit) {
  out->metrics.push_back(Metric{name, value, unit});
}

/// A tail metric at a fixed percentile, only when the sample count
/// supports it (at least ten samples beyond).
double Tail(const Reservoir& samples, int q, const char* what, Run* run) {
  if (SamplesBeyond(samples.values().size(), q) < 10) {
    run->problems.push_back(std::string(what) + ": " +
                            std::to_string(samples.values().size()) +
                            " samples do not support p" +
                            std::to_string(q / 10.0).substr(0, 4));
  }
  return Percentile(samples.values(), q);
}

void EndToEnd(Run* run, Outcome* out) {
  const Samples& s = run->samples;
  Add(out, "setup_s", Median(run->setup_s), "s");
  Add(out, "peak_rss_mb", run->peak_rss_mb, "MB");
  Add(out, "ttfa_p50_ms", Median(s.ttfa_ms.values()), "ms");
  Add(out, "ttfa_p90_ms", Tail(s.ttfa_ms, 900, "ttfa_p90_ms", run), "ms");
  Add(out, "prepare_corpus_s", Median(run->corpus_s), "s");
  Add(out, "query_qps",
      run->wall_s > 0 ? static_cast<double>(s.query_ms.seen()) / run->wall_s
                      : 0,
      "1/s");
  Add(out, "query_p50_ms", Median(s.query_ms.values()), "ms");
  Add(out, "query_p99_ms", Tail(s.query_ms, 990, "query_p99_ms", run), "ms");
  Add(out, "reprepare_p50_ms", Median(s.reprepare_ms.values()), "ms");
  Add(out, "fresh_p50_ms", Median(s.fresh_ms.values()), "ms");
  Add(out, "fresh_p95_ms", Tail(s.fresh_ms, 950, "fresh_p95_ms", run), "ms");
}

struct SpanStats {
  std::map<std::string, std::vector<double>> dur_us;  // timed ops only
  std::vector<double> server_self_us;
  double root_ns = 0, root_self_ns = 0;
  std::map<std::uint64_t, double> plan_ms_by_op;
};

SpanStats AnalyzeSpans(const std::vector<Span>& spans) {
  SpanStats st;
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::uint32_t, const Span*> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (s.parent == 0 && name.rfind("op.", 0) == 0 && name != "op.setup") {
      roots[s.id] = &s;
      st.root_ns += static_cast<double>(s.end_ns - s.start_ns);
      st.root_self_ns += static_cast<double>(self[i]);
    }
  }
  std::map<std::uint32_t, double> excluded_ns;  // per op.query root
  for (const Span& s : spans) {
    auto it = roots.find(s.parent);
    const std::string name = s.name;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (name == "planner.plan_omq") st.plan_ms_by_op[s.op] = dur / 1e6;
    if (it == roots.end()) continue;
    st.dur_us[name].push_back(dur / 1e3);
    if (name == "scheduler.queue_wait" || name == "session.materialize" ||
        name == "session.snapshot" || name.rfind("prepared.execute", 0) == 0) {
      excluded_ns[s.parent] += dur;
    }
  }
  for (const auto& [id, root] : roots) {
    if (std::string(root->name) != "op.query") continue;
    st.server_self_us.push_back(
        (static_cast<double>(root->end_ns - root->start_ns) -
         excluded_ns[id]) /
        1e3);
  }
  return st;
}

void PerLayer(Run* run, Outcome* out) {
  const ObsDelta& d = run->obs;
  const SpanStats st = AnalyzeSpans(run->spans);
  auto p = [&](const char* span, int q) {
    auto it = st.dur_us.find(span);
    return it == st.dur_us.end() ? 0.0 : Percentile(it->second, q);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const Samples& s = run->samples;

  Add(out, "server.self_us_p50", Percentile(st.server_self_us, 500), "us");
  Add(out, "scheduler.queue_wait_us_p50", p("scheduler.queue_wait", 500), "us");
  Add(out, "scheduler.queue_wait_us_p99", p("scheduler.queue_wait", 990), "us");
  Add(out, "scheduler.shed", d.Counter("serve.shed"), "count");
  Add(out, "scheduler.expired", d.Counter("serve.expired"), "count");
  const double hits = d.Counter("serve.cache_hits");
  const double lookups = hits + d.Counter("serve.cache_misses");
  Add(out, "cache.hit_ratio", ratio(hits, lookups), "ratio");
  Add(out, "cache.hits", hits, "count");
  Add(out, "cache.lookups", lookups, "count");
  Add(out, "cache.evictions", d.Counter("serve.cache_evictions"), "count");
  Add(out, "store.hits", d.Counter("store.hits"), "count");
  Add(out, "store.misses", d.Counter("store.misses"), "count");
  Add(out, "store.load_us_p50", d.Histogram("store.load").Quantile(0.5) / 1e3,
      "us");
  Add(out, "execute.hot_hit_ratio",
      ratio(static_cast<double>(s.hot_queries),
            static_cast<double>(s.query_ms.seen())),
      "ratio");
  Add(out, "execute.fo_us_p50", p("prepared.execute.fo", 500), "us");
  Add(out, "execute.datalog_us_p50", p("prepared.execute.datalog", 500), "us");
  Add(out, "execute.sat_us_p50", p("prepared.execute.sat", 500), "us");
  Add(out, "session.mutate_us_p50", p("session.mutate", 500), "us");
  Add(out, "session.materialize_ms_p50", p("session.materialize", 500) / 1e3,
      "ms");
  const ObsDelta& plan = run->plan_obs ? *run->plan_obs : d;
  Add(out, "planner.plan_ms_total", plan.TimerMs("serve.plan"), "ms");
  Add(out, "planner.tier.fo", run->tiers["fo"], "count");
  Add(out, "planner.tier.datalog", run->tiers["datalog"], "count");
  Add(out, "planner.tier.sat", run->tiers["sat"], "count");
  Add(out, "planner.budget_events", static_cast<double>(run->budget_events),
      "count");
  std::uint64_t plan_digest = obda::base::kFnvOffsetBasis;
  for (const std::string& entry : run->plan_entries) {
    plan_digest = obda::base::Fnv1a(entry + "\n", plan_digest);
  }
  Add(out, "planner.plan_digest",
      static_cast<double>(plan_digest & 0xffffffffULL), "hash");
  double plan_unattributed = 0;
  for (const auto& [op, ms] : run->ladder_by_op) {
    auto it = st.plan_ms_by_op.find(op);
    if (it != st.plan_ms_by_op.end()) plan_unattributed += it->second - ms;
  }
  Add(out, "plan.unattributed_ms", plan_unattributed, "ms");
  auto span_total_ms = [&](const char* name) {
    double total = 0;
    for (const Span& sp : run->spans) {
      if (std::string(sp.name) == name) {
        total += static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
      }
    }
    return total;
  };
  for (const char* step : {"fo_decide", "fo_extract", "fo_validate",
                           "datalog_decide", "datalog_extract", "compile"}) {
    Add(out, std::string("core.") + step + "_ms",
        span_total_ms((std::string("core.") + step).c_str()), "ms");
  }
  const double hom_calls = d.Counter("hom.calls");
  Add(out, "hom.calls", hom_calls, "count");
  Add(out, "hom.nodes", d.Counter("hom.nodes"), "count");
  Add(out, "hom.sweep_bytes", d.Counter("hom.sweep_bytes"), "bytes");
  Add(out, "hom.sweep_bytes_per_call",
      ratio(d.Counter("hom.sweep_bytes"), hom_calls), "bytes");
  Add(out, "hom.search_ms", d.TimerMs("hom.search"), "ms");
  Add(out, "prefilter.hit_ratio",
      ratio(d.Counter("ddlog.prefilter_hits"),
            d.Counter("ddlog.prefilter_checks")),
      "ratio");
  Add(out, "rewritability.obstructions",
      plan.Counter("rewritability.obstructions"), "count");
  Add(out, "ddlog.ground_ms", d.TimerMs("ddlog.ground"), "ms");
  Add(out, "ddlog.ground_calls", d.Counter("ddlog.ground_calls"), "count");
  Add(out, "ddlog.regrounds", d.Counter("ddlog.regrounds"), "count");
  Add(out, "ddlog.delta_grounds", d.Counter("ddlog.delta_grounds"), "count");
  const obda::obs::Histogram::Snapshot delta = d.Histogram("ddlog.delta_ground");
  Add(out, "ddlog.delta_ground_ms_p50", delta.Quantile(0.5) / 1e6, "ms");
  Add(out, "ddlog.delta_ground_ms_p95", delta.Quantile(0.95) / 1e6, "ms");
  const double checks = d.Counter("ddlog.certain_checks");
  Add(out, "ddlog.certain_checks", checks, "count");
  Add(out, "ddlog.model_cache_hit_ratio",
      ratio(d.Counter("ddlog.model_cache_hits"), checks), "ratio");
  Add(out, "ddlog.batch_fallbacks", d.Counter("ddlog.batch_fallbacks"),
      "count");
  Add(out, "sat.solve_ms", d.TimerMs("sat.solve"), "ms");
  Add(out, "sat.decisions", d.Counter("sat.decisions"), "count");
  Add(out, "sat.conflicts", d.Counter("sat.conflicts"), "count");
  Add(out, "sat.propagations", d.Counter("sat.propagations"), "count");
  Add(out, "trace_overhead_ratio",
      ratio(run->replay_samples.timed_ms, run->samples.timed_ms), "ratio");
  Add(out, "unattributed_frac", ratio(st.root_self_ns, st.root_ns), "ratio");
  Add(out, "fail_ratio",
      ratio(static_cast<double>(out->failed),
            static_cast<double>(out->attempted)),
      "ratio");
}

/// Per-span-name self/total times of the replay, for the human report.
void PrintLayerTable(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  struct Row {
    double total_ms = 0, self_ms = 0;
    std::size_t count = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "op.setup") continue;
    Row& row = rows[spans[i].name];
    row.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    ++row.count;
  }
  std::printf("  %-28s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("  %-28s %10zu %12.3f %12.3f\n", name.c_str(), row.count,
                row.total_ms, row.self_ms);
  }
}

/// Compares `digest` with the one `path` records for `workload`. The file
/// records the digests of one seed; runs with another seed are not
/// compared, but a file that cannot be read, or lacks the workload, makes
/// the run incorrect.
void CheckRecordedDigest(const std::string& path, const std::string& workload,
                         std::uint64_t seed, std::uint64_t digest,
                         std::vector<std::string>* problems) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // {"seed": N, "<workload>": "<hex>", ...}
  const std::size_t seed_at = text.find("\"seed\":");
  if (!in || seed_at == std::string::npos) {
    problems->push_back("cannot read the recorded digests from " + path);
    return;
  }
  if (std::strtoull(text.c_str() + seed_at + 7, nullptr, 10) != seed) return;
  const std::size_t at = text.find("\"" + workload + "\":");
  const std::size_t open =
      at == std::string::npos ? at : text.find('"', at + workload.size() + 3);
  const std::size_t close =
      open == std::string::npos ? open : text.find('"', open + 1);
  if (close == std::string::npos) {
    problems->push_back(path + " records no digest for " + workload);
    return;
  }
  const std::string recorded = text.substr(open + 1, close - open - 1);
  if (recorded != Hex(digest)) {
    problems->push_back("answer digest " + Hex(digest) +
                        " differs from the recorded " + recorded);
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "prepare_cold" || name == "serve_mix" ||
         name == "mutation_churn";
}

Outcome RunWorkload(const Options& options) {
  Run run;
  SnapshotFn snapshot;
  // Snapshots the oracle evaluates on, per (client, state).
  std::map<std::pair<int, int>, std::shared_ptr<const obda::data::Instance>>
      instances;
  auto cached = [&](int client, int state,
                    const std::function<std::shared_ptr<
                        const obda::data::Instance>()>& make) {
    auto& slot = instances[{client, state}];
    if (slot == nullptr) slot = make();
    return slot;
  };
  if (options.workload == "prepare_cold") {
    RunPrepareCold(options, &run);
    snapshot = [&](int client, int state) {
      return cached(client, state, [&] {
        const OmqSpec& spec = run.specs.at(client);
        std::vector<Fact> facts = spec.facts;
        if (state == 1) facts.push_back(spec.extra.at(0));
        return Snapshot(*ParseSchema(spec.schema), facts);
      });
    };
  } else if (options.workload == "serve_mix") {
    RunServeMix(options, &run);
    snapshot = [&](int client, int state) {
      return cached(client, state, [&] {
        std::vector<Fact> base, toggles;
        MixSessionData(options.seed, client, &base, &toggles);
        return Snapshot(*ParseSchema(run.specs.at(0).schema),
                        MixFacts(base, toggles, state));
      });
    };
  } else {
    RunMutationChurn(options, &run);
    snapshot = [&](int client, int state) {
      return cached(client, state, [&] {
        const OmqSpec& spec = run.specs.at(0);
        std::vector<Fact> facts = spec.facts;
        if (state > 0) facts.push_back(spec.extra.at(state - 1));
        return Snapshot(*ParseSchema(spec.schema), facts);
      });
    };
  }

  Outcome out;
  out.attempted = run.samples.attempted;
  out.failed = run.samples.failed;
  for (const std::string& e : run.samples.errors) {
    run.problems.push_back("failed op: " + e);
  }
  AnswerMemo memo;
  std::size_t mismatches = 0;
  run.digest = CheckAnswers(run.answers, run.specs, snapshot, &memo, "timed",
                      &run.problems, &mismatches);
  out.failed += mismatches;

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.workload == "prepare_cold") {
    std::printf("corpus %d OMQs per pass (%s), %zu pass(es); by family, "
                "first pass:\n",
                ColdCorpusSize(), ColdCorpusComposition().c_str(),
                run.corpus_s.size());
    for (const auto& [family, ttfa] : run.family_ttfa) {
      std::printf("  %-8s n=%3zu p50 ms: cold ttfa %9.3f  first query "
                  "%7.3f  fresh query %7.3f (n=%zu)\n",
                  family.c_str(), ttfa.size(), Median(ttfa),
                  Median(run.family_first[family]),
                  Median(run.family_fresh[family]),
                  run.family_fresh[family].size());
    }
  }
  const Samples& s = run.samples;
  std::printf("samples kept/taken: query %zu/%zu (tail p%.1f supported), "
              "ttfa %zu/%zu, reprepare %zu/%zu, fresh %zu/%zu; oracle checks "
              "%zu distinct\n",
              s.query_ms.values().size(), s.query_ms.seen(),
              SupportedTail(s.query_ms.values().size()) / 10.0,
              s.ttfa_ms.values().size(), s.ttfa_ms.seen(),
              s.reprepare_ms.values().size(), s.reprepare_ms.seen(),
              s.fresh_ms.values().size(), s.fresh_ms.seen(), memo.size());
  std::printf("answer digest %s\n", Hex(run.digest).c_str());
  std::printf("plans:");
  for (const std::string& entry : run.plan_entries) {
    std::printf(" [%s]", entry.c_str());
  }
  std::printf("\n");

  if (!options.digests_path.empty()) {
    CheckRecordedDigest(options.digests_path, options.workload, options.seed,
                        run.digest, &run.problems);
  }

  if (options.trace) {
    std::size_t replay_mismatches = 0;
    run.replay_digest = CheckAnswers(run.replay_answers, run.specs, snapshot, &memo,
                               "replay", &run.problems, &replay_mismatches);
    if (run.replay_digest != run.digest) {
      run.problems.push_back("traced replay digest " +
                             Hex(run.replay_digest) +
                             " differs from the timed run's " +
                             Hex(run.digest));
    }
    if (run.replay_samples.failed != 0) {
      run.problems.push_back("traced replay had failed ops");
    }
    std::printf("replay digest %s, %zu spans\n",
                Hex(run.replay_digest).c_str(), run.spans.size());
    // The planner's wall-clock budget can make the replay plan an OMQ
    // differently from the timed run (a known defect, reported here and
    // never hidden); the replay's op times then differ for that reason.
    for (const std::string& entry : run.replay_plan_entries) {
      if (run.plan_entries.count(entry) == 0) {
        std::printf("NOTE: the replay planned [%s]; the timed run did not\n",
                    entry.c_str());
      }
    }
    PrintLayerTable(run.spans);
    const std::string path = options.workdir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    // The file keeps the first spans only (a serve_mix replay records
    // hundreds of thousands); the metrics above use every span.
    std::vector<Span> head(
        run.spans.begin(),
        run.spans.begin() + static_cast<long>(std::min<std::size_t>(
                                run.spans.size(), kTraceFileSpans)));
    if (WriteChromeTrace(path, head)) {
      std::printf("spans written to %s\n", path.c_str());
    }
    PerLayer(&run, &out);
  } else {
    EndToEnd(&run, &out);
  }
  out.problems = std::move(run.problems);
  return out;
}

}  // namespace obdabench
