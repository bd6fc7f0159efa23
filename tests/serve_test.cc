// Serving-layer tests (DESIGN.md §8): prepared-query answers must be
// bit-identical to a fresh engine run at every thread count across
// ASSERT/RETRACT sequences; the artifact LRU must evict; the scheduler
// must shed and expire deterministically; concurrent sessions must be
// race-free (this binary is in the tsan CI job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "core/csp_translation.h"
#include "data/generator.h"
#include "ddlog/eval.h"
#include "dl/parser.h"
#include "obs/metrics.h"
#include "serve/prepared.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session.h"

namespace obda::serve {
namespace {

using data::Fact;
using data::Schema;

Schema ElSchema() {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("L", 1);
  return s;
}

/// Random simple monadic program over {E/2, L/1} (the shape used by the
/// cross-formalism property sweep in random_program_test.cc).
ddlog::Program RandomProgram(base::Rng& rng, bool boolean_goal) {
  ddlog::Program program(ElSchema());
  std::vector<ddlog::PredId> idb;
  for (int i = 0; i < 2 + static_cast<int>(rng.Below(2)); ++i) {
    idb.push_back(program.AddIdbPredicate("P" + std::to_string(i), 1));
  }
  ddlog::PredId goal = program.AddIdbPredicate("goal", boolean_goal ? 0 : 1);
  program.SetGoal(goal);
  ddlog::PredId adom = program.EnsureAdom();
  auto add = [&program](std::vector<ddlog::Atom> head,
                        std::vector<ddlog::Atom> body) {
    OBDA_CHECK(
        program.AddRule(ddlog::Rule{std::move(head), std::move(body)}).ok());
  };
  {
    std::vector<ddlog::Atom> head;
    for (ddlog::PredId p : idb) {
      if (rng.Chance(2, 3)) head.push_back({p, {0}});
    }
    if (head.empty()) head.push_back({idb[0], {0}});
    add(std::move(head), {{adom, {0}}});
  }
  const int extra = 2 + static_cast<int>(rng.Below(3));
  for (int r = 0; r < extra; ++r) {
    std::vector<ddlog::Atom> body = {{0 /*E*/, {0, 1}}};
    body.push_back({idb[rng.Below(idb.size())],
                    {static_cast<ddlog::VarId>(rng.Below(2))}});
    std::vector<ddlog::Atom> head;
    if (rng.Chance(1, 2)) {
      head.push_back({idb[rng.Below(idb.size())],
                      {static_cast<ddlog::VarId>(rng.Below(2))}});
    }
    add(std::move(head), std::move(body));
  }
  add({{idb[rng.Below(idb.size())], {0}}}, {{1 /*L*/, {0}}});
  if (boolean_goal) {
    add({{goal, {}}}, {{0 /*E*/, {0, 1}}, {idb[rng.Below(idb.size())], {0}}});
  } else {
    add({{goal, {0}}}, {{idb[rng.Below(idb.size())], {0}}});
  }
  return program;
}

Fact RandomFact(base::Rng& rng, int num_constants) {
  auto c = [&] { return "c" + std::to_string(rng.Below(num_constants)); };
  if (rng.Chance(2, 3)) return Fact{"E", {c(), c()}};
  return Fact{"L", {c()}};
}

// --- Session ----------------------------------------------------------------

TEST(SessionTest, MutationsAndGenerations) {
  Session session(ElSchema());
  EXPECT_EQ(session.generation(), 0u);
  ASSERT_TRUE(*session.Assert(Fact{"E", {"a", "b"}}));
  EXPECT_EQ(session.generation(), 1u);
  // Duplicate assert: no-op, generation unchanged.
  ASSERT_FALSE(*session.Assert(Fact{"E", {"a", "b"}}));
  EXPECT_EQ(session.generation(), 1u);
  // Retract of an absent fact: no-op.
  ASSERT_FALSE(*session.Retract(Fact{"L", {"a"}}));
  EXPECT_EQ(session.generation(), 1u);
  ASSERT_TRUE(*session.Retract(Fact{"E", {"a", "b"}}));
  EXPECT_EQ(session.generation(), 2u);
  EXPECT_EQ(session.num_facts(), 0u);

  EXPECT_FALSE(session.Assert(Fact{"R", {"a"}}).ok());       // unknown rel
  EXPECT_FALSE(session.Assert(Fact{"E", {"a"}}).ok());       // arity
  EXPECT_EQ(session.Assert(Fact{"E", {"a"}}).status().code(),
            base::StatusCode::kInvalidArgument);
}

TEST(SessionTest, MaterializationIsDeterministicAndCached) {
  Session a(ElSchema());
  Session b(ElSchema());
  base::Rng rng(7);
  std::vector<Fact> ops;
  for (int i = 0; i < 40; ++i) ops.push_back(RandomFact(rng, 5));
  for (const Fact& f : ops) {
    (void)*a.Assert(f);
    (void)*b.Assert(f);
  }
  Session::Snapshot sa = a.Materialize();
  Session::Snapshot sb = b.Materialize();
  // Same op sequence => bit-identical snapshots (constants interned in
  // first-occurrence order), not just equal fact sets.
  EXPECT_EQ(sa.instance->ToString(), sb.instance->ToString());
  EXPECT_TRUE(sa.instance->SameFactsAs(*sb.instance));
  // Unchanged generation => the same cached snapshot object.
  EXPECT_EQ(sa.instance.get(), a.Materialize().instance.get());
  (void)*a.Retract(ops[0]);
  EXPECT_NE(sa.instance.get(), a.Materialize().instance.get());
  // The old snapshot is still alive and unchanged (plans may pin it).
  EXPECT_EQ(sa.instance->ToString(), sb.instance->ToString());
}

TEST(SessionTest, IncrementalSnapshotsMatchRebuildUnderChurn) {
  Session session(ElSchema());
  base::Rng rng(404);
  std::vector<Fact> live;
  // A bulk to copy, then 500 single-fact flips: retracts of live facts
  // and asserts whose constants are often new to the session.
  for (int i = 0; i < 200; ++i) {
    Fact f = RandomFact(rng, 30);
    if (*session.Assert(f)) live.push_back(std::move(f));
  }
  ASSERT_NE(session.Materialize().instance, nullptr);
  int next_constant = 30;
  std::vector<std::pair<Session::Snapshot, std::string>> pinned;
  for (int flip = 0; flip < 500; ++flip) {
    if (!live.empty() && rng.Chance(1, 2)) {
      const std::size_t i = rng.Below(live.size());
      ASSERT_TRUE(*session.Retract(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      Fact f = RandomFact(rng, 30);
      if (rng.Chance(1, 3)) f.args[0] = "n" + std::to_string(next_constant++);
      if (!*session.Assert(f)) continue;
      live.push_back(std::move(f));
    }
    const Session::Snapshot snap = session.Materialize();
    Session rebuilt(ElSchema());
    for (const Fact& f : live) ASSERT_TRUE(*rebuilt.Assert(f));
    const data::Instance& fresh = *rebuilt.Materialize().instance;
    ASSERT_TRUE(snap.instance->SameFactsAs(fresh)) << "flip " << flip;
    ASSERT_TRUE(fresh.SameFactsAs(*snap.instance)) << "flip " << flip;
    EXPECT_EQ(snap.instance->NumFacts(), live.size());
    if (flip % 25 == 0) pinned.emplace_back(snap, snap.instance->ToString());
  }
  // Snapshots pinned by earlier generations never move.
  for (const auto& [snap, text] : pinned) {
    EXPECT_EQ(snap.instance->ToString(), text)
        << "generation " << snap.generation;
  }
}

// --- Prepared vs direct, across mutations, at every thread count ------------

class PreparedVsDirectTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PreparedVsDirectTest, BitIdenticalAnswersAcrossMutations) {
  const int seed = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  base::Rng rng(1000 * seed + threads);
  ddlog::Program program = RandomProgram(rng, seed % 2 == 0);
  ASSERT_TRUE(program.Validate().ok());

  PrepareOptions options;
  options.eval.threads = threads;
  auto prepared = PreparedQuery::FromProgram(program, options);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  Session session(ElSchema());
  std::vector<Fact> live;
  std::uint64_t queried_generation = 0;
  std::uint64_t queried_content = 0;
  bool ever_queried = false;
  for (int round = 0; round < 3; ++round) {
    // A batch of random mutations (asserts, and retracts of live facts).
    // Duplicate asserts are no-ops, so a batch may leave the generation
    // unchanged — then the first query below legitimately serves hot.
    const int muts = 1 + static_cast<int>(rng.Below(6));
    for (int m = 0; m < muts; ++m) {
      if (!live.empty() && rng.Chance(1, 4)) {
        const std::size_t i = rng.Below(live.size());
        ASSERT_TRUE(session.Retract(live[i]).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        Fact f = RandomFact(rng, 5);
        auto added = session.Assert(f);
        ASSERT_TRUE(added.ok());
        if (*added) live.push_back(std::move(f));
      }
    }
    // Two queries per round: the second must serve hot (no re-ground).
    ExecInfo info1, info2;
    auto a1 = (*prepared)->Execute(session, RequestBudget{}, &info1);
    ASSERT_TRUE(a1.ok()) << a1.status().ToString();
    auto a2 = (*prepared)->Execute(session, RequestBudget{}, &info2);
    ASSERT_TRUE(a2.ok()) << a2.status().ToString();
    const Session::Snapshot snap = session.Materialize();
    const bool data_changed =
        !ever_queried || snap.generation != queried_generation;
    const bool content_changed =
        !ever_queried || snap.content_hash != queried_content;
    if (!ever_queried) {
      EXPECT_TRUE(info1.grounded);  // cold: the first query must ground
      EXPECT_FALSE(info1.delta);
    } else if (!data_changed || !content_changed) {
      // Unchanged data (or a content round-trip): served straight from
      // the pinned grounding, no grounding work of any kind.
      EXPECT_FALSE(info1.grounded);
      EXPECT_FALSE(info1.delta);
    } else {
      // A real mutation is absorbed either by an incremental delta patch
      // or by a full re-ground — never served stale.
      EXPECT_TRUE(info1.grounded || info1.delta);
    }
    ever_queried = true;
    queried_generation = snap.generation;
    queried_content = snap.content_hash;
    EXPECT_FALSE(info2.grounded);
    EXPECT_FALSE(info2.delta);
    EXPECT_EQ(info1.fingerprint, info2.fingerprint);
    EXPECT_EQ(a1->tuples, a2->tuples);
    EXPECT_EQ(a1->inconsistent, a2->inconsistent);

    // Fresh engine run on the same snapshot: bit-identical.
    ddlog::EvalOptions fresh_options;
    fresh_options.threads = threads;
    auto fresh = ddlog::CertainAnswers(
        program, *session.Materialize().instance, fresh_options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(a1->tuples, fresh->tuples)
        << "seed " << seed << " threads " << threads << " round " << round
        << "\nprogram:\n" << program.ToString();
    EXPECT_EQ(a1->inconsistent, fresh->inconsistent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PreparedVsDirectTest,
    ::testing::Combine(::testing::Range(0, 50), ::testing::Values(1, 2, 8)));

TEST(PreparedQueryTest, DeltaPatchesAbsorbSmallMutations) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().ResetAll();
  obs::Counter& regrounds = obs::GetCounter("ddlog.regrounds");
  obs::Counter& delta_grounds = obs::GetCounter("ddlog.delta_grounds");

  base::Rng rng(3);
  ddlog::Program program = RandomProgram(rng, false);
  auto prepared = PreparedQuery::FromProgram(program, PrepareOptions());
  ASSERT_TRUE(prepared.ok());
  Session session(ElSchema());
  ASSERT_TRUE(session.Assert(Fact{"E", {"a", "b"}}).ok());
  ASSERT_TRUE(session.Assert(Fact{"L", {"a"}}).ok());

  ExecInfo info;
  ASSERT_TRUE((*prepared)->Execute(session, RequestBudget{}, &info).ok());
  const ddlog::GroundingFingerprint first = info.fingerprint;
  EXPECT_TRUE(info.grounded);          // cold: first grounding
  EXPECT_FALSE(info.delta);
  EXPECT_EQ(regrounds.value(), 0u);    // ... is not a RE-ground
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*prepared)->Execute(session, RequestBudget{}, &info).ok());
    EXPECT_FALSE(info.grounded);
    EXPECT_FALSE(info.delta);
    EXPECT_EQ(regrounds.value(), 0u);  // steady state: zero re-grounds
  }
  // A small mutation is absorbed by an incremental delta patch, never a
  // full re-ground; the patched grounding covers different data, so its
  // fingerprint moves.
  ASSERT_TRUE(session.Assert(Fact{"L", {"b"}}).ok());
  ASSERT_TRUE((*prepared)->Execute(session, RequestBudget{}, &info).ok());
  EXPECT_FALSE(info.grounded);
  EXPECT_TRUE(info.delta);
  EXPECT_EQ(regrounds.value(), 0u);
  EXPECT_EQ(delta_grounds.value(), 1u);
  EXPECT_NE(first, info.fingerprint);
  // Retracting it is again a delta patch: the pinned grounding has moved
  // on, so from its point of view this is not a content round-trip.
  ASSERT_TRUE(session.Retract(Fact{"L", {"b"}}).ok());
  ASSERT_TRUE((*prepared)->Execute(session, RequestBudget{}, &info).ok());
  EXPECT_FALSE(info.grounded);
  EXPECT_TRUE(info.delta);
  EXPECT_EQ(regrounds.value(), 0u);
  EXPECT_EQ(delta_grounds.value(), 2u);
  EXPECT_EQ((*prepared)->stats().delta_grounds.load(), 2u);
  obs::EnableMetrics(false);
}

TEST(PreparedQueryTest, ContentFingerprintRoundTripServesHot) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().ResetAll();
  obs::Counter& regrounds = obs::GetCounter("ddlog.regrounds");

  base::Rng rng(3);
  ddlog::Program program = RandomProgram(rng, false);
  auto prepared = PreparedQuery::FromProgram(program, PrepareOptions());
  ASSERT_TRUE(prepared.ok());
  Session session(ElSchema());
  ASSERT_TRUE(session.Assert(Fact{"E", {"a", "b"}}).ok());
  ASSERT_TRUE(session.Assert(Fact{"L", {"a"}}).ok());

  ExecInfo info;
  auto a1 = (*prepared)->Execute(session, RequestBudget{}, &info);
  ASSERT_TRUE(a1.ok());
  const ddlog::GroundingFingerprint first = info.fingerprint;
  const std::uint64_t gen = session.generation();

  // Mutate and mutate back WITHOUT querying in between: the generation
  // moves by two but the fact-set content fingerprint round-trips, so the
  // next query recognizes the identical fact set and serves straight from
  // the pinned grounding — no re-ground, no delta patch, and the very
  // same fingerprint.
  ASSERT_TRUE(session.Assert(Fact{"L", {"b"}}).ok());
  ASSERT_TRUE(session.Retract(Fact{"L", {"b"}}).ok());
  EXPECT_EQ(session.generation(), gen + 2);
  auto a2 = (*prepared)->Execute(session, RequestBudget{}, &info);
  ASSERT_TRUE(a2.ok());
  EXPECT_FALSE(info.grounded);
  EXPECT_FALSE(info.delta);
  EXPECT_EQ(info.generation, gen + 2);
  EXPECT_EQ(first, info.fingerprint);
  EXPECT_EQ(a1->tuples, a2->tuples);
  EXPECT_EQ(a1->inconsistent, a2->inconsistent);
  EXPECT_EQ(regrounds.value(), 0u);
  EXPECT_EQ((*prepared)->stats().delta_grounds.load(), 0u);
  EXPECT_EQ((*prepared)->stats().hot_hits.load(), 1u);
  obs::EnableMetrics(false);
}

TEST(PreparedQueryTest, BudgetExhaustionIsPerRequest) {
  base::Rng rng(11);
  ddlog::Program program = RandomProgram(rng, false);
  auto prepared = PreparedQuery::FromProgram(program, PrepareOptions());
  ASSERT_TRUE(prepared.ok());
  Session session(ElSchema());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(session.Assert(RandomFact(rng, 6)).ok());
  }
  // An absurdly small budget fails the request...
  auto starved =
      (*prepared)->Execute(session, RequestBudget{/*max_decisions=*/1});
  if (!starved.ok()) {
    EXPECT_EQ(starved.status().code(), base::StatusCode::kResourceExhausted);
  }
  // ... but the next request re-arms the budget and succeeds, on the
  // same warmed grounding.
  auto fine = (*prepared)->Execute(session, RequestBudget{});
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  auto fresh = ddlog::CertainAnswers(program,
                                     *session.Materialize().instance);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fine->tuples, fresh->tuples);
}

// --- Plan selection ---------------------------------------------------------

TEST(PlanSelectionTest, RewritableOmqTakesDatalogPlanAndPlansAgree) {
  auto ontology =
      dl::ParseOntology("LymeDisease | Listeriosis [= BacterialInfection");
  ASSERT_TRUE(ontology.ok());
  Schema s;
  s.AddRelation("LymeDisease", 1);
  s.AddRelation("Listeriosis", 1);
  auto omq = core::OntologyMediatedQuery::WithAtomicQuery(
      s, *ontology, "BacterialInfection");
  ASSERT_TRUE(omq.ok());

  // The cost-based planner prefers the FO tier for this query; force the
  // datalog tier to pin the canonical-datalog plan under test.
  auto auto_plan = PreparedQuery::FromOmq(*omq, PrepareOptions());
  ASSERT_TRUE(auto_plan.ok()) << auto_plan.status().ToString();
  EXPECT_EQ((*auto_plan)->plan(), PlanKind::kFoRewriting);

  PrepareOptions datalog_only;
  datalog_only.planner.force = PlanTier::kDatalog;
  auto rewriting = PreparedQuery::FromOmq(*omq, datalog_only);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
  EXPECT_EQ((*rewriting)->plan(), PlanKind::kDatalogRewriting);

  PrepareOptions sat_only;
  sat_only.allow_rewriting = false;
  auto sat = PreparedQuery::FromOmq(*omq, sat_only);
  ASSERT_TRUE(sat.ok()) << sat.status().ToString();
  EXPECT_EQ((*sat)->plan(), PlanKind::kSatGrounding);
  EXPECT_EQ((*sat)->tier(), PlanTier::kSat);

  Session ra(s), rb(s);
  base::Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    const std::string c = "p" + std::to_string(rng.Below(4));
    const Fact f{rng.Chance(1, 2) ? "LymeDisease" : "Listeriosis", {c}};
    ASSERT_TRUE(ra.Assert(f).ok());
    ASSERT_TRUE(rb.Assert(f).ok());
    ExecInfo ia, ib;
    auto aa = (*rewriting)->Execute(ra, RequestBudget{}, &ia);
    auto ab = (*sat)->Execute(rb, RequestBudget{}, &ib);
    ASSERT_TRUE(aa.ok()) << aa.status().ToString();
    ASSERT_TRUE(ab.ok()) << ab.status().ToString();
    // The two plans answer over identically-materialized snapshots, so
    // raw ConstId tuples must agree bit-for-bit.
    EXPECT_EQ(aa->tuples, ab->tuples) << "round " << round;
    EXPECT_FALSE(ia.grounded);  // rewriting plan never grounds
  }
}

TEST(PlanSelectionTest, NonRewritableOmqFallsBackToSat) {
  // coCSP(K3) — 3-colorability complement — is neither FO- nor
  // datalog-rewritable (paper Example 5.2), so the SAT plan must be
  // selected even with rewriting allowed.
  auto omq = core::CspToOmq(data::Clique("E", 3));
  ASSERT_TRUE(omq.ok()) << omq.status().ToString();
  auto prepared = PreparedQuery::FromOmq(*omq, PrepareOptions());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->plan(), PlanKind::kSatGrounding);

  Session session(omq->data_schema());
  ASSERT_TRUE(session.Assert(Fact{"E", {"a", "b"}}).ok());
  ASSERT_TRUE(session.Assert(Fact{"E", {"b", "a"}}).ok());
  auto answers = (*prepared)->Execute(session, RequestBudget{});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // A single undirected edge is 3-colorable: no certain "no-coloring".
  EXPECT_TRUE(answers->tuples.empty());
}

// --- LRU cache --------------------------------------------------------------

TEST(PreparedCacheTest, EvictsLeastRecentlyUsed) {
  PreparedCache cache(2);
  base::Rng rng(1);
  auto make = [&] {
    auto q = PreparedQuery::FromProgram(RandomProgram(rng, false),
                                        PrepareOptions());
    OBDA_CHECK(q.ok());
    return *q;
  };
  const CacheKey k1{1, 1, 0}, k2{2, 2, 0}, k3{3, 3, 0};
  cache.Insert(k1, make());
  cache.Insert(k2, make());
  EXPECT_EQ(cache.size(), 2u);
  // Touch k1 so k2 becomes the LRU entry, then overflow.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, make());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(k3), nullptr);

  // Re-inserting an existing key refreshes, never grows.
  cache.Insert(k3, make());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PreparedCacheTest, HitMissEvictionCounters) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Global().ResetAll();
  PreparedCache cache(1);
  base::Rng rng(2);
  auto q = PreparedQuery::FromProgram(RandomProgram(rng, false),
                                      PrepareOptions());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(cache.Lookup(CacheKey{1, 1, 0}), nullptr);
  cache.Insert(CacheKey{1, 1, 0}, *q);
  EXPECT_NE(cache.Lookup(CacheKey{1, 1, 0}), nullptr);
  cache.Insert(CacheKey{2, 2, 0}, *q);  // evicts {1,1,0}
  EXPECT_EQ(obs::GetCounter("serve.cache_misses").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.cache_hits").value(), 1u);
  EXPECT_EQ(obs::GetCounter("serve.cache_evictions").value(), 1u);
  obs::EnableMetrics(false);
}

// --- Scheduler: admission control, deterministic shedding -------------------

/// A gate the test holds closed while it stuffs the queue.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(SchedulerTest, ShedsDeterministicallyWhenQueueFull) {
  Scheduler::Options options;
  options.threads = 2;
  options.max_queue = 2;
  Scheduler scheduler(options);
  Gate gate;
  std::vector<int> ran;
  std::mutex ran_mu;

  // Blocker occupies session 1's (only) lane; wait until it *runs* so
  // the backlog count below is exact.
  ASSERT_TRUE(scheduler
                  .Submit(1, Scheduler::Task{[&] { gate.Enter(); }, nullptr})
                  .ok());
  gate.WaitEntered();
  ASSERT_EQ(scheduler.pending(), 0u);

  auto record = [&](int id) {
    return Scheduler::Task{[&ran, &ran_mu, id] {
                             std::lock_guard<std::mutex> lock(ran_mu);
                             ran.push_back(id);
                           },
                           nullptr};
  };
  ASSERT_TRUE(scheduler.Submit(1, record(1)).ok());
  ASSERT_TRUE(scheduler.Submit(1, record(2)).ok());
  // Queue now at max_queue=2: the next submit is shed, deterministically.
  base::Status shed = scheduler.Submit(1, record(3));
  EXPECT_EQ(shed.code(), base::StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.pending(), 2u);

  gate.Open();
  scheduler.Drain();
  // FIFO order within the session; the shed task never ran.
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, ExpiredDeadlineSkipsRunAndCallsExpired) {
  Scheduler::Options options;
  options.threads = 2;
  options.max_queue = 8;
  Scheduler scheduler(options);
  Gate gate;
  std::atomic<int> ran{0}, expired{0};

  ASSERT_TRUE(scheduler
                  .Submit(7, Scheduler::Task{[&] { gate.Enter(); }, nullptr})
                  .ok());
  gate.WaitEntered();
  // Queued behind the blocker with a deadline already in the past: by
  // dequeue time it has deterministically expired.
  ASSERT_TRUE(scheduler
                  .Submit(7,
                          Scheduler::Task{[&] { ran.fetch_add(1); },
                                          [&] { expired.fetch_add(1); }},
                          std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1))
                  .ok());
  // A later task with no deadline still runs: expiry is per-request.
  ASSERT_TRUE(
      scheduler.Submit(7, Scheduler::Task{[&] { ran.fetch_add(1); }, nullptr})
          .ok());
  gate.Open();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(expired.load(), 1);
}

TEST(SchedulerTest, DistinctSessionsRunConcurrently) {
  Scheduler::Options options;
  options.threads = 4;
  options.max_queue = 16;
  Scheduler scheduler(options);
  // Two sessions whose tasks each wait for the other to start: only
  // cross-session parallelism lets this drain.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return started >= 2; });
  };
  ASSERT_TRUE(scheduler.Submit(1, Scheduler::Task{rendezvous, nullptr}).ok());
  ASSERT_TRUE(scheduler.Submit(2, Scheduler::Task{rendezvous, nullptr}).ok());
  scheduler.Drain();
  EXPECT_EQ(started, 2);
}

// --- Concurrent sessions against one shared artifact (tsan fodder) ----------

TEST(ConcurrencyTest, SessionsShareOnePreparedQueryRaceFree) {
  base::Rng seed_rng(17);
  ddlog::Program program = RandomProgram(seed_rng, false);
  PrepareOptions options;
  options.eval.threads = 1;  // per-probe parallelism off; session-level on
  auto prepared = PreparedQuery::FromProgram(program, options);
  ASSERT_TRUE(prepared.ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      base::Rng rng(100 + t);
      Session session(ElSchema());
      for (int round = 0; round < 4; ++round) {
        for (int m = 0; m < 3; ++m) {
          if (!session.Assert(RandomFact(rng, 4)).ok()) failures.fetch_add(1);
        }
        auto answers = (*prepared)->Execute(session, RequestBudget{});
        if (!answers.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto fresh = ddlog::CertainAnswers(
            program, *session.Materialize().instance);
        if (!fresh.ok() || answers->tuples != fresh->tuples) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Server protocol end to end ---------------------------------------------

TEST(ServerTest, ProtocolSessionEndToEnd) {
  Server server;
  auto client = server.NewClient();
  EXPECT_EQ(client->HandleLine(""), "");
  EXPECT_EQ(client->HandleLine("# comment"), "");
  EXPECT_EQ(client->HandleLine("SCHEMA LymeDisease/1 Listeriosis/1"),
            "OK relations=2\n");
  EXPECT_EQ(client->HandleLine(
                "ONTOLOGY LymeDisease | Listeriosis [= BacterialInfection"),
            "OK axioms=1 language=ALC\n");
  // The planner certifies this UCQ-rewritable OMQ FO-rewritable and the
  // cost model makes the FO tier the cheapest admissible plan.
  EXPECT_EQ(client->HandleLine("PREPARE q AQ BacterialInfection"),
            "OK plan=fo_rewriting tier=fo cached=0 arity=1\n");
  EXPECT_EQ(client->HandleLine("ASSERT LymeDisease(ann), Listeriosis(bob)"),
            "OK added=2 generation=2\n");
  EXPECT_EQ(client->HandleLine("QUERY q"),
            "(ann)\n(bob)\nOK n=2 plan=fo_rewriting generation=2 "
            "grounded=1 delta=0\n");
  EXPECT_EQ(client->HandleLine("RETRACT Listeriosis(bob)"),
            "OK removed=1 generation=3\n");
  EXPECT_EQ(client->HandleLine("QUERY q"),
            "(ann)\nOK n=1 plan=fo_rewriting generation=3 grounded=1 "
            "delta=0\n");

  // The forced-SAT plan must agree on the same data.
  EXPECT_EQ(client->HandleLine("PREPARE qsat SAT AQ BacterialInfection"),
            "OK plan=sat_grounding tier=sat cached=0 arity=1\n");
  EXPECT_EQ(client->HandleLine("QUERY qsat"),
            "(ann)\nOK n=1 plan=sat_grounding generation=3 grounded=1 "
            "delta=0\n");
  EXPECT_EQ(client->HandleLine("QUERY qsat"),
            "(ann)\nOK n=1 plan=sat_grounding generation=3 grounded=0 "
            "delta=0\n");

  // A second client preparing the same query hits the shared cache.
  auto other = server.NewClient();
  EXPECT_EQ(other->HandleLine("SCHEMA LymeDisease/1 Listeriosis/1"),
            "OK relations=2\n");
  EXPECT_EQ(other->HandleLine(
                "ONTOLOGY LymeDisease | Listeriosis [= BacterialInfection"),
            "OK axioms=1 language=ALC\n");
  EXPECT_EQ(other->HandleLine("PREPARE q AQ BacterialInfection"),
            "OK plan=fo_rewriting tier=fo cached=1 arity=1\n");
  // ... and its data stays isolated from the first client's.
  EXPECT_EQ(other->HandleLine("QUERY q"),
            "OK n=0 plan=fo_rewriting generation=0 grounded=1 delta=0\n");

  EXPECT_EQ(client->HandleLine("QUERY nosuch"),
            "ERR NOT_FOUND: no prepared query named nosuch\n");
  EXPECT_EQ(client->HandleLine("BOGUS"),
            "ERR INVALID_ARGUMENT: unknown command BOGUS\n");
  EXPECT_EQ(client->HandleLine("QUIT"), "OK bye\n");
  EXPECT_TRUE(client->quit());
}

TEST(ServerTest, StatsReturnsMetricsJson) {
  Server server;
  auto client = server.NewClient();
  const std::string stats = client->HandleLine("STATS");
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats.substr(0, 13), "{\"counters\": ");
  EXPECT_TRUE(stats.ends_with("}\nOK\n")) << stats;
  // The snapshot carries the histogram section with quantile estimates
  // for the scheduler's latency distributions.
  EXPECT_NE(stats.find("\"histograms\": "), std::string::npos);
  EXPECT_NE(stats.find("\"serve.queue_wait\": {\"count\": "),
            std::string::npos);
  EXPECT_NE(stats.find("\"serve.execute_wall\": {\"count\": "),
            std::string::npos);
  EXPECT_NE(stats.find("\"p99_ms\": "), std::string::npos);
}

TEST(ServerTest, StatsKeysListsRegisteredNames) {
  Server server;
  auto client = server.NewClient();
  const std::string keys = client->HandleLine("STATS KEYS");
  // One `<kind> <name>` line per registered metric; the scheduler
  // registers its histograms eagerly so the key set is stable from the
  // first command on (the smoke golden pins it).
  EXPECT_NE(keys.find("histogram serve.queue_wait\n"), std::string::npos);
  EXPECT_NE(keys.find("histogram serve.execute_wall\n"), std::string::npos);
  EXPECT_NE(keys.find(" histograms="), std::string::npos);
  EXPECT_TRUE(keys.find("OK counters=") != std::string::npos) << keys;
  // A second call returns the identical key set (values may move, names
  // may not vanish).
  EXPECT_EQ(keys, client->HandleLine("STATS KEYS"));
}

TEST(ServerTest, StatsQueryReportsPerQueryCounters) {
  Server server;
  auto client = server.NewClient();
  ASSERT_EQ(client->HandleLine("SCHEMA LymeDisease/1 Listeriosis/1"),
            "OK relations=2\n");
  ASSERT_EQ(client->HandleLine(
                "ONTOLOGY LymeDisease | Listeriosis [= BacterialInfection"),
            "OK axioms=1 language=ALC\n");
  ASSERT_EQ(client->HandleLine("PREPARE q SAT AQ BacterialInfection"),
            "OK plan=sat_grounding tier=sat cached=0 arity=1\n");
  ASSERT_EQ(client->HandleLine("ASSERT LymeDisease(ann)"),
            "OK added=1 generation=1\n");
  client->HandleLine("QUERY q");  // grounds
  client->HandleLine("QUERY q");  // hot
  client->HandleLine("QUERY q");  // hot
  const std::string stats = client->HandleLine("STATS QUERY q");
  EXPECT_NE(stats.find("\"plan\": \"sat_grounding\""), std::string::npos);
  EXPECT_NE(stats.find("\"arity\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"execs\": 3"), std::string::npos);
  EXPECT_NE(stats.find("\"grounds\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"hot_hits\": 2"), std::string::npos);
  // Per-query latency renders through the shared histogram formatter.
  EXPECT_NE(stats.find("\"latency\": {\"count\": 3"), std::string::npos);
  EXPECT_NE(stats.find("\"p95_ms\": "), std::string::npos);
  EXPECT_TRUE(stats.ends_with("OK name=q cached=0\n")) << stats;

  EXPECT_EQ(client->HandleLine("STATS QUERY nosuch"),
            "ERR NOT_FOUND: no prepared query named nosuch\n");
  EXPECT_EQ(client->HandleLine("STATS BOGUS"),
            "ERR INVALID_ARGUMENT: usage: STATS | STATS KEYS | "
            "STATS QUERY <name>\n");
}

TEST(ServerTest, TraceDumpReturnsChromeTraceJson) {
  Server server;
  auto client = server.NewClient();
  ASSERT_EQ(client->HandleLine("SCHEMA LymeDisease/1"), "OK relations=1\n");
  ASSERT_EQ(client->HandleLine("ONTOLOGY LymeDisease [= Infection"),
            "OK axioms=1 language=ALC\n");
  ASSERT_EQ(client->HandleLine("PREPARE q AQ Infection"),
            "OK plan=fo_rewriting tier=fo cached=0 arity=1\n");
  ASSERT_EQ(client->HandleLine("ASSERT LymeDisease(ann)"),
            "OK added=1 generation=1\n");
  client->HandleLine("QUERY q");
  const std::string dump = client->HandleLine("TRACE DUMP");
  // Chrome trace-event JSON with the scheduler's serve.task span, tagged
  // with the minted request id.
  EXPECT_EQ(dump.rfind("{\"traceEvents\": [", 0), 0u) << dump;
  EXPECT_NE(dump.find("\"name\": \"serve.task\""), std::string::npos);
  EXPECT_NE(dump.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(dump.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(dump.find("\"request_id\": 1"), std::string::npos);
  EXPECT_NE(dump.find("\nOK events="), std::string::npos);
  EXPECT_EQ(client->HandleLine("TRACE BOGUS"),
            "ERR INVALID_ARGUMENT: usage: TRACE DUMP\n");
}

}  // namespace
}  // namespace obda::serve
