// Fast checks of the benchmark's own logic (no timing involved):
//  1. an injected wrong answer is caught by the oracle check, once per
//     time it was given;
//  2. the tail rule picks the highest percentile with at least ten
//     samples beyond it, and percentiles are nearest-rank;
//  3. self time is a span's duration minus the union of its children;
//  4. the traced replay answers exactly like HandleLine (equal digests);
//  5. a full latency reservoir keeps a fixed-size sample of the stream.
//
// Run: python3 obdabench/run.py --selftest   (exit code 0 = all pass)

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/hash.h"
#include "corpus.h"
#include "ops.h"
#include "oracle.h"
#include "replay.h"
#include "serve/server.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using obdabench::OmqSpec;

/// Small corpus items of each cheap family (no conp_aq / K4).
std::vector<OmqSpec> SmallSpecs() {
  std::vector<OmqSpec> out;
  for (const OmqSpec& spec : obdabench::ColdCorpus(5, 0)) {
    if (spec.family == "conp_aq" || spec.family == "k4") continue;
    bool seen = false;
    for (const OmqSpec& o : out) seen = seen || o.family == spec.family;
    if (!seen) out.push_back(spec);
  }
  return out;
}

std::vector<std::string> ItemScript(const OmqSpec& spec) {
  std::vector<std::string> lines = {"SCHEMA " + spec.schema};
  if (!spec.ontology.empty()) lines.push_back("ONTOLOGY " + spec.ontology);
  lines.push_back(obdabench::FactsLine("ASSERT", spec.facts));
  lines.push_back(obdabench::PrepareLine("q", spec));
  lines.push_back("QUERY q");
  lines.push_back(obdabench::FactsLine("ASSERT", {spec.extra.at(0)}));
  lines.push_back("QUERY q");
  return lines;
}

void TestWrongAnswerCaught() {
  const std::vector<OmqSpec> specs = SmallSpecs();
  obda::serve::Server server;
  // responses[i][state]: the first QUERY runs on the base facts (state 0),
  // the second after the extra fact (state 1).
  std::vector<std::vector<std::string>> responses(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto client = server.NewClient();
    for (const std::string& line : ItemScript(specs[i])) {
      const std::string response = client->HandleLine(line);
      if (line == "QUERY q") responses[i].push_back(response);
    }
  }
  const obdabench::SnapshotFn snapshot = [&](int client, int state) {
    std::vector<obda::data::Fact> facts = specs[client].facts;
    if (state == 1) facts.push_back(specs[client].extra[0]);
    return obdabench::Snapshot(*obdabench::ParseSchema(specs[client].schema),
                               facts);
  };
  // Logs every response twice, as a script revisiting a data state does;
  // `edit(spec, state, copy, &response)` may change what is logged.
  using Edit = std::function<void(std::size_t, int, int, std::string*)>;
  auto check = [&](const Edit& edit, std::uint64_t* digest = nullptr) {
    std::vector<obdabench::AnswerLog> logs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      logs.emplace_back(static_cast<int>(i));
      for (int copy = 0; copy < 2; ++copy) {
        for (int state = 0; state < 2; ++state) {
          std::string response = responses[i].at(state);
          edit(i, state, copy, &response);
          logs.back().Add(static_cast<int>(i), state, copy == 0, response);
        }
      }
    }
    obdabench::AnswerMemo memo;
    std::vector<std::string> problems;
    std::size_t mismatches = 0;
    const std::uint64_t d = obdabench::CheckAnswers(
        logs, specs, snapshot, &memo, "selftest", &problems, &mismatches);
    if (digest != nullptr) *digest = d;
    return mismatches;
  };
  const Edit none = [](std::size_t, int, int, std::string*) {};
  std::uint64_t digest = 0, edited_digest = 0;
  Expect(check(none, &digest) == 0,
         "server answers match the oracle on " +
             std::to_string(4 * specs.size()) + " queries");
  Expect(check([](std::size_t i, int state, int copy, std::string* r) {
           if (i == 0 && state == 0 && copy == 1) {
             *r = "(not_an_answer)\n" + *r;
           }
         }) == 1,
         "an injected extra answer is caught");
  Expect(check([](std::size_t i, int state, int copy, std::string* r) {
           if (i == 1 && state == 1 && copy == 1) {
             *r = r->substr(r->find('\n') + 1);
           }
         }) == 1,
         "a dropped answer line is caught");
  Expect(check(
             [](std::size_t i, int state, int, std::string* r) {
               if (i == 2 && state == 0) *r = "(not_an_answer)\n" + *r;
             },
             &edited_digest) == 2 &&
             edited_digest != digest,
         "a wrong answer given twice counts twice and changes the digest");
  Expect(check([](std::size_t i, int state, int copy, std::string* r) {
           if (i == 0 && state == 0 && copy == 1) *r = r->substr(0, r->rfind("OK"));
         }) == 1,
         "a response without its OK line is caught");

  // More distinct responses for one (query, state) than the log keeps.
  std::vector<obdabench::AnswerLog> logs;
  logs.emplace_back(0);
  logs[0].Add(0, 0, false, responses[0][0]);
  for (int k = 0; k < 5; ++k) {
    logs[0].Add(0, 0, false, "(bogus" + std::to_string(k) + ")\nOK\n");
  }
  obdabench::AnswerMemo memo;
  std::vector<std::string> problems;
  std::size_t mismatches = 0;
  obdabench::CheckAnswers(logs, specs, snapshot, &memo, "selftest", &problems,
                          &mismatches);
  Expect(logs[0].overflow() == 2 && mismatches == 5,
         "responses beyond the kept variants count as wrong");
}

void TestReservoir() {
  obdabench::Reservoir r(100, 7);
  for (int i = 0; i < 100; ++i) r.Add(i);
  Expect(r.values().size() == 100 && r.seen() == 100 && r.values()[99] == 99,
         "a reservoir keeps every value up to its capacity");
  for (int i = 100; i < 100'000; ++i) r.Add(i);
  const double median = obdabench::Median(r.values());
  Expect(r.values().size() == 100 && r.seen() == 100'000,
         "a full reservoir keeps its capacity and counts every value");
  Expect(median > 35'000 && median < 65'000,
         "a full reservoir samples the whole stream (median " +
             std::to_string(median) + " of 0..99999)");
}

void TestTail() {
  using obdabench::SupportedTail;
  Expect(SupportedTail(1000) == 990, "n=1000 supports p99");
  Expect(SupportedTail(999) == 950, "n=999 falls back to p95");
  Expect(SupportedTail(10000) == 999, "n=10000 supports p99.9");
  Expect(SupportedTail(200) == 950, "n=200 supports p95");
  Expect(SupportedTail(199) == 900, "n=199 falls back to p90");
  Expect(SupportedTail(100) == 900, "n=100 supports p90");
  Expect(SupportedTail(20) == 500 && SupportedTail(19) == 0,
         "n=20 supports only p50, n=19 nothing");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(obdabench::Percentile(v, 990) == 990 &&
             obdabench::SamplesBeyond(v.size(), 990) == 10,
         "nearest-rank p99 of 1..1000 is 990 with 10 samples beyond");
  Expect(obdabench::Median({3, 1, 2}) == 2, "median of {3,1,2} is 2");
}

void TestSelfTime() {
  using obdabench::Span;
  auto span = [](std::uint32_t id, std::uint32_t parent, std::int64_t a,
                 std::int64_t b) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.start_ns = a;
    s.end_ns = b;
    return s;
  };
  // Root [0,100]; children [10,30] and [20,50] overlap (union 40) and
  // [90,120] sticks out of the root (10 inside); the grandchild [12,14]
  // belongs to child 2 and must not count against the root.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 50), span(4, 1, 90, 120),
                                   span(5, 2, 12, 14)};
  const std::vector<std::int64_t> self = obdabench::SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - |[10,50] u [90,100]| = 50");
  Expect(self[1] == 18, "child self = 20 - grandchild 2 = 18");
  Expect(self[3] == 30 && self[4] == 2, "leaves keep their duration");
}

void TestReplayDigest() {
  const std::vector<OmqSpec> specs = SmallSpecs();
  obda::serve::Server server;
  obda::serve::Server replay_server;
  obdabench::SpanLog log;
  std::uint64_t plain = obda::base::kFnvOffsetBasis;
  std::uint64_t traced = obda::base::kFnvOffsetBasis;
  std::uint64_t op = 0;
  bool all_ok = true;
  for (const OmqSpec& spec : specs) {
    auto client = server.NewClient();
    obdabench::Replayer replayer(replay_server, log, 0);
    for (const std::string& text : ItemScript(spec)) {
      obdabench::Line line;
      line.text = text;
      line.verb = text == "QUERY q" ? obdabench::Verb::kQuery
                                    : obdabench::Verb::kSetup;
      const auto a = obdabench::CanonicalAnswers(client->HandleLine(text));
      const auto b = obdabench::CanonicalAnswers(replayer.Run(line, ++op));
      all_ok = all_ok && a.has_value() && b.has_value();
      if (line.verb != obdabench::Verb::kQuery || !a || !b) continue;
      plain = obda::base::Fnv1a(*a, plain);
      traced = obda::base::Fnv1a(*b, traced);
    }
  }
  Expect(all_ok, "every line succeeds both ways");
  Expect(plain == traced, "traced replay digest equals the HandleLine digest");
  const std::vector<obdabench::Span> spans = log.Take();
  bool has_execute = false;
  for (const obdabench::Span& s : spans) {
    has_execute = has_execute ||
                  std::string(s.name).rfind("prepared.execute", 0) == 0;
  }
  Expect(has_execute, "the replay records Execute spans");
}

}  // namespace

int main() {
  TestTail();
  TestSelfTime();
  TestReservoir();
  TestWrongAnswerCaught();
  TestReplayDigest();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
