#ifndef OBDABENCH_OPS_H_
#define OBDABENCH_OPS_H_

// One protocol line of a workload script, and the per-client bookkeeping
// that turns timed lines into the end-to-end samples.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace obdabench {

enum class Verb {
  kSetup,    // untimed session set-up (SCHEMA / ONTOLOGY / bulk ASSERT)
  kAux,      // timed, but no latency metric of its own (ONTOLOGY switch)
  kPrepare,  // PREPARE
  kQuery,    // QUERY
  kMutate,   // single-fact ASSERT / RETRACT
};

struct Line {
  std::string text;
  Verb verb = Verb::kSetup;
  /// Name slot a PREPARE binds or a QUERY reads.
  int slot = -1;
  /// Spec the PREPARE binds / the QUERY answers (index into the
  /// workload's spec list).
  int omq = -1;
  /// Data state a QUERY runs against (the oracle's key, with `omq`).
  int state = 0;
  /// PREPARE: the server must compile (cached=0) — or must not (cached=1).
  bool expect_cold = false;
  /// QUERY: part of the deterministic prefix the answer digest covers.
  bool digest = false;
};

/// The QUERY responses of one client, kept for the oracle check after
/// the run in memory that does not grow with the number of QUERYs: each
/// distinct response per (omq, state) once, with its count, and the order
/// of the responses in the deterministic digest prefix. A response is
/// kept without the info after the OK of its terminator line.
class AnswerLog {
 public:
  /// Distinct responses kept per (omq, state). A correct run has one;
  /// responses beyond this many distinct ones are only counted.
  static constexpr std::size_t kMaxVariants = 4;
  struct Variant {
    std::string response;
    std::size_t count = 0;
  };
  using Key = std::pair<int, int>;  // (omq, state)

  explicit AnswerLog(int client) : client_(client) {}
  void Add(int omq, int state, bool digest, const std::string& response);

  int client() const { return client_; }
  const std::map<Key, std::vector<Variant>>& variants() const {
    return variants_;
  }
  /// (key, variant index) of each digest-prefix QUERY, in order.
  const std::vector<std::pair<Key, std::size_t>>& digest_order() const {
    return digest_order_;
  }
  /// Responses that were not kept because their key already had
  /// kMaxVariants distinct ones; they count as wrong.
  std::size_t overflow() const { return overflow_; }

 private:
  int client_;
  std::map<Key, std::vector<Variant>> variants_;
  std::vector<std::pair<Key, std::size_t>> digest_order_;
  std::size_t overflow_ = 0;
};

/// End-to-end samples of a workload's timed lines (milliseconds), shared
/// by its clients. Each kind is a fixed-size uniform sample, so the
/// memory it takes does not grow with throughput.
struct Samples {
  static constexpr std::size_t kQueryCapacity = 1 << 16;
  static constexpr std::size_t kOtherCapacity = 1 << 14;
  Samples(std::size_t query_capacity = kQueryCapacity,
          std::size_t other_capacity = kOtherCapacity);

  Reservoir query_ms, ttfa_ms, reprepare_ms, fresh_ms;
  /// Summed latency of every timed line.
  double timed_ms = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t hot_queries = 0;
  std::vector<std::string> errors;  // the first few, for the report
  /// Guards everything above: the clients of a workload file into one
  /// Samples.
  std::mutex mu;
};

/// Runs lines through `exec` (HandleLine, or the traced replay), times
/// the timed ones and files their samples:
///  - QUERY: query_ms; closes a pending PREPARE on its slot (ttfa_ms) and
///    a pending mutation (fresh_ms); its response goes to the AnswerLog;
///  - PREPARE: reprepare_ms when it must be served from cache or store;
///    opens a ttfa interval on its slot;
///  - mutation: opens a fresh interval.
/// An ERR response, or a PREPARE whose cached= flag contradicts the
/// script, counts as failed. One OpTimer per client.
class OpTimer {
 public:
  using Exec = std::function<std::string(const Line&)>;
  OpTimer(Samples* samples, AnswerLog* answers)
      : samples_(samples), answers_(answers) {}

  /// Returns the response text.
  std::string Run(const Line& line, const Exec& exec);

  /// The last Run's line latency, and the time-to-first-answer / fresh
  /// interval it closed (-1 when it closed none).
  double last_ms() const { return last_ms_; }
  double last_ttfa_ms() const { return last_ttfa_ms_; }
  double last_fresh_ms() const { return last_fresh_ms_; }

 private:
  void Fail(const Line& line, const std::string& response);

  Samples* samples_;
  AnswerLog* answers_;
  std::map<int, std::int64_t> prepare_start_;  // slot -> ns
  std::int64_t mutation_start_ = -1;
  double last_ms_ = -1, last_ttfa_ms_ = -1, last_fresh_ms_ = -1;
};

/// Registry deltas between two snapshots.
class ObsDelta {
 public:
  void Begin();
  void End();
  double Counter(const std::string& name) const;
  double TimerMs(const std::string& name) const;
  std::uint64_t TimerCount(const std::string& name) const;
  obda::obs::Histogram::Snapshot Histogram(const std::string& name) const;

 private:
  obda::obs::MetricsRegistry::Snapshot before_, after_;
};

}  // namespace obdabench

#endif  // OBDABENCH_OPS_H_
