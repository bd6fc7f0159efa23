#ifndef OBDABENCH_ORACLE_H_
#define OBDABENCH_ORACLE_H_

// The independent answer oracle: certain answers recomputed from the spec
// text on a materialized snapshot, without the serving layer's planner,
// rewritings, cache or incremental grounding. AQ/BAQ OMQs go through
// core::CertainAnswersViaCsp (paper Thm 4.6), programs through a fresh
// ddlog::CertainAnswers.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "base/status.h"
#include "corpus.h"
#include "data/instance.h"
#include "data/schema.h"
#include "ops.h"

namespace obdabench {

/// Parses the relation specs of a SCHEMA line payload.
obda::base::Result<obda::data::Schema> ParseSchema(const std::string& specs);

/// A snapshot built the way a serving session builds it (serve::Session
/// then Materialize) from `facts`, in order.
std::shared_ptr<const obda::data::Instance> Snapshot(
    const obda::data::Schema& schema,
    const std::vector<obda::data::Fact>& facts);

/// A QUERY response's answers in canonical form: the payload lines, sorted
/// and '\n'-joined. nullopt for an ERR response or one without an OK line.
std::optional<std::string> CanonicalAnswers(std::string_view response);

/// The oracle's answers for `spec` on `instance`, in the same canonical
/// form (Boolean queries render "true"/"false", like the server).
obda::base::Result<std::string> OracleAnswers(
    const OmqSpec& spec, const obda::data::Instance& instance);

/// The snapshot a (client, state) pair of a workload's script denotes.
using SnapshotFn = std::function<std::shared_ptr<const obda::data::Instance>(
    int client, int state)>;
/// Oracle answers by (client, omq, state).
using AnswerMemo = std::map<std::tuple<int, int, int>, std::string>;

/// Checks every QUERY response the logs hold against the oracle —
/// computed once per distinct (client, omq, state), outside any timing —
/// counting each wrong response in `mismatches` (and describing the first
/// few in `problems`). Returns the digest of the canonical answers of the
/// digest-prefix QUERYs, log by log, in order.
std::uint64_t CheckAnswers(const std::vector<AnswerLog>& logs,
                           const std::vector<OmqSpec>& specs,
                           const SnapshotFn& snapshot, AnswerMemo* memo,
                           const char* label,
                           std::vector<std::string>* problems,
                           std::size_t* mismatches);

}  // namespace obdabench

#endif  // OBDABENCH_ORACLE_H_
